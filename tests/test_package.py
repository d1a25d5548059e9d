"""The package's exports: each resolves from its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shearlab

REPO = Path(__file__).resolve().parents[1]

# every name ``shearlab`` exports, by the module that defines it
EXPORTS = {
    "errors": ("ShearlabError", "ParameterError", "EmptyOverlapError", "RegionExitError",
               "MaxStepsError", "UnresolvedTailError", "StiffnessError", "PositivityError",
               "RangeError"),
    "material": ("MaterialParams", "UniformShearState", "GridTriple",
                 "uniform_shear", "tau_of_t", "t_of_tau", "constitutive_stress",
                 "rescale_triple"),
    "stability": ("ModeEigen", "ModeSpectrum", "ModeTrajectory", "EnergyCertificate",
                  "DecayReport", "mode_eigen", "spectrum", "asymptotic_eigen", "mode_matrix",
                  "trotter_split", "frozen_mode_solution", "integrate_mode",
                  "energy_certificate", "energy_decay_check"),
    "orbit": ("PlanarParams", "EquilibriumInfo", "OrbitPath", "vector_field", "jacobian",
              "equilibria", "shoot_heteroclinic", "estimate_kappa1", "reparametrize"),
    "profile": ("Profile", "ResidualReport", "EndpointReport", "reconstruct",
                "equilibrium_closed_form", "scale_invariant_solution", "ode_residual",
                "endpoint_report"),
    "localization": ("LocalizedSolution", "SpaceTimeResidual", "BandDiagnostics",
                     "pde_residual", "residual_convergence", "band_diagnostics"),
    "pdesim": ("Grid1D", "FieldState", "SimConfig", "SimResult", "initial_uniform",
               "initial_gaussian_bump", "step", "run"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_its_modules_object(module, name):
    assert getattr(shearlab, name) is getattr(importlib.import_module(f"shearlab.{module}"), name)


def test_star_import_and_dir_give_every_export():
    namespace = {}
    exec("from shearlab import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"shearlab.{module}"), name)
    assert namespace["__version__"] == shearlab.__version__ == "0.1.0"
    assert {name for _, name in NAMES} | {"__version__"} <= set(dir(shearlab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'shearlab' has no attribute 'no_such_name'"):
        shearlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from shearlab import no_such_name", {})


def test_import_loads_no_computing_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    probe = ("import json, sys\nimport shearlab\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('shearlab'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == ["shearlab"]
