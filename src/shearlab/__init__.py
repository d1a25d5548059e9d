"""shearlab: stability analysis and exact localizing solutions of thermally
softening shear flows, with a direct nonlinear solver for cross-validation.
Each export is imported from its module on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
