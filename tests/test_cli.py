import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from shearlab._csvio import read_csv
from shearlab.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    return main(list(argv))


def test_spectrum_hadamard(tmp_path):
    code = run_cli("spectrum", "--n", "0", "--alpha", "1", "--k", "0",
                   "--jmax", "5", "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "spectrum.csv")
    assert meta["num_unstable"] == "5"
    assert meta["regime"] == "hadamard"
    assert data["j"].size == 6


def test_spectrum_stabilized(tmp_path):
    code = run_cli("spectrum", "--n", "0.05", "--alpha", "0.5", "--k", "2",
                   "--jmax", "50", "--out-dir", str(tmp_path))
    assert code == 0
    meta, _ = read_csv(tmp_path / "spectrum.csv")
    assert meta["num_unstable"] == "0"


def test_spectrum_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--jmax", "0")
    assert exc.value.code == 2


# (subcommand, config key, invalid value); the flag is --key with - for _
USAGE_ERRORS = [
    ("spectrum", "jmax", 0),
    ("spectrum", "n", -1),
    ("spectrum", "k", -1),
    ("energy", "kappa", -1),
    ("energy", "jmodes", "a"),
    ("uniform-shear", "samples", -1),
    ("modes", "j", -1),
    ("modes", "frozen_k", -1),
    ("heteroclinic", "eps", 0),
    ("heteroclinic", "eps", 0.01),
    ("profile", "tol", 0),
    ("simulate", "N", 8),
    ("simulate", "frames", 1),
    ("simulate", "atol", -1),
    ("simulate", "rtol", -1),
    ("simulate", "init_path", "no-such-dir/init.npz"),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("cmd, key, value", USAGE_ERRORS)
def test_invalid_value_is_usage_error(tmp_path, cmd, key, value, via):
    if via == "flag":
        argv = [cmd, "--" + key.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = [cmd, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("cmd", ["heteroclinic", "simulate"])
def test_unknown_config_key_is_usage_error(tmp_path, cmd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamda": 0.4}))
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd, "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2


def test_missing_config_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--config", str(tmp_path / "absent.json"))
    assert exc.value.code == 2


def test_localize_lambda_zero_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("localize", "--lambda", "0")
    assert exc.value.code == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    code = run_cli("simulate", "--init", "from-file", "--out-dir", str(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"


@pytest.mark.parametrize("tau_end", ["40", "2000"])
def test_modes_past_the_trapezoid_step_bound_is_numerical_failure(tmp_path, capsys, tau_end):
    # refused before the step arrays are allocated (168 GiB at tau_end = 40)
    code = run_cli("modes", "--n", "0.05", "--alpha", "0.5", "--kappa", "0.1", "--theta0",
                   "0.3", "--j", "1", "--tau-end", tau_end, "--out-dir", str(tmp_path))
    assert code == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "StiffnessError"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, save", [
    ("init.npz", lambda path: np.savez(path, velocity=np.linspace(0.0, 1.0, 33))),
    ("init.npy", lambda path: np.save(path, np.linspace(0.0, 1.0, 33))),
], ids=["npz-without-v-theta", "npy"])
def test_malformed_init_file_is_numerical_failure(tmp_path, capsys, name, save):
    save(tmp_path / name)
    code = run_cli("simulate", "--N", "32", "--init", "from-file",
                   "--init-path", str(tmp_path / name), "--out-dir", str(tmp_path))
    assert code == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "arrays v and theta" in payload["message"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_simulate_has_no_method_option(tmp_path, via):
    # LSODA is the only integrator, so there is nothing to choose
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "lsoda"}))
    extra = ["--method", "lsoda"] if via == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", *extra, "--out-dir", str(tmp_path))
    assert exc.value.code == 2


def test_residual_shoot_failure_carries_hint(tmp_path, capsys, monkeypatch):
    import shearlab.cli as cli
    from shearlab.errors import RegionExitError

    def fail(*args, **kwargs):
        raise RegionExitError("left the region R")

    monkeypatch.setattr(cli, "shoot_heteroclinic", fail)
    assert run_cli("residual", "--out-dir", str(tmp_path)) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "RegionExitError"
    assert "try reducing --eps" in payload["message"]


def test_dotted_prefixes_keep_distinct_files(tmp_path):
    for prefix in ("run.1", "run.2"):
        assert run_cli("spectrum", "--jmax", "3", "--prefix", prefix,
                       "--out-dir", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.1.csv", "run.1.manifest.json", "run.2.csv", "run.2.manifest.json"]


def test_uniform_shear_cmd(tmp_path):
    code = run_cli("uniform-shear", "--alpha", "0.5", "--theta0", "10",
                   "--tmax", "10", "--samples", "5", "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "uniform_shear.csv")
    assert float(meta["c0"]) == pytest.approx(np.exp(5.0))
    assert np.all(np.diff(data["sigma_s"]) < 0)
    manifest = json.loads((tmp_path / "uniform_shear.manifest.json").read_text())
    assert manifest["subcommand"] == "uniform-shear"
    assert manifest["tool_version"]


def test_modes_cmd(tmp_path):
    code = run_cli("modes", "--n", "0.05", "--alpha", "0.5", "--kappa", "0.5",
                   "--theta0", "0", "--j", "1", "--tau-end", "2",
                   "--out-dir", str(tmp_path))
    assert code == 0
    _, data = read_csv(tmp_path / "modes.csv")
    assert data["tau"][-1] == pytest.approx(2.0)


def test_energy_cmd(tmp_path):
    code = run_cli("energy", "--n", "0.05", "--alpha", "0.5", "--kappa", "0.5",
                   "--theta0", "0", "--jmodes", "1,2", "--tau-end", "8",
                   "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "energy.csv")
    assert meta["certificate_applicable"] == "true"
    assert float(meta["A"]) > 0


def test_heteroclinic_cmd(tmp_path):
    code = run_cli("heteroclinic", "--n", "0.1", "--alpha", "0.5", "--nu", "0.1",
                   "--sigma0", "1.88", "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "heteroclinic.csv")
    assert float(meta["kappa1"]) == pytest.approx(1.0 / 1.88, rel=1e-9)
    assert np.all(np.diff(data["a"]) > 0)


def test_profile_cmd(tmp_path):
    code = run_cli("profile", "--n", "0.1", "--alpha", "0.5", "--nu", "0.1",
                   "--sigma0", "1.88", "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "profile_report.json").read_text())
    assert max(report["residual_sup"]) < 1e-6
    assert abs(report["endpoints"]["taylor_coeff"]
               - report["endpoints"]["taylor_coeff_target"]) < 0.02


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 0.0, "alpha": 1.0, "k": 0.0, "jmax": 5}))
    code = run_cli("spectrum", "--config", str(cfg), "--jmax", "3",
                   "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "spectrum.csv")
    assert meta["jmax"] == "3"          # flag wins
    assert meta["n"] == "0"             # config supplies the rest


def _compare_to_golden(produced: Path, golden: Path):
    meta_p, data_p = read_csv(produced)
    meta_g, data_g = read_csv(golden)
    assert meta_p == meta_g
    assert list(data_p) == list(data_g)
    for key in data_g:
        assert np.allclose(data_p[key], data_g[key], rtol=1e-12, atol=1e-300), key


def test_golden_localization_bundle(tmp_path):
    code = run_cli("localize", "--config", str(REPO / "configs" / "localization.json"),
                   "--prefix", "localization", "--out-dir", str(tmp_path))
    assert code == 0
    _compare_to_golden(tmp_path / "localization_diagnostics.csv",
                       GOLDEN / "localization_diagnostics.csv")
    # determinism: a rerun is bit-identical
    code = run_cli("localize", "--config", str(REPO / "configs" / "localization.json"),
                   "--prefix", "localizationb", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "localization_spacetime.csv").read_bytes() == \
        (tmp_path / "localizationb_spacetime.csv").read_bytes()
    assert (tmp_path / "localization_diagnostics.csv").read_bytes() == \
        (tmp_path / "localizationb_diagnostics.csv").read_bytes()


def test_golden_metastability_run(tmp_path):
    code = run_cli("simulate", "--config", str(REPO / "configs" / "metastability.json"),
                   "--prefix", "metastability", "--out-dir", str(tmp_path))
    assert code == 0
    _compare_to_golden(tmp_path / "metastability_diagnostics.csv",
                       GOLDEN / "metastability_diagnostics.csv")


def test_localize_bundles_compare_localization_rates(tmp_path):
    # a larger localization rate shrinks the band faster at equal times
    for lam, prefix in (("0.1", "slow"), ("0.4", "fast")):
        code = run_cli("localize", "--n", "0.1", "--alpha", "0.5", "--theta0", "10",
                       "--lambda", lam, "--sigma0", "1.0", "--tmax", "200",
                       "--frames", "5", "--nx", "41", "--prefix", prefix,
                       "--out-dir", str(tmp_path))
        assert code == 0
    _, slow = read_csv(tmp_path / "slow_diagnostics.csv")
    _, fast = read_csv(tmp_path / "fast_diagnostics.csv")
    shrink_slow = slow["halfwidth"][-1] / slow["halfwidth"][0]
    shrink_fast = fast["halfwidth"][-1] / fast["halfwidth"][0]
    assert shrink_fast < shrink_slow


def test_residual_cmd(tmp_path):
    code = run_cli("residual", "--n", "0.1", "--alpha", "0.5", "--theta0", "10",
                   "--lambda", "0.1", "--sigma0", "1.88", "--levels", "3",
                   "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "residual.json").read_text())
    assert len(report["levels"]) == 3
    assert report["fitted_order"] == pytest.approx(4.0, abs=0.3)


# one small run per subcommand, each off the defaults that a config could miss
ROUND_TRIP = [
    ("uniform-shear", "--theta0", "3", "--samples", "7"),
    ("spectrum", "--n", "0.05", "--k", "0.5", "--jmax", "8"),
    ("modes", "--j", "2", "--init-u", "0.5", "--init-theta", "2", "--tau-end", "1"),
    ("energy", "--jmodes", "1,2", "--tau-end", "2"),
    ("heteroclinic", "--nu", "0.2", "--sigma0", "1.5"),
    ("profile", "--nu", "0.2", "--sigma0", "1.5"),
    ("localize", "--lambda", "0.4", "--sigma0", "1.0", "--frames", "3", "--nx", "21"),
    ("residual", "--lambda", "0.4", "--levels", "2", "--eps", "5e-7"),
    ("simulate", "--N", "32", "--frames", "3", "--t-end", "1", "--amplitude", "0.05"),
]


@pytest.mark.parametrize("argv", ROUND_TRIP, ids=lambda argv: argv[0])
def test_manifest_parameters_reproduce_run(tmp_path, argv):
    assert run_cli(*argv, "--prefix", "first", "--out-dir", str(tmp_path)) == 0
    first = json.loads((tmp_path / "first.manifest.json").read_text())
    cfg = tmp_path / "parameters.json"
    cfg.write_text(json.dumps(first["parameters"]))
    assert run_cli(argv[0], "--config", str(cfg), "--prefix", "second",
                   "--out-dir", str(tmp_path)) == 0
    second = json.loads((tmp_path / "second.manifest.json").read_text())
    assert second["parameters"] == first["parameters"]
    assert len(second["outputs"]) == len(first["outputs"])
    for a, b in zip(first["outputs"], second["outputs"]):
        assert Path(a).read_bytes() == Path(b).read_bytes(), a


def test_wall_seconds_covers_compute(tmp_path, monkeypatch):
    import shearlab.cli as cli
    original = cli.energy_decay_check

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    # also pins that the CLI looks the name up at call time
    monkeypatch.setattr(cli, "energy_decay_check", slow)
    assert run_cli("energy", "--jmodes", "1", "--tau-end", "1", "--out-dir", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "energy.manifest.json").read_text())
    assert manifest["wall_seconds"] >= 0.05


# Run in a fresh interpreter: records which SciPy subpackages are loaded after
# the parser is built, after each subcommand that needs no SciPy, and after
# `simulate`, whose LSODA comes from scipy.integrate.
IMPORT_PROBE = """
import json, sys
from shearlab.cli import build_parser, main

GUARDED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
out = sys.argv[1]
build_parser()
seen = {"parser": [m for m in GUARDED if m in sys.modules]}
for argv in (["localize"], ["profile"], ["heteroclinic", "--sigma0", "1.3"], ["residual"],
             ["energy"], ["modes"], ["spectrum"], ["uniform-shear"],
             ["simulate", "--N", "32", "--t-end", "1", "--frames", "2"]):
    if main([*argv, "--out-dir", out]) != 0:
        raise SystemExit(f"{argv} failed")
    seen[argv[0]] = [m for m in GUARDED if m in sys.modules]
print(json.dumps(seen))
"""


def test_only_simulate_imports_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["parser", "localize", "profile", "heteroclinic", "residual",
                          "energy", "modes", "spectrum", "uniform-shear", "simulate"]
    simulate = seen.pop("simulate")
    assert all(loaded == [] for loaded in seen.values()), seen
    assert "scipy.integrate" in simulate


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


STARTUP_PROBE = """
import json, sys
import shearlab.cli as cli
from shearlab import _csvio

cli.build_parser()
seen = {"tables_built": _csvio._tables.cache_info().currsize,
        "imported": [m for m in ("fractions", "decimal") if m in sys.modules]}
_csvio.write_csv(sys.argv[1], {"x": [0.1]})
seen["tables_after_write"] = _csvio._tables.cache_info().currsize
print(json.dumps(seen))
"""


def test_cli_start_builds_no_float_tables(tmp_path):
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "x.csv")],
                          env=_cli_env(), capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"tables_built": 0, "imported": [], "tables_after_write": 1}


# a non-finite initial state once sent the mode solver into a loop without end
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("cmd, key, value", [
    ("modes", "init_u", "nan"), ("modes", "init_u", "inf"), ("modes", "init_theta", "-inf"),
    ("modes", "theta0", "nan"), ("energy", "theta0", "nan"), ("energy", "theta0", "inf")])
def test_nonfinite_initial_state_is_usage_error(tmp_path, cmd, key, value, via):
    if via == "flag":
        argv = [f"--{key.replace('_', '-')}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        argv = ["--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", cmd, *argv,
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "must be finite" in proc.stderr
    assert not list(tmp_path.glob("*.manifest.json"))
