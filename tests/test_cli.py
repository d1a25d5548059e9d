import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from shearlab._csvio import read_csv, write_csv
from shearlab.cli import COMMANDS, _parser, build_parser, main
from shearlab.material import energy_weight

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


def test_spectrum_row_2207_is_pinned(tmp_path):
    # x = (j pi)^2 by C pow; x = (j pi) * (j pi) would end lambda_minus in ...2745
    assert run_cli("spectrum", "--n", "0.1", "--alpha", "0.5", "--k", "0.1234",
                   "--jmax", "4096", "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    j, lam_minus, lam_plus, cls = lines[lines.index("j,lambda_minus,lambda_plus,classification")
                                        + 1 + 2207].split(",")
    assert (int(j), float(lam_minus), float(lam_plus), cls) == (
        2207, float.fromhex("-0x1.6a13ceebddcc4p+22"), float.fromhex("-0x1.256a3f136d728p+22"),
        "asymptotically-stable")
    assert lam_minus == "-5932275.7303382792"


def test_spectrum_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--jmax", "0")
    assert exc.value.code == 2


# (subcommand, config key, invalid value); the flag is --key with - for _
USAGE_ERRORS = [
    ("spectrum", "jmax", 0),
    ("spectrum", "jmax", 4.7),
    ("spectrum", "jmax", 9.0),        # an int parameter takes a JSON integer only
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
    ("heteroclinic", "tol", 1e300),    # tol in (0, 1): tol^2 once overflowed
    ("localize", "tol", 1),
    ("simulate", "N", 8),
    ("simulate", "frames", 1),
    ("simulate", "atol", -1),
    ("simulate", "rtol", -1),
    ("simulate", "seed", True),
    ("simulate", "init_path", "no-such-dir/init.npz"),
    ("residual", "nx0", 2),
    ("residual", "nx0", 16),
    ("residual", "nt0", 3),
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


@pytest.mark.parametrize("value", ["false", "true", 0, 1])
def test_config_bool_takes_only_true_or_false(tmp_path, capsys, value):
    # bool("false") is True: a config value that is not a JSON bool is an error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_frames": value}))
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert f"log_frames: must be a JSON bool, got {json.dumps(value)}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("config, key, shown", [
    ({"k": True}, "k", "true"),
    ({"n": "0.05"}, "n", '"0.05"'),
    ({"k": True, "n": "0.05"}, "k", "true"),   # the first bad key is named
    ({"alpha": False}, "alpha", "false"),
    ({"k": [0.5]}, "k", "[0.5]"),
])
def test_config_float_takes_only_a_json_number(tmp_path, capsys, config, key, shown):
    # float(True) is 1.0 and float("0.05") is 0.05: neither is a JSON number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert f"{key}: must be a JSON number, got {shown}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_config_float_takes_a_json_integer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta0": 10, "alpha": 1, "tmax": 50}))
    assert run_cli("uniform-shear", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    params = json.loads((tmp_path / "uniform_shear.manifest.json").read_text())["parameters"]
    assert params["theta0"] == 10.0 and params["alpha"] == 1.0 and params["tmax"] == 50.0
    assert all(type(params[k]) is float for k in ("theta0", "alpha", "tmax"))


def test_config_integer_beyond_the_float_range_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha": 1' + "0" * 400 + "}")
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert ": alpha: int too large to convert to float" in capsys.readouterr().err


def _parse(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, as argparse's help and errors do."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


ALL_COMMANDS = "{uniform-shear,spectrum,modes,energy,heteroclinic,profile,localize,residual,simulate}"


# --config without a value is the subparser's error; unknown arguments are the
# root parser's, whose usage line names every subcommand
@pytest.mark.parametrize("tail, code, texts", [
    (["--help"], 0, ["usage: shearlab {cmd} [-h]"]),
    (["--config"], 2, ["shearlab {cmd}: error: argument --config: expected one argument"]),
    (["--bogus"], 2, [ALL_COMMANDS, "shearlab: error: unrecognized arguments: --bogus"]),
    (["--prefix", "p", "x"], 2, [ALL_COMMANDS, "shearlab: error: unrecognized arguments: x"]),
])
@pytest.mark.parametrize("cmd", list(COMMANDS))
def test_one_subparser_parses_as_the_full_parser(capsys, cmd, tail, code, texts):
    got = _parse(main, [cmd, *tail], capsys)
    assert got == _parse(build_parser().parse_args, [cmd, *tail], capsys)
    assert got[0] == code
    assert all(text.replace("{cmd}", cmd) in got[1] + got[2] for text in texts)


@pytest.mark.parametrize("argv, code, text", [
    ([], 2, "the following arguments are required: command"),
    (["--help"], 0, ALL_COMMANDS),
    (["--version"], 0, "shearlab "),
    (["bogus"], 2, "invalid choice: 'bogus'"),
])
def test_root_usage_keeps_its_exit_codes_and_messages(capsys, argv, code, text):
    got = _parse(main, argv, capsys)
    assert got == _parse(build_parser().parse_args, argv, capsys)
    assert got[0] == code and text in got[1] + got[2]


def test_main_builds_only_the_subparser_it_runs(tmp_path, monkeypatch):
    # from a cold cache: an earlier test of the process may have built any parser
    _parser.cache_clear()
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert run_cli("spectrum", "--jmax", "3", "--out-dir", str(tmp_path)) == 0
    assert built == ["spectrum"]
    build_parser()
    assert built[1:] == list(COMMANDS)
    # each parser is built once per process: later calls build no subparser
    assert run_cli("spectrum", "--jmax", "4", "--out-dir", str(tmp_path)) == 0
    build_parser()
    assert built == ["spectrum", *COMMANDS]


def test_calls_in_a_row_take_only_their_own_values(tmp_path):
    # the reused parser carries no value from one call into the next
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"jmax": 3}))
    assert run_cli("spectrum", "--prefix", "a", "--config", str(cfg), "--k", "0.5",
                   "--out-dir", str(tmp_path)) == 0
    assert run_cli("spectrum", "--out-dir", str(tmp_path)) == 0
    first = json.loads((tmp_path / "a.manifest.json").read_text())["parameters"]
    second = json.loads((tmp_path / "spectrum.manifest.json").read_text())["parameters"]
    assert (first["jmax"], first["k"]) == (3, 0.5)
    assert (second["jmax"], second["k"]) == (64, 0.0)
    assert read_csv(tmp_path / "spectrum.csv")[1]["j"].size == 65


@pytest.mark.parametrize("argv", [("spectrum", "--jmax", "0"), ("modes", "--config"),
                                  ("bogus",), ("energy", "--bogus")])
def test_usage_error_is_the_same_on_a_cold_and_a_warm_cache(capsys, argv):
    _parser.cache_clear()
    cold = _parse(main, list(argv), capsys)
    assert cold[0] == 2 and "error:" in cold[2]
    assert _parse(main, list(argv), capsys) == cold


def test_build_parser_twice_gives_the_same_help(capsys):
    _parser.cache_clear()
    first = _parse(build_parser().parse_args, ["--help"], capsys)
    assert build_parser() is build_parser()
    assert _parse(build_parser().parse_args, ["--help"], capsys) == first


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
def test_modes_until_k_overflows_is_numerical_failure(tmp_path, capsys, tau_end):
    """The Magnus propagator finishes tau_end = 40; at 2000 k(tau) overflows, which
    is a numerical failure before anything is written."""
    code = run_cli("modes", "--n", "0.05", "--alpha", "0.5", "--kappa", "0.1", "--theta0",
                   "0.3", "--j", "1", "--tau-end", tau_end, "--out-dir", str(tmp_path))
    if tau_end == "40":
        assert code == 0
        meta, data = read_csv(tmp_path / "modes.csv")
        assert meta["method"] == "magnus" and data["tau"][-1] == 40.0
        assert all(np.all(np.isfinite(col)) for col in data.values())
        return
    assert code == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "StiffnessError"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("j, kappa, theta0, tau_end, code", [
    ("1", "0.1", "0.3", "100", 0), ("1", "0.1", "0.3", "600", 0), ("40", "0.2", "1", "600", 0)])
def test_modes_on_stiff_horizons(tmp_path, capsys, j, kappa, theta0, tau_end, code):
    """Late in these runs k(tau) (j pi)^2 times an output interval passes 1e20.

    The Magnus propagator alone needs more than its cap of 4096 substeps on an
    interval of mode 1 to 600, at tau of about 19; each mode is taken in closed
    form on its slow manifold well before that.  Mode 40 is exactly 0 long
    before its Omega would overflow.
    """
    argv = ("modes", "--n", "0.05", "--alpha", "0.5", "--kappa", kappa, "--theta0", theta0,
            "--j", j, "--tau-end", tau_end, "--out-dir", str(tmp_path))
    assert run_cli(*argv) == code
    meta, data = read_csv(tmp_path / "modes.csv")
    assert all(np.all(np.isfinite(col)) for col in data.values())
    assert 0.0 < float(meta["slow_manifold_tau"]) < 19.0
    if j == "40":
        assert data["u"][-1] == 0.0 and data["theta"][-1] == 0.0


@pytest.mark.parametrize("argv, quantity", [
    (("--alpha", "1e300"), "B = inf at n = 0.05, alpha = 1e+300, kappa = 0.5, theta0 = 0.0"),
    (("--n", "1e-300"), "T = inf at n = 1e-300, alpha = 0.5, kappa = 0.5, theta0 = 0.0"),
    (("--n", "1e-150", "--kappa", "1", "--theta0", "-46"),
     "tau_T = inf at n = 1e-150, alpha = 0.5, kappa = 1.0, theta0 = -46.0")])
def test_energy_certificate_overflow_is_named(tmp_path, argv, quantity):
    # alpha ** 2 once raised a bare OverflowError; an infinite T or tau_T reached linspace
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "shearlab.cli", "energy", *argv,
                           "--out-dir", str(tmp_path)], env=_cli_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 3 and proc.stderr.count("\n") == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "RangeError"
    assert payload["message"] == f"energy certificate: {quantity} is not a finite float"
    assert not list(tmp_path.iterdir())


def _negative_flags():
    """(subcommand, flag, value) of every parameter whose kind takes a negative value:
    -2E-1, or -3 for an int kind."""
    flags = []
    for name, (_, params, _) in COMMANDS.items():
        for key, kind, _, flag in params:
            for value in ("-2E-1", "-3"):
                try:
                    kind(value)
                except (ValueError, argparse.ArgumentTypeError):
                    continue
                if kind is not bool:
                    flags.append((name, flag or "--" + key.replace("_", "-"), value))
                break
    return flags


@pytest.mark.parametrize("name, flag, value", _negative_flags())
def test_negative_value_parses_as_a_number(name, flag, value):
    # argparse's default pattern took -2E-1 for an option: "expected one argument"
    parser = build_parser()
    spaced = vars(parser.parse_args([name, flag, value]))
    assert spaced == vars(parser.parse_args([name, f"{flag}={value}"]))
    assert spaced[flag.lstrip("-").replace("-", "_")] == float(value)


@pytest.mark.parametrize("argv", [("modes", "--theta0", "-2E-1"), ("modes", "--init-u", "-1e0"),
                                  ("simulate", "--N", "32", "--t-end", "1", "--frames", "2",
                                   "--amplitude", "-1e-2")])
def test_negative_exponent_value_runs_as_with_equals(tmp_path, argv):
    joined = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert run_cli(*argv, "--out-dir", str(tmp_path / "spaced")) == 0
    assert run_cli(*joined, "--out-dir", str(tmp_path / "joined")) == 0
    csvs = sorted(path.name for path in (tmp_path / "spaced").glob("*.csv"))
    assert csvs and csvs == sorted(path.name for path in (tmp_path / "joined").glob("*.csv"))
    for csv in csvs:
        assert (tmp_path / "spaced" / csv).read_bytes() == (tmp_path / "joined" / csv).read_bytes()


def test_huge_initial_state_is_solved_or_numerical_failure(tmp_path, capsys):
    # 1e308 once crashed the explicit solver's first-step estimate (exit 1); the
    # linear solution scales with it, and overflows only where the mode grows 1.8x
    assert run_cli("modes", "--init-u", "1e308", "--out-dir", str(tmp_path / "huge")) == 0
    assert run_cli("modes", "--init-u", "1", "--init-theta", "0",
                   "--out-dir", str(tmp_path / "unit")) == 0
    _, huge = read_csv(tmp_path / "huge" / "modes.csv")
    _, unit = read_csv(tmp_path / "unit" / "modes.csv")
    assert np.allclose(huge["u"], 1e308 * unit["u"], rtol=1e-9, atol=0.0)
    capsys.readouterr()
    assert run_cli("modes", "--init-u", "1e308", "--kappa", "0.1",
                   "--out-dir", str(tmp_path / "grows")) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "StiffnessError" and "not finite" in payload["message"]


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


def _probe_b(b):
    """A stand-in for the body's solver that makes one trial evaluation at b."""
    def probe(fun, t_span, y0, **kwargs):
        fun(t_span[0], 0.5, b)
    return probe


@pytest.mark.parametrize("argv, patch, message, remedy", [
    # mu_s = -2.2e-3: the saddle's series reaches zeta = 0.54 at s = 5949
    (("heteroclinic", "--n", "0.1", "--alpha", "0.01", "--nu", "10"), None,
     "did not leave the saddle within s = 2000", "; a larger eps, up to 1e-3, shortens the head"),
    # a body that does not reach the node series in its span says what it covered
    (("residual",), ("_S_MAX", 0.5), r"did not reach a = 0\.\d+ within s = 0\.5 of the shoot's "
     r"start: it covered s = [\d.]+ to [\d.]+, from a = 0\.7\d+ to a = 0\.\d+ ", None),
    # with no node series (lambda2 = 1.4) the body runs to a = tol: a looser tol ends
    # it sooner
    (("heteroclinic", "--n", "5", "--alpha", "0.5", "--nu", "0.5"), ("_S_MAX", 0.5),
     "did not reach a = 1e-08 within s = 0.5", "; a looser tol ends it sooner"),
    # at lambda2 = 3 it runs to the series' reach, 2.2e-8, whatever the tol below it
    (("heteroclinic", "--n", "1", "--alpha", "1", "--nu", "1"), ("_S_MAX", 0.5),
     r"did not reach a = 2\.23607e-08 within s = 0\.5 ", None),
    # no option changes where a trial step goes
    (("residual",), ("solve_ivp", _probe_b(-1e-3)),
     r"a step left the region R at eta = -[\d.]+ \(b = -0.001 <= 0\)$", None),
], ids=["long-head", "short-body", "node-route", "reach-route", "region-exit"])
def test_shoot_failure_names_what_helps(tmp_path, capsys, monkeypatch, argv, patch, message,
                                        remedy):
    import shearlab.orbit as orbit

    if patch is not None:
        monkeypatch.setattr(orbit, *patch)
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 3
    payload = json.loads(capsys.readouterr().err)
    assert re.search(message, payload["message"]), payload
    if remedy is None:
        assert "eps" not in payload["message"] and "tol" not in payload["message"]
    else:
        assert payload["message"].endswith(remedy)
    assert not list(tmp_path.iterdir())


def test_dotted_prefixes_keep_distinct_files(tmp_path):
    for prefix in ("run.1", "run.2"):
        assert run_cli("spectrum", "--jmax", "3", "--prefix", prefix,
                       "--out-dir", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.1.csv", "run.1.manifest.json", "run.2.csv", "run.2.manifest.json"]


def test_prefix_with_a_directory_creates_it(tmp_path):
    assert run_cli("spectrum", "--jmax", "3", "--prefix", "sub/run",
                   "--out-dir", str(tmp_path)) == 0
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["run.csv", "run.manifest.json"]


@pytest.mark.parametrize("argv", [("--out-dir", "file"), ("--prefix", "file/run")],
                         ids=["out-dir-is-a-file", "prefix-under-a-file"])
def test_unusable_output_location_is_usage_error(tmp_path, argv):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", "spectrum", *argv],
                          cwd=tmp_path, env=_cli_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(
        "shearlab spectrum: error: cannot create the output directory file: ")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


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


def test_slow_manifold_switch_is_recorded(tmp_path):
    # energy at k(0) of about 3e9 once exited 3 on its first interval; every mode is
    # now taken in closed form from tau = 0, and each one's switch is a metadata key
    code = run_cli("energy", "--n", "0.002719", "--alpha", "8.389", "--kappa", "0.01418",
                   "--theta0", "3.11", "--jmodes", "1,2", "--tau-end", "5.811",
                   "--out-dir", str(tmp_path))
    assert code == 0
    meta, data = read_csv(tmp_path / "energy.csv")
    assert (meta["slow_manifold_tau_1"], meta["slow_manifold_tau_2"]) == ("0", "0")
    assert "slow_manifold_tau_3" not in meta and np.all(np.isfinite(data["E"]))
    # where the propagator runs to tau_end, the key reads none
    for argv in (("--kappa", "0"), ("--frozen-k", "0.5"), ("--j", "0")):
        out = tmp_path / argv[0].lstrip("-")
        assert run_cli("modes", "--tau-end", "1", *argv, "--out-dir", str(out)) == 0
        meta, _ = read_csv(out / "modes.csv")
        assert meta["slow_manifold_tau"] == "none", argv
    assert run_cli("energy", "--kappa", "0", "--tau-end", "1", "--jmodes", "2",
                   "--out-dir", str(tmp_path / "e0")) == 0
    meta, _ = read_csv(tmp_path / "e0" / "energy.csv")
    assert meta["slow_manifold_tau_2"] == "none"


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
    # the body runs from the saddle series' reach to its first sample within the
    # node series' reach, where the junction is: 4 Taylor steps, sampled 0.01 apart
    (i,) = np.flatnonzero(data["a"] == float(meta["a_junction"]))
    (j,) = np.flatnonzero(data["a"] == float(meta["a_saddle"]))
    assert int(meta["body_steps"]) == 4 and j - i == 70
    assert data["a"][i] < 0.5 < 0.7 < data["a"][j]
    assert int(meta["saddle_terms"]) == 40 and int(meta["node_terms"]) == 22
    assert 0.0 < float(meta["junction_gap"]) < 1e-10
    assert 0.3 < float(meta["saddle_junction"]) < 0.5
    assert float(meta["saddle_truncation"]) == pytest.approx(1e-15, rel=1e-12)


@pytest.mark.parametrize("argv, body, rel", [
    ((), True, 1e-6),
    (("--n", "1", "--alpha", "1", "--nu", "1"), True, 1e-6),   # lambda2 = 3
    # a e^-eta at a = 1e-2 is off from kappa1 by F(a^2), about 6e-5
    (("--tol", "1e-2"), True, 1e-4),
    (("--n", "0.1", "--alpha", "1", "--nu", "0.05"), False, 1e-6),   # lambda2 = 211
], ids=["series-tail", "small-lambda2", "coarse-tol", "no-body"])
def test_heteroclinic_metadata_without_sigma0(tmp_path, argv, body, rel):
    # kappa1 of the shot parametrization; the node series' fields on every
    # route, at any tol
    assert run_cli("heteroclinic", *argv, "--out-dir", str(tmp_path)) == 0
    meta, data = read_csv(tmp_path / "heteroclinic.csv")
    for key in ("a_junction", "junction_gap", "node_terms"):
        assert meta[key] != "none"
    assert float(meta["a_junction"]) in data["a"]
    # every route starts on the saddle's series, out to its reach
    assert float(meta["a_saddle"]) in data["a"] and float(meta["saddle_junction"]) > 0.1
    assert (int(meta["body_steps"]) > 0) == body
    if not body:
        assert meta["a_junction"] == meta["a_saddle"]
    q = data["a"] * np.exp(-data["eta"])
    assert float(meta["kappa1"]) == pytest.approx(q[0], rel=rel)


def test_heteroclinic_junction_below_tol_leaves_an_empty_tail(tmp_path):
    # the body ends at a = 0.49, below tol: the series tail is empty, and kappa1
    # is the closed form at the junction, the default run's
    assert run_cli("heteroclinic", "--n", "0.1", "--alpha", "0.5", "--nu", "0.1",
                   "--tol", "0.5", "--out-dir", str(tmp_path / "coarse")) == 0
    assert run_cli("heteroclinic", "--n", "0.1", "--alpha", "0.5", "--nu", "0.1",
                   "--out-dir", str(tmp_path)) == 0
    meta, data = read_csv(tmp_path / "coarse" / "heteroclinic.csv")
    assert float(meta["a_junction"]) == data["a"][0] < 0.5
    kappa1 = float(read_csv(tmp_path / "heteroclinic.csv")[0]["kappa1"])
    assert float(meta["kappa1"]) == pytest.approx(kappa1, rel=1e-14, abs=0)


@pytest.mark.parametrize("argv, kappa1", [
    (("--sigma0", "1e306"), 1e-306),
    # log kappa1 = 596.8 before the shift: kappa1 sigma0 would be 1e359
    (("--n", "0.109", "--alpha", "0.05", "--nu", "4.739", "--sigma0", "1e100"), 1e-100),
    # a subnormal sigma0: kappa1 = 1/sigma0 lies past the float range
    (("--sigma0", "1e-310"), None),
], ids=["sigma0-1e306", "log-kappa1-596.8", "sigma0-1e-310"])
def test_heteroclinic_shifts_by_logs_at_any_sigma0(tmp_path, argv, kappa1):
    # eta0 = -log kappa1 - log sigma0 and log kappa1 = -log sigma0 after the shift:
    # no product kappa1 sigma0 is formed, and kappa1 reads none past the float range
    assert run_cli("heteroclinic", *argv, "--out-dir", str(tmp_path)) == 0
    meta, data = read_csv(tmp_path / "heteroclinic.csv")
    log_sigma0 = math.log(float(argv[-1]))
    if kappa1 is None:
        assert meta["kappa1"] == "none"
    else:
        assert float(meta["kappa1"]) == pytest.approx(kappa1, rel=1e-12, abs=0)
    # a e^-eta at the deepest sample, in logs, is log kappa1 to F(a^2) ~ 1e-16
    assert math.log(data["a"][0]) - data["eta"][0] == pytest.approx(-log_sigma0, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("profile", "--n", "0.109", "--alpha", "0.01717", "--nu", "4.739"),
    ("localize", "--n", "0.109", "--alpha", "0.01717", "--lambda", "4.739"),
], ids=["profile", "localize"])
def test_profile_past_the_float_range_of_xi_is_refused(tmp_path, capsys, argv):
    # lambda2 = 10.2: log kappa1 = 1721.4, so the orbit shifted to sigma0 reaches
    # eta = 1721 at its saddle end, where xi = e^eta overflows; once this exited 3
    # on kappa1's overflow, and without a guard it writes inf rows and exits 0
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "RangeError"
    assert re.search(r"reaches eta = 172\d\.\d+, past log of the largest float, 709\.783: "
                     r"xi = e\^eta overflows$", payload["message"]), payload
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code", [
    (("--n", "1e-300"), 0),       # m^2 overflows; mu_s = -5/3 from the larger root m
    (("--alpha", "1e300"), 0),    # mu_s = -2, and W's Cramer products overflow at m = 19
    (("--nu", "1e-300"), 0),
    (("--nu", "1e300"), 3),       # mu_s = -1.1e-300: W reaches zeta = 3.3e-8 < eps
    (("--alpha", "1e-30"), 3),    # mu_s = -2.2e-29: zeta_r = 2.3e-8
], ids=["n-1e-300", "alpha-1e300", "nu-1e-300", "nu-1e300", "alpha-1e-30"])
def test_extreme_saddle_is_shot_or_named(tmp_path, capsys, argv, code):
    # each once exited 1: mu_s = -0.0 from an overflowing m^2, or a negative or
    # nan count of head samples; alpha = 1e300 and nu = 1e-300 then exited 3 on a
    # nan reach
    assert run_cli("heteroclinic", *argv, "--out-dir", str(tmp_path)) == code
    if code == 3:
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RangeError"
        assert re.search(r"series reaches zeta = \S+ against eps = 1e-06, with mu_s = -\d",
                         payload["message"]), payload
        assert not list(tmp_path.iterdir())


def test_saddle_terms_past_the_float_range_keep_kappa1(tmp_path):
    # near lambda2 = 1e300 the Cramer products m11 n0 of the saddle series overflow at
    # m = 19; those terms are formed again with each row over det first, and the orbit
    # writes the kappa1 that alpha = 1e50 ... 1e290 write
    kappa1 = set()
    for flag, value in (("--alpha", "1e290"), ("--alpha", "1e300"), ("--nu", "1e-300")):
        out = tmp_path / flag.strip("-")
        assert run_cli("heteroclinic", flag, value, "--out-dir", str(out)) == 0
        kappa1.add(read_csv(out / "heteroclinic.csv")[0]["kappa1"])
    assert kappa1 == {"707.10678118655107"}


def test_localize_at_small_lambda2_takes_a_coarse_tol(tmp_path):
    # lambda2 = 3: --tol 1e-3 once exited 3 on "no plateau".  The body now stops
    # at a = 1e-3 and the short series' F gives kappa1, so the fields lie within
    # 1e-10 of the default tol's over each column's largest value (4.1e-12 in u)
    argv = ("localize", "--n", "1", "--alpha", "1", "--lambda", "1", "--sigma0", "1")
    assert run_cli(*argv, "--tol", "1e-3", "--out-dir", str(tmp_path / "coarse")) == 0
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
    _, coarse = read_csv(tmp_path / "coarse" / "localize_spacetime.csv")
    _, tight = read_csv(tmp_path / "localize_spacetime.csv")
    for key in ("u", "sigma", "theta"):
        shift = np.max(np.abs(coarse[key] - tight[key]))
        assert 0.0 < shift <= 1e-10 * np.max(np.abs(tight[key])), key


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


def _radau_body(fun, t_span, y0, stop):
    """A stand-in for the orbit's Taylor body: SciPy's Radau at rtol 1e-13 on the
    field that the first-order Taylor coefficients ``fun`` gives, sampled 0.01
    apart up to the first sample where ``stop`` holds."""
    from scipy.integrate import solve_ivp
    from shearlab._magnus import OdeResult

    def field(s, y):
        A, B = fun(s, *y)
        return A[1], B[1]

    def event(s, y):
        return 0.5 - stop(*y)

    event.terminal = True
    sol = solve_ivp(field, t_span, y0, method="Radau", rtol=1e-13, atol=1e-20,
                    dense_output=True, events=event)
    t = np.arange(t_span[0], sol.t[-1] + 0.01, 0.01)
    y = sol.sol(t)
    last = int(np.argmax(stop(*y))) + 1
    return OdeResult(t=t[:last], y=y[:, :last], status=1, nfev=sol.nfev)


def test_localization_diagnostics_resolve_a_tight_shoot(tmp_path, monkeypatch):
    # The golden pins the showcase with the shoot's Taylor body.  Independently
    # of it, the diagnostics lie within 1e-10 of a run whose body is SciPy's
    # Radau at rtol 1e-13 (the shoot's 4-step body is all it changes)
    import shearlab.orbit as orbit

    config = str(REPO / "configs" / "localization.json")
    assert run_cli("localize", "--config", config, "--out-dir", str(tmp_path / "prod")) == 0
    monkeypatch.setattr(orbit, "solve_ivp", _radau_body)
    assert run_cli("localize", "--config", config, "--out-dir", str(tmp_path / "tight")) == 0
    meta_p, data_p = read_csv(tmp_path / "prod" / "localize_diagnostics.csv")
    meta_t, data_t = read_csv(tmp_path / "tight" / "localize_diagnostics.csv")
    assert meta_p == meta_t and list(data_p) == list(data_t)
    for key in data_t:
        assert np.allclose(data_p[key], data_t[key], rtol=1e-10, atol=0.0), key


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


def _spacetime_frames(path, nx):
    """The rows of a spacetime CSV as strings, one list of (x, u, sigma, theta) per frame."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    rows = [tuple(r[k] for k in ("x", "u", "sigma", "theta")) for r in rows]
    return [rows[i:i + nx] for i in range(0, len(rows), nx)]


@pytest.mark.parametrize("nx, frames", [(1, 3), (2, 3), (4, 1), (400, 3)])
def test_localize_grid_at_its_edge_counts(tmp_path, nx, frames):
    # one point, no interior point, no x = 0 row: the table is still frame-major on
    # [-xmax, xmax], and a row at -x has the fields of the row at x, character for character
    assert run_cli("localize", "--nx", str(nx), "--frames", str(frames),
                   "--out-dir", str(tmp_path)) == 0
    table = _spacetime_frames(tmp_path / "localize_spacetime.csv", nx)
    assert len(table) == frames and all(len(rows) == nx for rows in table)
    for rows in table:
        x = [float(r[0]) for r in rows]
        assert x[0] == -5.0 and (nx == 1 or x[-1] == 5.0) and np.all(np.diff(x) > 0)
        fields = {r[0]: r[1:] for r in rows}
        for r in rows:
            if r[0].startswith("-") and r[0][1:] in fields:
                assert fields[r[0][1:]] == r[1:]


@pytest.mark.parametrize("nx", [401, 400])
def test_localize_grid_is_mirror_exact(tmp_path, nx):
    # np.linspace(-5, 5, 401) has 335 distinct |x|; the grid is its half x >= 0 mirrored
    assert run_cli("localize", "--nx", str(nx), "--frames", "2", "--out-dir", str(tmp_path)) == 0
    for rows in _spacetime_frames(tmp_path / "localize_spacetime.csv", nx):
        x = np.array([float(r[0]) for r in rows])
        assert np.array_equal(x, -x[::-1]) and np.unique(np.abs(x)).size == (nx + 1) // 2
        assert [r[1:] for r in rows] == [r[1:] for r in rows[::-1]]
        assert "-0" not in [r[0] for r in rows]


@pytest.mark.parametrize("nx0, levels", [(18, 1), (19, 2)], ids=["even", "zero-on-an-odd-row"])
def test_residual_study_at_counts_that_start_off_centre(tmp_path, nx0, levels):
    # 18 points have no x = 0 row; at 19 the coarsest grid's x = 0 is its row 9, which is
    # not among the even points of its error estimate
    assert run_cli("residual", "--nx0", str(nx0), "--levels", str(levels),
                   "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "residual.json").read_text())
    assert [(lev["nx"], lev["nt"]) for lev in report["levels"]] == [
        ((nx0 - 1) * 2 ** k + 1, 16 * 2 ** k + 1) for k in range(levels)]
    for lev in report["levels"]:
        assert all(map(math.isfinite, lev["sup"] + lev["l2"] + [lev["fd_error_estimate"]]))
        assert not lev["at_interpolation_floor"]
    if levels > 1:
        assert report["fitted_order"] == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("argv, t", [(("localize", "--xmax", "1.7e308"), "200"),
                                     (("residual", "--xmax", "1e308"), "10")])
def test_xmax_above_half_the_float_range_is_an_outer_window_error(tmp_path, argv, t):
    # the grid once formed 2 xmax, which is inf: localize warned and then named
    # "xmax = nan", residual exited 3 with a false "x grid must be uniform"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "shearlab.cli", *argv,
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "RangeError"
    assert error["message"].startswith(f"xmax = {float(argv[2]):g} reaches xi = ")
    assert f" by t = {t}, beyond the outer validity window" in error["message"]
    assert not list(tmp_path.iterdir())


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
# a table too large for the per-element path: the first write in NumPy builds the tables
_csvio.write_csv(sys.argv[1], {"x": [0.1] * _csvio._SMALL_CELLS})
seen["tables_after_write"] = _csvio._tables.cache_info().currsize
print(json.dumps(seen))
"""


def test_cli_start_builds_no_float_tables(tmp_path):
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "x.csv")],
                          env=_cli_env(), capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"tables_built": 0, "imported": [], "tables_after_write": 1}


def test_cli_start_loads_no_polynomial_module_or_scipy():
    # setup time: the orbit's Gauss-Legendre nodes come from numpy.linalg, which
    # numpy loads anyway, and SciPy only from inside the simulator
    probe = ("import json, sys\nimport shearlab.cli as cli\ncli.build_parser()\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m.startswith('numpy.polynomial'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_cli_env(), capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


MODULES_PROBE = """
import json, sys
from shearlab.cli import build_parser, main

if sys.argv[2:] == ["parser"]:
    build_parser()
elif main([*sys.argv[2:], "--out-dir", sys.argv[1]]) != 0:
    raise SystemExit(f"{sys.argv[2:]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "shearlab")))
"""


OWN_MODULES = [
    (("parser",), ()),
    (("uniform-shear",), ()),
    (("spectrum",), ("stability",)),
    (("modes",), ("_magnus", "stability")),
    (("energy",), ("_magnus", "stability")),
    (("heteroclinic", "--sigma0", "1.3"), ("_magnus", "orbit")),
    (("profile",), ("_magnus", "orbit", "profile")),
    (("localize",), ("_magnus", "localization", "orbit", "profile")),
    (("residual", "--levels", "2"), ("_magnus", "localization", "orbit", "profile")),
    # the energy weight of the run is material's closed form, not stability's certificate
    (("simulate", "--N", "32", "--t-end", "1", "--frames", "2"), ("pdesim",)),
]


@pytest.mark.parametrize("argv, own", OWN_MODULES, ids=[argv[0] for argv, _ in OWN_MODULES])
def test_each_call_loads_only_its_own_modules(tmp_path, argv, own):
    # start-up: a fresh process loads the base modules and those its subcommand runs
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, str(tmp_path), *argv],
                          env=_cli_env(), capture_output=True, text=True, timeout=300,
                          check=True)
    base = ("", "._csvio", ".cli", ".errors", ".material")
    assert json.loads(proc.stdout.splitlines()[-1]) == sorted(
        [f"shearlab{m}" for m in base] + [f"shearlab.{m}" for m in own])


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


# SciPy's LSODA never returns on a span from t = 0 below about 1e-151: run in a
# subprocess, so that a regression fails rather than hangs
@pytest.mark.parametrize("argv, message", [
    (("--kappa", "1e-310"), None),
    (("--n", "1e-310"), "energy weight A = inf at n = 1e-310, alpha = 0.5 is not a finite float"),
], ids=["kappa-1e-310", "n-1e-310"])
def test_simulate_needs_only_its_energy_weight_finite(tmp_path, capsys, argv, message):
    # the run weights its energy by A alone; at kappa = 1e-310 it once exited 3 on the
    # certificate's B = inf, and an A that overflows still fails it
    code = run_cli("simulate", "--init", "uniform", *argv, "--N", "32", "--t-end", "1",
                   "--frames", "3", "--out-dir", str(tmp_path))
    if message is None:
        assert code == 0
        meta, _ = read_csv(tmp_path / "simulate_diagnostics.csv")
        assert meta["energy_weight_A"] == "9.8301812369796124"   # the metastability golden's
        assert float(meta["energy_weight_A"]) == energy_weight(0.05, 0.5)
    else:
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {"error": "RangeError", "message": message}
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("via", ["flag", "config"])
def test_tiny_t_end_is_usage_error(tmp_path, via):
    if via == "flag":
        argv = ["--t-end", "1e-152"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 1e-152}))
        argv = ["--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", "simulate", "--N", "16",
                           "--frames", "2", *argv, "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "must be finite and >= 1e-100, got 1e-152" in proc.stderr
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("sigma0", ["1e100", "1e150"])
def test_overflowing_endpoint_fits_are_numerical_failure(tmp_path, sigma0):
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", "profile", "--sigma0", sigma0,
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {
        "error": "RangeError", "message": f"endpoint fits overflow at sigma0 = {float(sigma0):.3e}"}
    assert "DLASCL" not in proc.stdout + proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sigma0", ["1e300", "1e-300", "1e306"])
@pytest.mark.parametrize("cmd", ["profile", "localize", "residual"])
def test_extreme_sigma0_is_rejected_before_any_output(tmp_path, cmd, sigma0):
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", cmd, "--sigma0", sigma0,
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "RangeError", "message": f"sigma0 = {float(sigma0):.3e} is outside "
        "[1e-150, 1e+150], where the profile and its residuals stay finite"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, grid, norm", [
    (("residual", "--tmax", "1e-300"), "(hx = 3.125e-01, ht = 6.250e-302)", "l2"),
    (("residual", "--xmax", "1e-300"), "(hx = 6.250e-302, ht = 6.250e-01)", "sup"),
    (("localize", "--tmax", "1e-200"), "(hx = 3.125e-01, ht = 6.250e-202)", "l2"),
    (("localize", "--xmax", "1e-300"), "(hx = 6.250e-302, ht = 6.250e-01)", "sup")])
def test_nonfinite_residual_norm_is_numerical_failure(tmp_path, argv, grid, norm):
    # a step near the bottom of the float range overflows the stencils' division; the
    # study once wrote Infinity into its JSON, with RuntimeWarnings, and exited 0
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "shearlab.cli", *argv,
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "RangeError", "message": f"residual study on the 33x17 grid {grid}: "
        f"the momentum residual's {norm} is inf, not a finite float"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cmd", ["localize", "residual"])
def test_outer_window_error_names_sigma0_and_xmax(tmp_path, cmd):
    # the profile's outer end xi_max scales with sigma0, so x = xmax leaves its window
    proc = subprocess.run([sys.executable, "-m", "shearlab.cli", cmd, "--sigma0", "1e-100",
                           "--out-dir", str(tmp_path)], env=_cli_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "RangeError"
    assert "sigma0 = 1.000e-100" in error["message"] and "xmax = 5 " in error["message"]
    assert not list(tmp_path.iterdir())


# at these sigma0 the window's edge (1e8 xi_max, xi_max proportional to sigma0)
# lies where x = 5 reaches xi = 1.581 at t = 0, 1.592 at t = 10 and 1.753 at t = 200
@pytest.mark.parametrize("sigma0, frames, t", [
    ("5.6e-12", "9", "200"),    # the table's last frame
    ("5.6e-12", "1", None),     # crossed after t = 10 only: no evaluated point is outside
    ("5.34e-12", "1", "10"),    # the residual study's last time, min(tmax, 10)
    ("5e-12", "1", "0"),        # the table of one frame, at t = 0
])
def test_outer_window_is_checked_at_the_evaluated_points(tmp_path, capsys, sigma0, frames, t):
    code = run_cli("localize", "--sigma0", sigma0, "--frames", frames, "--out-dir", str(tmp_path))
    if t is None:
        assert code == 0
        return
    assert code == 3
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("xmax = 5 reaches xi = ") and f" by t = {t}, beyond" in message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cmd, nu", [("heteroclinic", "--nu"), ("localize", "--lambda")])
def test_stiff_orbit_needs_no_body(tmp_path, cmd, nu):
    # lambda2 = 2e5: the two series overlap, so no body step runs where a
    # first trial step from a junction 1e-2 from Q once reached b <= 0
    code = run_cli(cmd, "--n", "0.01", "--alpha", "20", nu, "0.01", "--eps", "1e-3",
                   "--out-dir", str(tmp_path))
    assert code == 0
    if cmd == "heteroclinic":
        meta, _ = read_csv(tmp_path / "heteroclinic.csv")
        assert meta["body_steps"] == "0" and float(meta["junction_gap"]) <= 1e-11


@pytest.mark.parametrize("argv", [
    ("--n", "0.01982", "--alpha", "0.02816", "--nu", "2.438"),   # a head of s = 570
    ("--n", "0.109", "--alpha", "0.01717", "--nu", "4.739"),     # lambda2 = 10.2
], ids=["slow-saddle", "slow-saddle-to-the-node"])
def test_slow_saddle_heteroclinic_exits_0(tmp_path, argv):
    # mu_s = -0.023 and -8.1e-3: the saddle heads alone once took most of s = 400
    assert run_cli("heteroclinic", *argv, "--out-dir", str(tmp_path)) == 0
    meta, data = read_csv(tmp_path / "heteroclinic.csv")
    assert int(meta["body_steps"]) > 0 and np.all(np.diff(data["a"]) > 0)


@pytest.mark.parametrize("init", ["gaussian-bump", "from-file"])
def test_simulate_snapshots_equal_the_per_frame_states(tmp_path, init):
    from shearlab.pdesim import FieldState, SimConfig, _solve

    N, t_end, frames = 64, 5.0, 5
    init_path = None
    if init == "from-file":
        # a start whose wall velocity v(0) = 0.1 differs from the plate's 0
        x = np.linspace(0.0, 1.0, N + 1)
        init_path = str(tmp_path / "init.npz")
        np.savez(init_path, v=0.1 + 0.9 * x, theta=-4.0 + 0.1 * np.exp(-50.0 * (x - 0.5) ** 2))
    config = SimConfig(N=N, t_end=t_end, frames=frames, init=init, init_path=init_path)
    argv = ["--N", str(N), "--t-end", str(t_end), "--frames", str(frames), "--init", init]
    assert run_cli("simulate", *argv, *(["--init-path", init_path] if init_path else []),
                   "--out-dir", str(tmp_path / "run")) == 0

    params = config.material()
    state0 = config.initial_state()
    t, v, theta = _solve(state0, params, np.linspace(0.0, t_end, frames)[1:],
                         config.rtol, config.atol)
    states = [state0] + [FieldState(state0.grid, float(ti), vi, thi)
                         for ti, vi, thi in zip(t, v, theta)]
    rows = [(np.full(N + 1, st.t), st.grid.x, st.v, st.strain_rate(), st.theta,
             st.stress(params)) for st in states]
    write_csv(tmp_path / "expected.csv",
              {k: np.concatenate(c) for k, c in
               zip(("t", "x", "v", "u", "theta", "sigma"), zip(*rows))},
              {k: getattr(config, k) for k in ("n", "alpha", "kappa", "theta0", "N")})
    got = (tmp_path / "run" / "simulate_snapshots.csv").read_bytes()
    assert got == (tmp_path / "expected.csv").read_bytes()
    _, data = read_csv(tmp_path / "run" / "simulate_snapshots.csv")
    wall = data["v"][::N + 1]
    assert wall[0] == (0.1 if init == "from-file" else 0.0) and np.all(wall[1:] == 0.0)


FLOAT_PARAMS = [(cmd, prm.key, prm.flag or "--" + prm.key.replace("_", "-"))
                for cmd, (_, params, _) in COMMANDS.items() for prm in params
                if prm.kind.__name__ == "float"]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("cmd, key, flag", FLOAT_PARAMS)
def test_nonfinite_float_is_usage_error(tmp_path, cmd, key, flag, value, via):
    if via == "flag":
        argv = [f"{flag}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))    # NaN / Infinity, as json writes them
        argv = ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd, *argv, "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.manifest.json"))
