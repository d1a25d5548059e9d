"""Command-line interface: every analysis as a subcommand with CSV/JSON output.

Each subcommand is a table of parameters plus a compute-and-write body.  A value
comes from its flag, else the ``--config`` JSON (same validators, unknown keys
rejected), else the default; the resolved values are the manifest's
``parameters`` and, fed back as ``--config``, reproduce the run bit-for-bit.

Importing this module loads, of shearlab, only ``errors``, ``_csvio`` and ``material``;
a subcommand imports the computing modules it ``uses`` when it runs (``_LAZY``).  Each
subcommand's parser is built on its first call and kept for the process (``_parser``).

Exit codes: 0 success, 2 usage error, 3 numerical failure (error JSON on stderr).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._csvio import Indexed, write_csv, write_manifest
from .errors import ShearlabError, UnresolvedTailError
from .material import (MIN_SPAN, MIN_T_POINTS, MIN_X_POINTS, MaterialParams, SimSettings,
                       half_line, power_law_stress, uniform_shear, tau_of_t, t_of_tau)

# the names the bodies call, by computing module; run_sim is pdesim's run
_LAZY = {"stability": ("spectrum", "integrate_mode", "energy_certificate", "energy_decay_check"),
         "orbit": ("PlanarParams", "estimate_kappa1", "shoot_heteroclinic", "reparametrize"),
         "profile": ("reconstruct", "ode_residual", "endpoint_report"),
         "localization": ("LocalizedSolution", "band_diagnostics", "residual_convergence"),
         "pdesim": ("SimConfig", "run_sim")}


def _bind(module: str) -> None:
    """Bind here the names of ``module`` not bound yet (a tracer's stays), all at once."""
    source = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(source, "run" if name == "run_sim" else name))


def __getattr__(name):
    """A name of ``_LAZY``, bound on first use (PEP 562)."""
    module = next((m for m, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


class Param(NamedTuple):
    """One settable value: ``key`` is the config key, argparse dest and manifest key;
    ``kind`` converts and validates flag text and config values alike, and an int,
    bool or float kind takes only a JSON int, bool or number from the config
    (``bool`` makes a flag without a value); ``flag`` defaults to ``--key`` with
    ``-`` for ``_``."""

    key: str
    kind: Callable
    default: object
    flag: str | None = None


def _checked(kind, test, what):
    def convert(value):
        v = kind(value)
        if not test(v):
            raise argparse.ArgumentTypeError(f"must be {what}, got {v!r}")
        return v
    convert.__name__ = kind.__name__   # argparse names the type in "invalid ... value"
    return convert


def _ints(text) -> list[int]:
    return [int(j) for j in text.split(",") if j.strip()]


POS = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
FINITE = _checked(float, math.isfinite, "finite")
NONNEG = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
POS_INT = _checked(int, lambda v: v > 0, "> 0")
NONNEG_INT = _checked(int, lambda v: v >= 0, ">= 0")
INT_LIST = _checked(str, lambda t: min(_ints(t), default=0) > 0, "a comma list of positive ints")
# rows that several subcommands share
EPS_TOL = (Param("eps", _checked(float, lambda v: 0 < v <= 1e-3, "in (0, 1e-3]"), 1e-6),
           Param("tol", _checked(float, lambda v: 0 < v < 1, "in (0, 1)"), 1e-8))
MATERIAL = (Param("n", NONNEG, 0.05), Param("alpha", POS, 0.5), Param("kappa", NONNEG, 0.5),
            Param("theta0", FINITE, 0.0))
ORBIT = (Param("n", POS, 0.1), Param("alpha", POS, 0.5), Param("nu", POS, 0.1), *EPS_TOL)
SOLUTION = (Param("n", POS, 0.1), Param("alpha", POS, 0.5), Param("theta0", FINITE, 10.0),
            Param("lam", POS, 0.1, "--lambda"), Param("sigma0", POS, 1.88),
            Param("xmax", POS, 5.0))


def _at_least(low):
    return _checked(int, lambda v: v >= low, f">= {low}")


def _choice(*options):
    return _checked(str, lambda v: v in options, "one of " + ", ".join(options))


COMMANDS: dict[str, tuple] = {}


def command(name: str, help: str, *params: Param, uses: tuple[str, ...] = ()):
    """Register ``body(p, out) -> (output paths, summary line)`` as ``name``; it runs
    once the ``_LAZY`` names of the modules in ``uses``, which it calls, are bound.
    A body may fill in a value of ``p`` it derived, for the manifest to record."""
    def register(body):
        def run(p, out):
            for module in uses:
                _bind(module)
            return body(p, out)
        COMMANDS[name] = (help, params, run)
        return body
    return register


def _material(p) -> MaterialParams:
    return MaterialParams(**{k: p.get(k, 0.0) for k in ("n", "alpha", "kappa", "theta0")})


@command("uniform-shear", "tabulate the uniform shearing base state",
         Param("alpha", POS, 0.5), Param("theta0", FINITE, 0.0),
         Param("tmax", POS, 100.0), Param("samples", POS_INT, 201))
def _uniform_shear(p, out):
    params = _material(p)
    ts = np.linspace(0.0, p["tmax"], p["samples"])
    base = uniform_shear(params, ts)
    csv = Path(f"{out}.csv")
    write_csv(csv, {"t": ts, "theta_s": base.theta_s, "sigma_s": base.sigma_s,
                    "tau": tau_of_t(params, ts)},
              {"alpha": p["alpha"], "theta0": p["theta0"], "c0": params.c0})
    return [csv], f"c0={params.c0:.6g}"


_REGIMES = {(True, True): "hadamard", (True, False): "turing",
            (False, True): "rate-insensitive-diffusive", (False, False): "diffusive"}


@command("spectrum", "frozen-coefficient mode spectrum",
         Param("n", NONNEG, 0.1), Param("alpha", POS, 0.5), Param("k", NONNEG, 0.0),
         Param("jmax", POS_INT, 64), uses=("stability",))
def _spectrum(p, out):
    sp = spectrum(_material(p), p["k"], p["jmax"])
    regime = _REGIMES[(p["k"] == 0.0, p["n"] == 0.0)]
    csv = Path(f"{out}.csv")
    write_csv(csv, {k: getattr(sp, k)
                    for k in ("j", "lambda_minus", "lambda_plus", "classification")},
              {**p, "num_unstable": sp.num_unstable, "regime": regime})
    return [csv], f"num_unstable={sp.num_unstable} regime={regime}"


@command("modes", "integrate one perturbation mode in rescaled time",
         *MATERIAL, Param("j", NONNEG_INT, 1), Param("init_u", FINITE, 1.0),
         Param("init_theta", FINITE, 1.0), Param("tau_end", POS, 5.0),
         Param("frozen_k", NONNEG, None), uses=("stability",))
def _modes(p, out):
    params = _material(p)
    traj = integrate_mode(params, p["j"], (p["init_u"], p["init_theta"]), p["tau_end"],
                          frozen_k=p["frozen_k"])
    csv = Path(f"{out}.csv")
    meta = {k: p[k] for k in ("n", "alpha", "kappa", "theta0", "j")}
    write_csv(csv, {"tau": traj.taus, "t": t_of_tau(params, traj.taus), "u": traj.u,
                    "theta": traj.theta},
              {**meta, "frozen_k": p["frozen_k"], "method": traj.method,
               "slow_manifold_tau": traj.slow_manifold_tau})
    return [csv], f"method={traj.method}"


@command("energy", "energy certificate and decay check",
         *MATERIAL, Param("jmodes", INT_LIST, "1,2,3"), Param("tau_end", POS, None),
         uses=("stability",))
def _energy(p, out):
    params = _material(p)
    cert = energy_certificate(params) if p["kappa"] > 0 and p["n"] > 0 else None
    if p["tau_end"] is None:
        p["tau_end"] = float(1.2 * cert.tau_T if cert is not None and cert.tau_T > 0 else 5.0)
    modes = [(j, (1.0, 1.0)) for j in _ints(p["jmodes"])]
    report = energy_decay_check(params, cert, modes, p["tau_end"])
    csv = Path(f"{out}.csv")
    # all 0 when monotone_after_T is None (no certificate) or False (tail not monotone)
    after = report.taus >= report.tau_T if report.monotone_after_T else \
        np.zeros(report.taus.shape, dtype=bool)
    meta = {**{k: p[k] for k in ("n", "alpha", "kappa", "theta0")},
            "certificate_applicable": report.certificate_applicable,
            "E_end_over_E0": report.E_end_over_E0}
    if cert is not None:
        meta.update({"A": cert.A, "B": cert.B, "C_B": cert.C_B, "Cp": cert.Cp,
                     "T": cert.T, "tau_T": cert.tau_T,
                     "monotone_after_T": report.monotone_after_T})
    meta.update({f"slow_manifold_tau_{j}": tau for j, tau in report.slow_manifold_taus})
    write_csv(csv, {"tau": report.taus, "t": report.ts, "E": report.E,
                    "monotone_after_T": after.astype(int)}, meta)
    return [csv], ("certificate not applicable (needs kappa > 0 and n > 0)" if cert is None else
                   f"A={cert.A:.6g} B={cert.B:.6g} C_B={cert.C_B:.6g} T={cert.T:.6g} "
                   f"monotone_after_T={report.monotone_after_T}")


def _shoot(p, nu):
    """The planar parameters and their orbit; a failure's message names what, if
    anything, helps: a larger --eps for a long saddle head, a looser --tol for a
    body that runs to a = tol (where tol lies above the node series' reach)."""
    planar = PlanarParams(n=p["n"], alpha=p["alpha"], nu=nu)
    return planar, shoot_heteroclinic(planar, eps=p["eps"], tol=p["tol"])


def _profile_csv(prof, csv_path):
    write_csv(csv_path, {"xi": prof.xi, "U": prof.U, "Sigma": prof.Sigma, "Theta": prof.Theta},
              {"n": prof.p.n, "alpha": prof.p.alpha, "nu": prof.p.nu, "sigma0": prof.sigma0,
               "U0": prof.U0, "Theta0": prof.Theta0, "c_nu": prof.p.c_nu})


@command("heteroclinic", "shoot the heteroclinic orbit",
         *ORBIT, Param("sigma0", POS, None), uses=("orbit",))
def _heteroclinic(p, out):
    planar, orbit = _shoot(p, p["nu"])
    if p["sigma0"] is not None:
        orbit = reparametrize(orbit, p["sigma0"])
    try:
        kappa1 = estimate_kappa1(orbit)
    except UnresolvedTailError:   # kappa1 past the float range, where its log is not
        kappa1 = None
    csv = Path(f"{out}.csv")
    write_csv(csv, {"eta": orbit.eta, "a": orbit.a, "b": orbit.b},
              {"n": planar.n, "alpha": planar.alpha, "nu": planar.nu, "c_nu": planar.c_nu,
               "eta0": orbit.eta0, "kappa1": kappa1,
               **{k: getattr(orbit, k) for k in (
                   "saddle_junction", "saddle_terms", "saddle_truncation", "a_saddle",
                   "body_steps", "a_junction", "node_terms", "junction_gap")}})
    return [csv], f"samples={orbit.eta.size} kappa1={kappa1}"


@command("profile", "self-similar profile with residual report",
         *ORBIT, Param("sigma0", POS, 1.0), uses=("orbit", "profile"))
def _profile(p, out):
    planar, orbit = _shoot(p, p["nu"])
    prof = reconstruct(reparametrize(orbit, p["sigma0"]))
    xi = np.geomspace(max(1e-2, 2 * prof.xi_min), min(1e2, prof.xi_max / 2), 20001)
    res = ode_residual(prof, planar.nu, planar.n, planar.alpha, xi=xi)
    endpoints = endpoint_report(prof)   # before any file: the fits can fail
    csv, report_path = Path(f"{out}.csv"), Path(f"{out}_report.json")
    _profile_csv(prof, csv)
    report_path.write_text(json.dumps({
        "residual_sup": res.sup, "residual_l2": res.l2, "fd_error_estimate": res.fd_error_estimate,
        "grid_too_coarse": res.grid_too_coarse, "endpoints": vars(endpoints),
    }, indent=2) + "\n")
    return [csv, report_path], f"residual_sup={max(res.sup):.3e}"


def _solution(p, orbit):
    """The profile of ``orbit`` at ``sigma0`` and the localizing solution built on it."""
    prof = reconstruct(reparametrize(orbit, p["sigma0"]))
    return prof, LocalizedSolution(profile=prof, theta0=p["theta0"])


def _write_residual_study(path, reports, orders, order):
    """Write the JSON report of a space-time residual study to ``path``."""
    path.write_text(json.dumps({
        "levels": [{k: getattr(r, k) for k in ("nx", "nt", "sup", "l2", "fd_error_estimate",
                                               "at_interpolation_floor")} for r in reports],
        "orders": list(orders), "fitted_order": order,
    }, indent=2) + "\n")


@command("localize", "full localizing-solution pipeline",
         *SOLUTION, Param("tmax", POS, 200.0), Param("frames", POS_INT, 9),
         Param("nx", POS_INT, 401), *EPS_TOL, uses=("orbit", "profile", "localization"))
def _localize(p, out):
    xmax, tmax, nx = p["xmax"], p["tmax"], p["nx"]
    prof, sol = _solution(p, _shoot(p, p["lam"])[1])
    # everything is computed before the first file is written, so a failure (such as
    # evaluate's outer-window error) leaves none; the fields, even in x, on x >= 0 alone
    half = half_line(xmax, nx)[0]
    ts = np.linspace(0.0, tmax, p["frames"])
    fields = sol.evaluate(half[:, None], ts[None, :])
    diag = band_diagnostics(sol, ts[1:] if ts.size > 1 else np.array([tmax]))
    study = residual_convergence(sol, xmax=xmax, t_span=(0.0, min(tmax, 10.0)))
    paths = [Path(f"{out}_{name}") for name in (
        "profile.csv", "spacetime.csv", "diagnostics.csv", "residual.json")]
    _profile_csv(prof, paths[0])
    meta = {"n": p["n"], "alpha": p["alpha"], "theta0": p["theta0"], "lambda": p["lam"],
            "sigma0": p["sigma0"]}
    # frame-major rows on the half's mirror image (0 - x keeps +0), |x| a row of the fields
    at_x, at_t = np.tile(np.arange(nx), ts.size), np.repeat(np.arange(ts.size), nx)
    cell = np.abs(2 * at_x - (nx - 1)) // 2 * ts.size + at_t
    write_csv(paths[1], {"x": Indexed(np.concatenate((0.0 - half[::-1], half[nx % 2:])), at_x),
                         "t": Indexed(ts, at_t),
                         **{k: Indexed(f, cell) for k, f in zip(("u", "sigma", "theta"), fields)}},
              {**meta, "xmax": xmax, "tmax": tmax})
    write_csv(paths[2], vars(diag), meta)
    _write_residual_study(paths[3], *study)
    reports, _, order = study
    return paths, f"fitted_order={order:.3f} sup_residual={max(reports[-1].sup):.3e}"


@command("residual", "space-time residual convergence study",
         *SOLUTION, Param("tmax", POS, 10.0), Param("nx0", _at_least(MIN_X_POINTS), 33),
         Param("nt0", _at_least(MIN_T_POINTS), 17), Param("levels", POS_INT, 4), *EPS_TOL,
         uses=("orbit", "profile", "localization"))
def _residual(p, out):
    _, sol = _solution(p, _shoot(p, p["lam"])[1])
    study = residual_convergence(sol, xmax=p["xmax"], t_span=(0.0, p["tmax"]),
                                 nx0=p["nx0"], nt0=p["nt0"], levels=p["levels"])
    path = Path(f"{out}.json")
    _write_residual_study(path, *study)
    return [path], f"fitted_order={study[2]:.3f}"


@command("simulate", "direct nonlinear simulation",
         *(Param(key, kind, getattr(SimSettings, key)) for key, kind in (
             ("n", NONNEG), ("alpha", POS), ("kappa", NONNEG), ("theta0", FINITE),
             ("N", _at_least(16)),
             ("t_end", _checked(float, lambda v: math.isfinite(v) and v >= MIN_SPAN,
                                f"finite and >= {MIN_SPAN:g}")),
             ("frames", _at_least(2)),
             ("init", _choice("uniform", "gaussian-bump", "from-file")), ("center", FINITE),
             ("width", POS), ("amplitude", FINITE), ("noise_amp", FINITE), ("seed", int),
             ("init_path", _checked(str, lambda v: Path(v).is_file(), "an existing file")),
             ("rtol", POS), ("atol", NONNEG), ("log_frames", bool))), uses=("pdesim",))
def _simulate(p, out):
    config = SimConfig.from_dict(p)
    result = run_sim(config)
    params = config.material()
    x, u, theta = result.x, result.u, result.theta
    meta = {k: p[k] for k in ("n", "alpha", "kappa", "theta0", "N")}
    snaps, diag = Path(f"{out}_snapshots.csv"), Path(f"{out}_diagnostics.csv")
    # long format, frame-major; run has checked that every u is positive
    frames = result.times.size
    write_csv(snaps, {"t": Indexed(result.times, np.repeat(np.arange(frames), x.size)),
                      "x": Indexed(x, np.tile(np.arange(x.size), frames)),
                      "v": result.v, "u": u, "theta": theta,
                      "sigma": power_law_stress(params.alpha, params.n, theta, u)}, meta)
    write_csv(diag, {"t": result.times, "inhomogeneity": result.inhomogeneity,
                     "max_u": result.max_u, "mode1_u": result.mode1_u,
                     "mode1_theta": result.mode1_theta, "energy": result.energy},
              {**meta, "energy_weight_A": result.energy_weight_A})
    rise = result.inhomogeneity.max() / result.inhomogeneity[0] \
        if result.inhomogeneity[0] > 0 else float("nan")
    return [snaps, diag], f"inhomogeneity rise={rise:.3f} final={result.inhomogeneity[-1]:.3e}"


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; built once per process and shared, so not to be
    modified."""
    return _parser(tuple(COMMANDS))


# a flag value such as -2E-1 is a number, not an option; argparse's own pattern
# (in 3.11, ^-\d+$|^-\d*\.\d+$) has no exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser with the subparsers of ``names`` only; its usage and error
    text name all the subcommands, as the full parser's do.  Parsing leaves a
    parser as it was, so each is built once per process and reused."""
    ap = argparse.ArgumentParser(prog="shearlab", description="Shear-band stability analysis, "
                                 "exact localizing solutions, and direct nonlinear simulation")
    ap.add_argument("--version", action="version", version=f"shearlab {__version__}")
    # the full parser leaves the metavar unset, so that "required: command" names the dest
    metavar = None if len(names) == len(COMMANDS) else "{%s}" % ",".join(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, params, _ = COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        for key, kind, _, flag in params:
            flag = flag or "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, **(
                {"action": "store_const", "const": True} if kind is bool else {"type": kind}))
        sp.add_argument("--config", type=Path, help="JSON file of parameter values (flags win)")
        sp.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
        sp.add_argument("--prefix", help="output file prefix (default: subcommand name)")
        sp.set_defaults(usage_error=sp.error)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


# the JSON values a config may give a parameter of each kind: a float takes an integer too
_JSON_TYPES = {"int": ("int", (int,)), "bool": ("bool", (bool,)), "float": ("number", (int, float))}


def _resolve(args, params) -> dict:
    """Each parameter's flag, else its config value, else its default."""
    kinds = {prm.key: prm.kind for prm in params}
    config, key = {}, None
    try:
        if args.config is not None:
            config = dict(json.loads(args.config.read_text()))
        for key, value in config.items():
            if key not in kinds:
                raise ValueError("not a parameter of this subcommand")
            # kind(value) alone would truncate 4.7 to an int, take "false" as True
            # and take true or "0.05" as a float
            name, types = _JSON_TYPES.get(kinds[key].__name__, (None, None))
            if name and value is not None and type(value) not in types:
                raise ValueError(f"must be a JSON {name}, got {json.dumps(value)}")
            config[key] = value if value is None else kinds[key](value)
    except (OSError, TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        args.usage_error(f"--config {args.config}" + (f": {key}" if key else "") + f": {exc}")
    return {prm.key: next((v for v in (getattr(args, prm.key), config.get(prm.key))
                           if v is not None), prm.default)
            for prm in params}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call builds only the subparser it runs; help, --version and errors get all
    names = (argv[0],) if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    args = _parser(names).parse_args(argv)
    _, params, body = COMMANDS[args.command]
    p = _resolve(args, params)
    t0 = time.perf_counter()
    out = args.out_dir / (args.prefix or args.command.replace("-", "_"))
    try:   # before any compute; a prefix a/b writes into out_dir/a
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        args.usage_error(f"cannot create the output directory {out.parent}: {exc.strerror}")
    try:
        outputs, summary = body(p, out)
        write_manifest(Path(f"{out}.manifest.json"), args.command, p, outputs,
                       tolerances={k: p[k] for k in ("eps", "tol", "rtol", "atol") if k in p},
                       seed=p.get("seed"), duration=time.perf_counter() - t0)
    except (ShearlabError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3
    print(summary)
    print("wrote " + " ".join(str(o) for o in outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
