"""Command-line interface: every analysis as a subcommand with CSV/JSON output.

Each subcommand is a table of parameters plus a compute-and-write body.  A value
comes from its flag, else the ``--config`` JSON (same validators, unknown keys
rejected), else the default; the resolved values are the manifest's
``parameters`` and, fed back as ``--config``, reproduce the run bit-for-bit.

Exit codes: 0 success, 2 usage error, 3 numerical failure (error JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._csvio import write_csv, write_manifest
from .errors import ShearlabError
from .material import MaterialParams, ScalingParams, uniform_shear, tau_of_t, t_of_tau
from .stability import spectrum, integrate_mode, energy_certificate, energy_decay_check
from .orbit import PlanarParams, shoot_heteroclinic, reparametrize
from .profile import reconstruct, ode_residual, endpoint_report
from .localization import LocalizedSolution, residual_convergence, band_diagnostics
from .pdesim import SimConfig, run as run_sim


class Param(NamedTuple):
    """One settable value: ``key`` is the config key, argparse dest and manifest key;
    ``kind`` converts and validates flag text and config values alike (``bool``
    makes a flag without a value); ``flag`` defaults to ``--key`` with ``-`` for ``_``."""

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


POS = _checked(float, lambda v: v > 0, "> 0")
FINITE = _checked(float, math.isfinite, "finite")
NONNEG = _checked(float, lambda v: v >= 0, ">= 0")
POS_INT = _checked(int, lambda v: v > 0, "> 0")
NONNEG_INT = _checked(int, lambda v: v >= 0, ">= 0")
INT_LIST = _checked(str, lambda t: min(_ints(t), default=0) > 0, "a comma list of positive ints")
# rows that several subcommands share
EPS_TOL = (Param("eps", _checked(float, lambda v: 0 < v <= 1e-3, "in (0, 1e-3]"), 1e-6),
           Param("tol", POS, 1e-8))
MATERIAL = (Param("n", NONNEG, 0.05), Param("alpha", POS, 0.5), Param("kappa", NONNEG, 0.5),
            Param("theta0", FINITE, 0.0))
ORBIT = (Param("n", POS, 0.1), Param("alpha", POS, 0.5), Param("nu", POS, 0.1), *EPS_TOL)
SOLUTION = (Param("n", POS, 0.1), Param("alpha", POS, 0.5), Param("theta0", float, 10.0),
            Param("lam", POS, 0.1, "--lambda"), Param("sigma0", POS, 1.88),
            Param("xmax", POS, 5.0))


def _choice(*options):
    return _checked(str, lambda v: v in options, "one of " + ", ".join(options))


COMMANDS: dict[str, tuple] = {}


def command(name: str, help: str, *params: Param):
    """Register ``body(p, out) -> (output paths, summary line)`` as ``name``;
    a body may fill in a value of ``p`` it derived, for the manifest to record."""
    def register(body):
        COMMANDS[name] = (help, params, body)
        return body
    return register


def _material(p) -> MaterialParams:
    return MaterialParams(**{k: p.get(k, 0.0) for k in ("n", "alpha", "kappa", "theta0")})


@command("uniform-shear", "tabulate the uniform shearing base state",
         Param("alpha", POS, 0.5), Param("theta0", float, 0.0),
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
         Param("jmax", POS_INT, 64))
def _spectrum(p, out):
    sp = spectrum(_material(p), p["k"], p["jmax"])
    regime = _REGIMES[(p["k"] == 0.0, p["n"] == 0.0)]
    csv = Path(f"{out}.csv")
    write_csv(csv, {k: [getattr(m, k) for m in sp.modes]
                    for k in ("j", "lambda_minus", "lambda_plus", "classification")},
              {**p, "num_unstable": sp.num_unstable, "regime": regime})
    return [csv], f"num_unstable={sp.num_unstable} regime={regime}"


@command("modes", "integrate one perturbation mode in rescaled time",
         *MATERIAL, Param("j", NONNEG_INT, 1), Param("init_u", FINITE, 1.0),
         Param("init_theta", FINITE, 1.0), Param("tau_end", POS, 5.0),
         Param("frozen_k", NONNEG, None))
def _modes(p, out):
    params = _material(p)
    traj = integrate_mode(params, p["j"], (p["init_u"], p["init_theta"]), p["tau_end"],
                          frozen_k=p["frozen_k"])
    csv = Path(f"{out}.csv")
    meta = {k: p[k] for k in ("n", "alpha", "kappa", "theta0", "j")}
    write_csv(csv, {"tau": traj.taus, "t": t_of_tau(params, traj.taus), "u": traj.u,
                    "theta": traj.theta},
              {**meta, "frozen_k": "none" if p["frozen_k"] is None else p["frozen_k"],
               "method": traj.method})
    return [csv], f"method={traj.method}"


@command("energy", "energy certificate and decay check",
         *MATERIAL, Param("jmodes", INT_LIST, "1,2,3"), Param("tau_end", POS, None))
def _energy(p, out):
    params = _material(p)
    cert = energy_certificate(params) if p["kappa"] > 0 and p["n"] > 0 else None
    if p["tau_end"] is None:
        p["tau_end"] = float(1.2 * cert.tau_T if cert is not None and cert.tau_T > 0 else 5.0)
    modes = [(j, (1.0, 1.0)) for j in _ints(p["jmodes"])]
    report = energy_decay_check(params, cert, modes, p["tau_end"])
    csv = Path(f"{out}.csv")
    # monotone_after_T is None exactly when there is no tau_T
    after = report.taus >= report.tau_T if report.monotone_after_T else \
        np.zeros(report.taus.shape, dtype=bool)
    meta = {**{k: p[k] for k in ("n", "alpha", "kappa", "theta0")},
            "certificate_applicable": report.certificate_applicable,
            "E_end_over_E0": report.E_end_over_E0}
    if cert is not None:
        meta.update({"A": cert.A, "B": cert.B, "C_B": cert.C_B, "Cp": cert.Cp,
                     "T": cert.T, "tau_T": cert.tau_T,
                     "monotone_after_T": report.monotone_after_T})
    write_csv(csv, {"tau": report.taus, "t": report.ts, "E": report.E,
                    "monotone_after_T": after.astype(int)}, meta)
    return [csv], ("certificate not applicable (needs kappa > 0 and n > 0)" if cert is None else
                   f"A={cert.A:.6g} B={cert.B:.6g} C_B={cert.C_B:.6g} T={cert.T:.6g} "
                   f"monotone_after_T={report.monotone_after_T}")


def _shoot(p, nu):
    planar = PlanarParams(n=p["n"], alpha=p["alpha"], nu=nu)
    try:
        return planar, shoot_heteroclinic(planar, eps=p["eps"], tol=p["tol"])
    except ShearlabError as exc:
        raise type(exc)(f"{exc}; try reducing --eps or loosening --tol") from exc


def _profile_csv(prof, csv_path):
    write_csv(csv_path, {"xi": prof.xi, "U": prof.U, "Sigma": prof.Sigma, "Theta": prof.Theta},
              {"n": prof.p.n, "alpha": prof.p.alpha, "nu": prof.p.nu, "sigma0": prof.sigma0,
               "U0": prof.U0, "Theta0": prof.Theta0, "c_nu": prof.p.c_nu})


@command("heteroclinic", "shoot the heteroclinic orbit",
         *ORBIT, Param("sigma0", POS, None))
def _heteroclinic(p, out):
    planar, orbit = _shoot(p, p["nu"])
    if p["sigma0"] is not None:
        orbit = reparametrize(orbit, p["sigma0"])
    csv = Path(f"{out}.csv")
    write_csv(csv, {"eta": orbit.eta, "a": orbit.a, "b": orbit.b},
              {"n": planar.n, "alpha": planar.alpha, "nu": planar.nu, "c_nu": planar.c_nu,
               "eta0": orbit.eta0, "kappa1": "none" if orbit.kappa1 is None else orbit.kappa1})
    return [csv], f"samples={orbit.eta.size} kappa1={orbit.kappa1}"


@command("profile", "self-similar profile with residual report",
         *ORBIT, Param("sigma0", POS, 1.0))
def _profile(p, out):
    planar, orbit = _shoot(p, p["nu"])
    prof = reconstruct(reparametrize(orbit, p["sigma0"]))
    csv = Path(f"{out}.csv")
    _profile_csv(prof, csv)
    xi = np.geomspace(max(1e-2, 2 * prof.xi_min), min(1e2, prof.xi_max / 2), 20001)
    res = ode_residual(prof, planar.nu, planar.n, planar.alpha, xi=xi)
    report_path = Path(f"{out}_report.json")
    report_path.write_text(json.dumps({
        "residual_sup": res.sup, "residual_l2": res.l2, "fd_error_estimate": res.fd_error_estimate,
        "grid_too_coarse": res.grid_too_coarse, "endpoints": vars(endpoint_report(prof)),
    }, indent=2) + "\n")
    return [csv, report_path], f"residual_sup={max(res.sup):.3e}"


def _solution(p, orbit):
    """The profile of ``orbit`` at ``sigma0`` and the localizing solution built on it."""
    prof = reconstruct(reparametrize(orbit, p["sigma0"]))
    scaling = ScalingParams(lam=p["lam"], sigma0=p["sigma0"])
    return prof, LocalizedSolution(params=_material(p), scaling=scaling, profile=prof)


def _residual_study(sol, path, **kwargs):
    """Run the space-time residual study on ``sol``; write its JSON report to ``path``."""
    reports, orders, order = residual_convergence(sol, **kwargs)
    path.write_text(json.dumps({
        "levels": [{k: getattr(r, k) for k in ("nx", "nt", "sup", "l2", "fd_error_estimate",
                                               "at_interpolation_floor")} for r in reports],
        "orders": list(orders), "fitted_order": order,
    }, indent=2) + "\n")
    return reports, order


@command("localize", "full localizing-solution pipeline",
         *SOLUTION, Param("tmax", POS, 200.0), Param("frames", POS_INT, 9),
         Param("nx", POS_INT, 401), *EPS_TOL)
def _localize(p, out):
    prof, sol = _solution(p, _shoot(p, p["lam"])[1])
    paths = [Path(f"{out}_{name}") for name in (
        "profile.csv", "spacetime.csv", "diagnostics.csv", "residual.json")]
    _profile_csv(prof, paths[0])
    xmax, tmax = p["xmax"], p["tmax"]
    x = np.linspace(-xmax, xmax, p["nx"])
    ts = np.linspace(0.0, tmax, p["frames"])
    u, sigma, theta = (np.concatenate(c) for c in zip(*(sol.evaluate(x, t) for t in ts)))
    meta = {"n": p["n"], "alpha": p["alpha"], "theta0": p["theta0"], "lambda": p["lam"],
            "sigma0": p["sigma0"]}
    write_csv(paths[1], {"x": np.tile(x, ts.size), "t": np.repeat(ts, x.size),
                         "u": u, "sigma": sigma, "theta": theta},
              {**meta, "xmax": xmax, "tmax": tmax})
    diag = band_diagnostics(sol, ts[1:] if ts.size > 1 else np.array([tmax]))
    write_csv(paths[2], vars(diag), meta)
    reports, order = _residual_study(sol, paths[3], x_span=(-xmax, xmax),
                                     t_span=(0.0, min(tmax, 10.0)))
    return paths, f"fitted_order={order:.3f} sup_residual={max(reports[-1].sup):.3e}"


@command("residual", "space-time residual convergence study",
         *SOLUTION, Param("tmax", POS, 10.0), Param("nx0", POS_INT, 33),
         Param("nt0", POS_INT, 17), Param("levels", POS_INT, 4), *EPS_TOL)
def _residual(p, out):
    _, sol = _solution(p, _shoot(p, p["lam"])[1])
    path = Path(f"{out}.json")
    _, order = _residual_study(sol, path, x_span=(-p["xmax"], p["xmax"]), t_span=(0.0, p["tmax"]),
                               nx0=p["nx0"], nt0=p["nt0"], levels=p["levels"])
    return [path], f"fitted_order={order:.3f}"


@command("simulate", "direct nonlinear simulation",
         *(Param(key, kind, getattr(SimConfig, key)) for key, kind in (
             ("n", NONNEG), ("alpha", POS), ("kappa", NONNEG), ("theta0", float),
             ("N", _checked(int, lambda v: v >= 16, ">= 16")),
             ("t_end", POS), ("frames", _checked(int, lambda v: v >= 2, ">= 2")),
             ("init", _choice("uniform", "gaussian-bump", "from-file")), ("center", float),
             ("width", POS), ("amplitude", float), ("noise_amp", float), ("seed", int),
             ("init_path", _checked(str, lambda v: Path(v).is_file(), "an existing file")),
             ("rtol", POS), ("atol", NONNEG), ("log_frames", bool))))
def _simulate(p, out):
    config = SimConfig.from_dict(p)
    result = run_sim(config)
    params = config.material()
    x = result.snapshots[0].grid.x
    meta = {k: p[k] for k in ("n", "alpha", "kappa", "theta0", "N")}
    snaps, diag = Path(f"{out}_snapshots.csv"), Path(f"{out}_diagnostics.csv")
    rows = [(np.full(x.size, st.t), x, st.v, st.strain_rate(), st.theta, st.stress(params))
            for st in result.snapshots]
    write_csv(snaps, {k: np.concatenate(c) for k, c in
                      zip(("t", "x", "v", "u", "theta", "sigma"), zip(*rows))}, meta)
    write_csv(diag, {"t": result.times, "inhomogeneity": result.inhomogeneity,
                     "max_u": result.max_u, "mode1_u": result.mode1_u,
                     "mode1_theta": result.mode1_theta, "energy": result.energy},
              {**meta, "energy_weight_A": result.energy_weight_A})
    rise = result.inhomogeneity.max() / result.inhomogeneity[0] \
        if result.inhomogeneity[0] > 0 else float("nan")
    return [snaps, diag], f"inhomogeneity rise={rise:.3f} final={result.inhomogeneity[-1]:.3e}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shearlab", description="Shear-band stability analysis, "
                                 "exact localizing solutions, and direct nonlinear simulation")
    ap.add_argument("--version", action="version", version=f"shearlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, params, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for key, kind, _, flag in params:
            flag = flag or "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, **(
                {"action": "store_const", "const": True} if kind is bool else {"type": kind}))
        sp.add_argument("--config", type=Path, help="JSON file of parameter values (flags win)")
        sp.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
        sp.add_argument("--prefix", help="output file prefix (default: subcommand name)")
        sp.set_defaults(usage_error=sp.error)
    return ap


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
            config[key] = value if value is None else kinds[key](value)
    except (OSError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        args.usage_error(f"--config {args.config}" + (f": {key}" if key else "") + f": {exc}")
    return {prm.key: next((v for v in (getattr(args, prm.key), config.get(prm.key))
                           if v is not None), prm.default)
            for prm in params}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, params, body = COMMANDS[args.command]
    p = _resolve(args, params)
    t0 = time.perf_counter()
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / (args.prefix or args.command.replace("-", "_"))
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
