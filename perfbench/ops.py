"""Seeded op lists for the three workloads, and the output check of each op.

An op is one call of the public CLI entry point, ``shearlab.cli.main(argv)``.
A pass is the fixed sequence of ops a workload repeats; the seed draws the
argv of every op of every pass, and the program sees only those argv.

The checks read the files the CLI wrote with a CSV reader of their own, so
that a change to the program's writer and reader together cannot hide a
wrong output.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

WORKLOADS = ("localize", "simulate", "stability")

LOCALIZATION_CONFIG = "configs/localization.json"
METASTABILITY_CONFIG = "configs/metastability.json"
GOLDEN_DIR = "tests/golden"

# the acceptance sweep of the heteroclinic orbits: (n, alpha, lambda)
SWEEP = tuple((n, alpha, lam) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
              for lam in (0.05, 0.1, 0.5))
# the showcase point of configs/localization.json
SHOWCASE = {"n": "0.1", "alpha": "0.5", "lam": "0.1", "sigma0": "1.88", "theta0": "10"}

RESIDUAL_SUP_MAX = 1e-6   # finest-level space-time residual of a localizing solution
GOLDEN_RTOL = 1e-12       # the rule of the golden tests in tests/test_cli.py


class CheckFailed(Exception):
    """An op exited 0 but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (without ``--out-dir``) and the checks of its output.

    Each check takes the output directory and raises CheckFailed.
    """

    argv: tuple[str, ...]
    checks: tuple[Callable[[Path], None], ...]

    @property
    def kind(self) -> str:
        return self.argv[0]


def passes(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless, seed-determined sequence of passes of a workload."""
    make = {"localize": _localize_pass, "simulate": _simulate_pass,
            "stability": _stability_pass}[workload]
    rng = np.random.default_rng(seed)
    streams = {}

    def draw(name: str, *ranges) -> list[str]:
        if name not in streams:
            streams[name] = _stratified(rng, ranges)
        return [f"{v:.4f}" for v in next(streams[name])]

    while True:
        yield make(rng, draw)


def _stratified(rng, ranges, strata: int = 4) -> Iterator[np.ndarray]:
    """Uniform points of the box ``ranges``; each run of strata**d points has one per cell.

    The op cost depends on the drawn values (the energy op's RHS calls by 2.5x
    over the stability box, with jumps where a mode changes integrator), so
    covering the grid cells in turn keeps one seed's mean cost close to the
    next seed's.
    """
    lo = np.array([r[0] for r in ranges])
    width = (np.array([r[1] for r in ranges]) - lo) / strata
    cells = np.array(list(itertools.product(range(strata), repeat=len(ranges))))
    while True:
        for cell in rng.permutation(cells):
            yield lo + (cell + rng.uniform(size=len(ranges))) * width


# --- workload passes ---


def _localize_pass(rng, draw) -> list[Op]:
    s = SHOWCASE
    ops = [Op(("localize", "--config", LOCALIZATION_CONFIG),
              (_check_localize, partial(_check_golden, "localize_diagnostics.csv",
                                        "localization_diagnostics.csv")))]
    for i in rng.permutation(len(SWEEP)):
        n, alpha, lam = SWEEP[i]
        ops.append(Op(("localize", "--n", str(n), "--alpha", str(alpha),
                       "--lambda", str(lam), "--sigma0", *draw("sigma0", (1.0, 2.5))),
                      (_check_localize,)))
    ops.append(Op(("profile", "--n", s["n"], "--alpha", s["alpha"], "--nu", s["lam"],
                   "--sigma0", s["sigma0"]), (_check_profile,)))
    ops.append(Op(("residual", "--n", s["n"], "--alpha", s["alpha"], "--lambda", s["lam"],
                   "--sigma0", s["sigma0"], "--theta0", s["theta0"]),
                  (partial(_check_residual_json, "residual.json"),)))
    return ops


def _simulate_pass(rng, draw) -> list[Op]:
    ops = [Op(("simulate", "--config", METASTABILITY_CONFIG),
              (partial(_check_snapshot_rows, 101, 512),
               partial(_check_golden, "simulate_diagnostics.csv",
                       "metastability_diagnostics.csv")))]
    for N in (2048, 8192):
        center, amplitude = draw(f"bump{N}", (0.4, 0.6), (0.05, 0.1))
        ops.append(Op(("simulate", "--config", METASTABILITY_CONFIG, "--N", str(N),
                       "--frames", "11", "--center", center, "--amplitude", amplitude),
                      (partial(_check_snapshot_rows, 11, N), _check_metastable)))
    return ops


def _stability_pass(rng, draw) -> list[Op]:
    theta0, k = draw("theta0,k", (-1.0, 1.0), (0.01, 0.2))
    n, alpha = "0.05", "0.5"
    return [
        Op(("energy", "--n", n, "--alpha", alpha, "--kappa", k, "--theta0", theta0,
            "--jmodes", "1,2,3"), (_check_energy,)),
        Op(("modes", "--n", n, "--alpha", alpha, "--kappa", k, "--theta0", theta0,
            "--j", "40", "--tau-end", "10"), (_check_modes,)),
        Op(("spectrum", "--n", "0.1", "--alpha", alpha, "--k", k, "--jmax", "4096"),
           (partial(_check_spectrum, 0.1, float(alpha), float(k), 4096),)),
        Op(("uniform-shear", "--alpha", alpha, "--theta0", theta0, "--tmax", "100",
            "--samples", "20001"),
           (partial(_check_uniform_shear, float(alpha), float(theta0), 20001),)),
    ]


# --- output checks ---


def read_csv(path: Path):
    """(metadata, column names, rows of strings) of a CSV with a '#' header."""
    meta, names, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append(line.split(","))
    if names is None:
        raise CheckFailed(f"{path.name}: no header row")
    return meta, names, rows


def _columns(path: Path):
    meta, names, rows = read_csv(path)
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return meta, {name: values[:, i] for i, name in enumerate(names)}


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_finite(path: Path) -> dict:
    meta, cols = _columns(path)
    for name, col in cols.items():
        _require(col.size > 0 and np.all(np.isfinite(col)),
                 f"{path.name}: column {name} is empty or not finite")
    return cols


def _check_golden(produced_name: str, golden_name: str, out: Path) -> None:
    produced = out / produced_name
    # read from the checkout under test, so a regenerated golden judges its own PR
    meta_p, names_p, rows_p = read_csv(produced)
    meta_g, names_g, rows_g = read_csv(Path(GOLDEN_DIR) / golden_name)
    _require(meta_p == meta_g, f"{produced.name}: metadata differs from the golden")
    _require(names_p == names_g and len(rows_p) == len(rows_g),
             f"{produced.name}: columns or row count differ from the golden")
    p, g = np.array(rows_p, dtype=float), np.array(rows_g, dtype=float)
    _require(np.allclose(p, g, rtol=GOLDEN_RTOL, atol=1e-300),
             f"{produced.name}: values differ from the golden beyond rtol {GOLDEN_RTOL}")


def _check_residual_json(name: str, out: Path) -> None:
    path = out / name
    report = json.loads(path.read_text())
    for level in report["levels"]:
        values = [*level["sup"], *level["l2"], level["fd_error_estimate"]]
        _require(all(math.isfinite(v) for v in values), f"{path.name}: non-finite residual")
    sup = max(report["levels"][-1]["sup"])
    _require(sup < RESIDUAL_SUP_MAX,
             f"{path.name}: finest residual sup {sup:.3e} >= {RESIDUAL_SUP_MAX}")


def _check_localize(out: Path) -> None:
    # the fitted convergence order is not checked: it reads 3.2-3.98 across the sweep
    for part in ("profile", "spacetime", "diagnostics"):
        _check_finite(out / f"localize_{part}.csv")
    _check_residual_json("localize_residual.json", out)


def _check_profile(out: Path) -> None:
    _check_finite(out / "profile.csv")
    report = json.loads((out / "profile_report.json").read_text())
    sup = max(report["residual_sup"])
    _require(sup < RESIDUAL_SUP_MAX, f"profile residual sup {sup:.3e} >= {RESIDUAL_SUP_MAX}")


def _check_snapshot_rows(frames: int, N: int, out: Path) -> None:
    lines = (out / "simulate_snapshots.csv").read_bytes().splitlines()
    rows = sum(1 for line in lines if line and not line.startswith(b"#")) - 1
    _require(rows == frames * (N + 1),
             f"simulate_snapshots.csv: {rows} rows, expected {frames} * ({N} + 1)")


def _check_metastable(out: Path) -> None:
    inhom = _check_finite(out / "simulate_diagnostics.csv")["inhomogeneity"]
    _require(inhom.max() > inhom[0] and inhom[-1] < inhom[0],
             "inhomogeneity does not rise and then fall below its initial value")


def _check_energy(out: Path) -> None:
    meta, _, _ = read_csv(out / "energy.csv")
    _require(meta.get("monotone_after_T") == "true", "energy: monotone_after_T is not true")


def _check_modes(out: Path) -> None:
    _check_finite(out / "modes.csv")


def _check_spectrum(n: float, alpha: float, k: float, jmax: int, out: Path) -> None:
    meta, _, rows = read_csv(out / "spectrum.csv")
    # mode j is unstable when the constant term n k x^2 - alpha x, x = (j pi)^2, is negative
    expected = sum(1 for j in range(1, jmax + 1) if n * k * (j * math.pi) ** 2 < alpha)
    _require(len(rows) == jmax + 1, f"spectrum: {len(rows)} rows, expected {jmax + 1}")
    _require(meta.get("num_unstable") == str(expected),
             f"spectrum: num_unstable {meta.get('num_unstable')}, expected {expected}")


def _check_uniform_shear(alpha: float, theta0: float, samples: int, out: Path) -> None:
    cols = _check_finite(out / "uniform_shear.csv")
    t, theta_s = cols["t"], cols["theta_s"]
    _require(t.size == samples, f"uniform_shear: {t.size} rows, expected {samples}")
    ref = np.log(alpha * t + math.exp(alpha * theta0)) / alpha
    # relative to 1e-12, with a floor of 1 where theta_s crosses zero (theta0 < 0)
    err = np.abs(theta_s - ref) / np.maximum(np.abs(ref), 1.0)
    _require(err.max() <= 1e-12, f"uniform_shear: theta_s off by {err.max():.2e} relative")
