"""Interleaved in-process A/B of two source trees' CLI on one benchmark workload.

    python3 tools/ab.py A_TREE B_TREE --workload W --passes N [--seed S]

Copies each tree's ``src/shearlab`` into a temporary directory as the packages
``shearlab_a`` and ``shearlab_b`` (the package imports itself only relatively),
imports both into this process, and runs the seeded passes of
``perfbench/ops.py`` through each tree's ``cli.main``: each pass through both
trees, the tree that goes first swapped every pass, after one untimed warm-up
pass each.  Every op must exit 0 and pass its checks.  Prints each tree's
median pass time and its first and third quartiles, the median of the
per-pass ratio B / A and the number of passes in which B was faster.  One
process: no threads, no subprocesses.  The ops' config and golden paths are
read from the repository holding this script.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import ops  # noqa: E402


def _load(tree: str, name: str, into: Path):
    """``cli`` of the tree's package, imported as the package ``name``."""
    shutil.copytree(Path(tree) / "src" / "shearlab", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = importlib.import_module(f"{name}.cli")
    if Path(cli.__file__).resolve().parent != (into / name).resolve():
        raise SystemExit(f"ab: {name}.cli came from {cli.__file__}")
    return cli


def _pass(main, pass_ops, out: Path) -> float:
    """The wall time of one pass of ``pass_ops`` through ``main``; each op is checked."""
    elapsed = 0.0
    for op in pass_ops:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = main([*op.argv, "--out-dir", str(out)])
            elapsed += perf_counter() - start
        if code != 0:
            raise SystemExit(f"ab: {' '.join(op.argv)} exited {code}")
        for check in op.checks:
            check(out)
    return elapsed


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_tree")
    ap.add_argument("b_tree")
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    trees = [str(Path(t).resolve()) for t in (args.a_tree, args.b_tree)]
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mains = [_load(t, f"shearlab_{s}", Path(tmp)).main for t, s in zip(trees, "ab")]
        out = Path(tmp) / "out"
        stream = ops.passes(args.workload, args.seed)
        warm = next(stream)
        for run in mains:
            _pass(run, warm, out)
        times = ([], [])
        for i in range(args.passes):
            pass_ops = next(stream)
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                times[side].append(_pass(mains[side], pass_ops, out))
    a, b = times
    sides = ", ".join(f"{side} {_quartiles(t)}" for side, t in zip("AB", times))
    print(f"{args.workload}, {args.passes} passes, seed {args.seed}: median pass {sides}, "
          f"ratio B/A {statistics.median(y / x for x, y in zip(a, b)):.4f}, "
          f"B faster in {sum(y < x for x, y in zip(a, b))}/{len(a)}")


def _quartiles(times) -> str:
    """The median of ``times`` in ms, with the first and third quartiles (the claim rule
    compares a gain with the distance between the parent's)."""
    q1, q2, q3 = (statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1
                  else times * 3)
    return f"{q2 * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f})"


if __name__ == "__main__":
    main()
