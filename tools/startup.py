"""Time the fresh-process start-up of two source trees' CLI, alternating them.

    python3 tools/startup.py PARENT_TREE CHANGE_TREE [ROUNDS]

Each round times, in each tree, a fresh ``python3`` that imports ``shearlab.cli``
and builds its parser, then one ``python3 -m shearlab.cli`` call per subcommand
(its defaults; the showcase config for ``localize``, a cut-down ``simulate``).
The tree's ``src`` is on PYTHONPATH and the tree is the working directory; the
outputs go to a temporary directory.  One child runs at a time, and the tree
that goes first alternates between rounds (ROUNDS, default 10).  Prints, per
call, each tree's median wall time with its quartiles, the change of the
median and the rounds in which the change was faster.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CALLS = {"parser": ("-c", "import shearlab.cli as cli; cli.build_parser()")}
CALLS.update({cmd: ("-m", "shearlab.cli", cmd) for cmd in (
    "uniform-shear", "spectrum", "modes", "energy", "heteroclinic", "profile", "residual")})
CALLS["localize"] = ("-m", "shearlab.cli", "localize", "--config", "configs/localization.json")
CALLS["simulate"] = ("-m", "shearlab.cli", "simulate", "--N", "64", "--t-end", "5",
                     "--frames", "5")


def _wall(tree: Path, args, out: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, *args] + (["--out-dir", out] if args[0] == "-m" else [])
    start = perf_counter()
    subprocess.run(argv, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def main(parent: str, change: str, rounds: str = "10") -> None:
    trees = [Path(parent).resolve(), Path(change).resolve()]
    walls = {name: ([], []) for name in CALLS}
    with tempfile.TemporaryDirectory() as out:
        for r in range(int(rounds)):
            for name, args in CALLS.items():
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    walls[name][side].append(_wall(trees[side], args, out))
    print(f"{'call':<14} {'parent s [q1, q3]':>26} {'change s [q1, q3]':>26} {'median':>8} wins")
    for name, (a, b) in walls.items():
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{name:<14} {qa[1]:8.4f} [{qa[0]:.4f}, {qa[2]:.4f}] {qb[1]:8.4f} "
              f"[{qb[0]:.4f}, {qb[2]:.4f}] {qb[1] / qa[1] - 1:+8.1%} {wins}/{len(a)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
