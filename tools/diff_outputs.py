"""Compare the CLI outputs of two source trees, file by file.

    python3 tools/diff_outputs.py PARENT_TREE CHANGE_TREE

Runs a fixed set of CLI calls in each tree: every subcommand at its defaults,
the metastability config at full size and cut down, three stiff ``modes`` runs
(mode 1 to tau 100 and 600, mode 40 to 600), and the first pass of each
benchmark workload at seed 11 (argv from ``perfbench.ops.passes``).  Each call
is a fresh ``python3 -m shearlab.cli`` with the tree's ``src`` on PYTHONPATH
and the tree as working directory, writing into its own temporary directory.
The exit codes and every output file must be equal byte for byte; in the
manifests ``wall_seconds``, ``written_at`` and the output directory are
masked.  Prints one summary line and exits 1 on any difference.  A differing
CSV whose two versions have the same lines and fields is followed by the
largest relative shift |x - y| / max(|x|, |y|) of any numeric field, metadata
included, so a change that moves outputs at solver tolerance can quote it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.ops import WORKLOADS, passes  # noqa: E402

SEED = 11
METASTABILITY = ("simulate", "--config", "configs/metastability.json")
CALLS = [(cmd,) for cmd in ("uniform-shear", "spectrum", "modes", "energy", "heteroclinic",
                            "profile", "localize", "residual", "simulate")]
CALLS += [METASTABILITY, (*METASTABILITY, "--N", "64", "--t-end", "5", "--frames", "5")]
# stiff mode runs, where an integrator change moves the exit code first
STIFF = ("modes", "--n", "0.05", "--alpha", "0.5")
CALLS += [(*STIFF, "--kappa", "0.1", "--theta0", "0.3", "--j", "1", "--tau-end", "100"),
          (*STIFF, "--kappa", "0.1", "--theta0", "0.3", "--j", "1", "--tau-end", "600"),
          (*STIFF, "--kappa", "0.2", "--theta0", "1", "--j", "40", "--tau-end", "600")]
CALLS += [op.argv for workload in WORKLOADS for op in next(passes(workload, SEED))]


def _outputs(tree: Path, argv, out: Path) -> tuple[int, dict[str, bytes]]:
    """The exit code of one call in ``tree`` and its files, manifests masked."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    code = subprocess.run([sys.executable, "-m", "shearlab.cli", *argv, "--out-dir", str(out)],
                          cwd=tree, env=env, capture_output=True).returncode
    files = {}
    for path in sorted(out.rglob("*")):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data.decode().replace(str(out), "<out>"))
            manifest.update(wall_seconds=None, written_at=None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return code, files


def _fields(data: bytes) -> list[list[str]]:
    return [line.replace("=", ",").split(",") for line in data.decode().splitlines()]


def _largest_shift(a: bytes, b: bytes) -> str:
    """" (largest relative shift 3.1e-12)" for two CSVs of one shape, else ""."""
    rows_a, rows_b = _fields(a), _fields(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return ""
    shifts = [0.0]
    for x, y in zip(chain.from_iterable(rows_a), chain.from_iterable(rows_b)):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:   # a name, a header or "none"
            continue
        if x != y:   # nan when either is nan or infinite
            shifts.append(abs(x - y) / max(abs(x), abs(y)))
    return f" (largest relative shift {max(shifts, key=lambda v: (math.isnan(v), v)):.2g})"


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    trees = [Path(t).resolve() for t in argv]
    differ, count = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, call in enumerate(CALLS):
            (code_a, files_a), (code_b, files_b) = (
                _outputs(tree, call, Path(tmp, side, str(i)))
                for side, tree in zip(("parent", "change"), trees))
            count += len(files_a)
            if code_a != code_b:
                differ.append(f"{' '.join(call)}: exit {code_a} vs {code_b}")
            for name in sorted(files_a.keys() | files_b):
                a, b = files_a.get(name), files_b.get(name)
                if a != b:
                    shift = _largest_shift(a, b) if a and b and name.endswith(".csv") else ""
                    differ.append(f"{' '.join(call)}: {name}{shift}")
    print(f"{len(CALLS)} calls, {count} files: "
          + (f"{len(differ)} differ: " + "; ".join(differ) if differ else "all identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
