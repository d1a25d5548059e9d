"""Compare the CLI outputs of two source trees, file by file, or of one tree and a record.

    python3 tools/diff_outputs.py PARENT_TREE CHANGE_TREE
    python3 tools/diff_outputs.py --record OUTPUTS.json TREE
    python3 tools/diff_outputs.py --against OUTPUTS.json TREE

Runs a fixed set of CLI calls in each tree: every subcommand at its defaults,
the metastability config at full size and cut down, four stiff ``modes`` runs
(mode 1 to tau 100 and 600, mode 40 to 600, and mode 40 to 10 from a start
off its slow manifold), an ``energy`` run whose k(0) is about 3e9, four runs
at lambda2 = 3, where the node series has no terms (``heteroclinic`` and
``localize``, each at its default tol and a coarse one), two ``heteroclinic``
runs with the longest orbit bodies (from a slow saddle, mu_s = -0.023, and
at lambda2 = 10.2), a ``residual`` study at the least grids with steps that
are not binary fractions (``--xmax 3.7 --tmax 7.1 --nx0 17 --nt0 9
--levels 3``), a ``localize`` at ``--sigma0 1e-4``, which evaluates most of
its grid past the orbit's last sample, nine calls at the edges of the grids'
half x >= 0 (``localize --nx`` 1, 2, 4 and 400, ``residual --nx0 18 --levels 1``
and ``--nx0 19 --levels 2``, and ``--xmax`` 1e-300, 1.7e308 and 1e308, which exit
3), six calls at the edges of the float
range (``heteroclinic --sigma0 1e306``, ``profile`` at lambda2 = 10.2, where
log kappa1 = 1721, ``heteroclinic --n 1e-300``, where m^2 overflows in the
saddle's eigenvalues, ``heteroclinic --alpha 1e300`` and ``--nu 1e-300``,
where the saddle series' Cramer products overflow, and ``simulate --kappa
1e-310``, whose energy certificate's B overflows), and the first pass of each
benchmark workload at seed 11 (argv from ``perfbench.ops.passes``).  Each call is a fresh ``python3 -m
shearlab.cli`` with the tree's ``src`` on PYTHONPATH and the tree as working
directory, writing into its own temporary directory.
The exit codes and every output file must be equal byte for byte; in the
manifests ``wall_seconds``, ``written_at`` and the output directory are
masked.  Prints one summary line and exits 1 on any difference.  A differing CSV whose two versions have the
same number of rows, or a differing JSON file whose two versions have the
same structure, is followed by its largest relative shift, so a change that
moves outputs at solver tolerance can quote it.  CSV metadata values are
matched by key and data columns by header name, and the keys and names that
only one version has are listed after the shift, as are those whose values
changed but are not all numbers (``none`` -> ``0.01``).  In a CSV data
column each shift |x - y| is taken over the largest |value| of that column in
either version, so entries near 0 do not set the figure; a metadata value or
a numeric JSON leaf stands alone and is taken over max(|x|, |y|).  A shift to
or from a value that is not finite reads nan; a value that is nan in both
versions is unchanged.

``--record`` runs the calls in one tree and writes, for each, its exit code
and, for each file, the SHA-256 of its masked bytes, the data row count of a
CSV and the pinned scalars that summarize a run: a CSV's ``kappa1`` metadata,
the first ``halfwidth`` of a diagnostics table and a report's
``fitted_order``.  The record also keeps the Python, NumPy and SciPy versions
and the CPU features NumPy dispatches on, since each can move a last bit.
``--against`` runs the calls again and compares them with the record: exit
codes, file names, digests, and for a file that differs its rows and pinned
scalars.  It prints one summary line and exits 1 on a difference, unless the
record was made under other versions or CPU features: then it prints those
too and exits 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.ops import WORKLOADS, passes  # noqa: E402

SEED = 11
METASTABILITY = ("simulate", "--config", "configs/metastability.json")
CALLS = [(cmd,) for cmd in ("uniform-shear", "spectrum", "modes", "energy", "heteroclinic",
                            "profile", "localize", "residual", "simulate")]
CALLS += [METASTABILITY, (*METASTABILITY, "--N", "64", "--t-end", "5", "--frames", "5")]
# stiff mode and energy runs, where an integrator change moves the exit code first
STIFF = ("modes", "--n", "0.05", "--alpha", "0.5")
CALLS += [(*STIFF, "--kappa", "0.1", "--theta0", "0.3", "--j", "1", "--tau-end", "100"),
          (*STIFF, "--kappa", "0.1", "--theta0", "0.3", "--j", "1", "--tau-end", "600"),
          (*STIFF, "--kappa", "0.2", "--theta0", "1", "--j", "40", "--tau-end", "600"),
          (*STIFF, "--kappa", "0.2", "--theta0", "1", "--j", "40", "--tau-end", "10"),
          ("energy", "--n", "0.002719", "--alpha", "8.389", "--kappa", "0.01418",
           "--theta0", "3.11", "--jmodes", "1,2", "--tau-end", "5.811")]
# lambda2 = 3, where the node series has no terms; no benchmark op goes there
ORBIT_3 = ("heteroclinic", "--n", "1", "--alpha", "1", "--nu", "1")
LOCALIZE_3 = ("localize", "--n", "1", "--alpha", "1", "--lambda", "1", "--sigma0", "1")
CALLS += [ORBIT_3, (*ORBIT_3, "--tol", "1e-2"), LOCALIZE_3, (*LOCALIZE_3, "--tol", "1e-3")]
# the longest bodies between the orbit's two series: from a slow saddle, and at
# lambda2 = 10.2
ORBIT_10 = ("--n", "0.109", "--alpha", "0.01717", "--nu", "4.739")
CALLS += [("heteroclinic", "--n", "0.01982", "--alpha", "0.02816", "--nu", "2.438"),
          ("heteroclinic", *ORBIT_10)]
# the edges of the float range: sigma0 near its top, xi = e^eta past it, m^2 past it,
# the saddle series' Cramer products past it (lambda2 near 1e300), and a certificate whose
# B overflows in a run that weights its energy by A alone
CALLS += [("heteroclinic", "--sigma0", "1e306"), ("profile", *ORBIT_10),
          ("heteroclinic", "--n", "1e-300"), ("heteroclinic", "--alpha", "1e300"),
          ("heteroclinic", "--nu", "1e-300"),
          ("simulate", "--init", "uniform", "--kappa", "1e-310", "--N", "32", "--t-end", "1",
           "--frames", "3")]
# grid steps that are not binary fractions, so no level's grid is a slice of a dyadic one
CALLS += [("residual", "--xmax", "3.7", "--tmax", "7.1", "--nx0", "17", "--nt0", "9",
           "--levels", "3")]
# a small sigma0 puts most of the space-time grid past xi_max, where the orbit's last
# sample is read
CALLS += [("localize", "--sigma0", "1e-4")]
# grids at the edges of their half x >= 0: one and two points, no x = 0 row, x = 0 on an
# odd row of the coarsest level, and xmax near each end of the float range
CALLS += [("localize", "--nx", "1"), ("localize", "--nx", "2"),
          ("localize", "--nx", "4", "--frames", "1"), ("localize", "--nx", "400"),
          ("residual", "--nx0", "18", "--levels", "1"),
          ("residual", "--nx0", "19", "--levels", "2"),
          ("localize", "--xmax", "1e-300"), ("localize", "--xmax", "1.7e308"),
          ("residual", "--xmax", "1e308")]
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


def _parse_csv(data: bytes):
    """(metadata by key, data columns by header name, row count) of a CSV, or None if a
    row's field count is not the header's."""
    meta, rows = {}, []
    for line in data.decode().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    # the first row that is not metadata is the header
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return None
    return meta, {k: [row[i] for row in rows[1:]] for i, k in enumerate(rows[0])}, len(rows)


def _floats(values):
    """The values as floats, or None if one is not a number."""
    try:
        return [float(v) for v in values]
    except ValueError:   # a name or "none"
        return None


def _csv_groups(a: bytes, b: bytes):
    """Each metadata value alone, then each data column, of two CSVs with the same number
    of rows, matched by key and by header name; then the keys and names only the second
    has, those only the first has, and those whose values changed but are not all numbers."""
    parsed = _parse_csv(a), _parse_csv(b)
    if None in parsed or parsed[0][2] != parsed[1][2]:
        return None
    (meta_a, cols_a, _), (meta_b, cols_b, _) = parsed
    shared = [(k, [meta_a[k]], [meta_b[k]]) for k in meta_a if k in meta_b]
    shared += [(k, cols_a[k], cols_b[k]) for k in cols_a if k in cols_b]
    changed = [k for k, xs, ys in shared if xs != ys and None in (_floats(xs), _floats(ys))]
    a, b = [*meta_a, *cols_a], [*meta_b, *cols_b]
    return ([(xs, ys) for _, xs, ys in shared], [k for k in b if k not in a],
            [k for k in a if k not in b], changed)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_groups(x, y):
    """Each numeric leaf alone of two JSON values of one structure."""
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        groups = [_json_groups(x[k], y[k]) for k in x]
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        groups = [_json_groups(u, v) for u, v in zip(x, y)]
    elif _is_number(x) and _is_number(y):
        return [([x], [y])]
    elif type(x) is type(y) and not isinstance(x, (dict, list)):   # strings, booleans, null
        return []
    else:
        return None
    return None if None in groups else list(chain.from_iterable(groups))


def _largest_shift(name: str, a: bytes, b: bytes) -> str:
    """" (largest relative shift 3.1e-12)" for two CSV or JSON files of one shape, else "";
    for CSVs, the metadata keys and column names each has alone, and those whose values
    changed but are not all numbers, follow ("; added k1, k2; removed k3; changed k4")."""
    added = removed = changed = ()
    if name.endswith(".csv"):
        groups = _csv_groups(a, b)
        if groups is not None:
            groups, added, removed, changed = groups
    elif name.endswith(".json"):
        groups = _json_groups(json.loads(a), json.loads(b))
    else:
        groups = None
    if groups is None:
        return ""
    shifts = [0.0]
    for xs, ys in groups:
        xs, ys = _floats(xs), _floats(ys)
        if xs is None or ys is None:
            continue
        scale = max((abs(v) for v in xs + ys if math.isfinite(v)), default=0.0)
        shifts += [abs(x - y) / scale if math.isfinite(x) and math.isfinite(y) else math.nan
                   for x, y in zip(xs, ys) if x != y and not (math.isnan(x) and math.isnan(y))]
    keys = "".join(f"; {label} {', '.join(names)}" for label, names in
                   (("added", added), ("removed", removed), ("changed", changed)) if names)
    return f" (largest relative shift {max(shifts, key=lambda v: (math.isnan(v), v)):.2g}{keys})"


def _environment() -> dict:
    """The interpreter and libraries the calls run under, and NumPy's CPU features."""
    from numpy._core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _fingerprint(name: str, data: bytes) -> dict:
    """The SHA-256 of a file's bytes, with a CSV's data row count and pinned scalars."""
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    pinned = {}
    if name.endswith(".csv"):
        parsed = _parse_csv(data)
        if parsed is not None:
            meta, cols, rows = parsed
            entry["rows"] = rows - 1
            if "kappa1" in meta:
                pinned["kappa1"] = meta["kappa1"]
            if cols.get("halfwidth"):
                pinned["halfwidth"] = cols["halfwidth"][0]
    elif name.endswith(".json") and not name.endswith(".manifest.json"):
        report = json.loads(data)
        if isinstance(report, dict) and "fitted_order" in report:
            pinned["fitted_order"] = repr(report["fitted_order"])
    if pinned:
        entry["pinned"] = pinned
    return entry


def _record(tree: Path, calls, tmp: str) -> dict:
    """The environment and, for each call in ``tree``, its exit code and file fingerprints."""
    runs = []
    for i, call in enumerate(calls):
        code, files = _outputs(tree, call, Path(tmp, str(i)))
        runs.append({"argv": list(call), "exit": code,
                     "files": {name: _fingerprint(name, data) for name, data in files.items()}})
    return {"environment": _environment(), "calls": runs}


def _compare(old: dict, new: dict) -> tuple[list, int, list]:
    """The differences of two records, their file count, and the environment keys that differ."""
    differ, count = [], 0
    if [c["argv"] for c in old["calls"]] != [c["argv"] for c in new["calls"]]:
        return ["the record holds other calls"], 0, []
    for a, b in zip(old["calls"], new["calls"]):
        call = " ".join(a["argv"])
        count += len(a["files"])
        if a["exit"] != b["exit"]:
            differ.append(f"{call}: exit {a['exit']} vs {b['exit']}")
        for name in sorted(a["files"].keys() | b["files"]):
            x, y = a["files"].get(name), b["files"].get(name)
            if x is None or y is None:
                differ.append(f"{call}: {name} only in the {'record' if y is None else 'tree'}")
            elif x["sha256"] != y["sha256"]:
                xs, ys = ({"rows": f.get("rows"), **f.get("pinned", {})} for f in (x, y))
                shifts = [f"{k} {xs.get(k)} vs {ys.get(k)}" for k in {**xs, **ys}
                          if xs.get(k) != ys.get(k)]
                differ.append(f"{call}: {name}" + (f" ({'; '.join(shifts)})" if shifts else ""))
    env_a, env_b = old["environment"], new["environment"]
    moved = [f"{k} {env_a.get(k)} vs {env_b.get(k)}" if k != "cpu_features" else k
             for k in sorted(env_a.keys() | env_b) if env_a.get(k) != env_b.get(k)]
    return differ, count, moved


def _summary(ncalls: int, count: int, differ) -> str:
    return f"{ncalls} calls, {count} files: " + (
        f"{len(differ)} differ: " + "; ".join(differ) if differ else "all identical")


def main(argv, calls=CALLS) -> int:
    if len(argv) == 3 and argv[0] in ("--record", "--against"):
        mode, record, tree = argv[0], Path(argv[1]), Path(argv[2]).resolve()
        with tempfile.TemporaryDirectory() as tmp:
            new = _record(tree, calls, tmp)
        if mode == "--record":
            record.write_text(json.dumps(new, indent=1) + "\n")
            print(f"recorded {len(calls)} calls, "
                  f"{sum(len(c['files']) for c in new['calls'])} files to {record}")
            return 0
        differ, count, moved = _compare(json.loads(record.read_text()), new)
        print(_summary(len(calls), count, differ))
        if moved:
            print("the record was made in another environment, so differences do not fail: "
                  + "; ".join(moved))
        return 1 if differ and not moved else 0
    if len(argv) != 2 or argv[0].startswith("--"):
        sys.exit(__doc__)
    trees = [Path(t).resolve() for t in argv]
    differ, count = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, call in enumerate(calls):
            (code_a, files_a), (code_b, files_b) = (
                _outputs(tree, call, Path(tmp, side, str(i)))
                for side, tree in zip(("parent", "change"), trees))
            count += len(files_a)
            if code_a != code_b:
                differ.append(f"{' '.join(call)}: exit {code_a} vs {code_b}")
            for name in sorted(files_a.keys() | files_b):
                a, b = files_a.get(name), files_b.get(name)
                if a != b:
                    shift = _largest_shift(name, a, b) if a and b else ""
                    differ.append(f"{' '.join(call)}: {name}{shift}")
    print(_summary(len(calls), count, differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
