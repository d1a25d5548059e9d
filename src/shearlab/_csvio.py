"""CSV output with a '#'-prefixed metadata header block, and run manifests.

All numbers are written with repr-level precision so reruns of a
deterministic computation reproduce files bit-for-bit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from . import __version__


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# rows formatted and written at a time: bounds the memory of the text in flight
_BLOCK_ROWS = 4096


def _row_values(a: np.ndarray) -> list:
    """The elements of a 1-D array as values that ``_row_field(a)`` formats like ``_fmt``."""
    kind = a.dtype.kind
    if kind == "f":
        return a.astype(float, copy=False).tolist()
    if kind in "iu":
        return a.tolist()
    return [_fmt(v) for v in a]


def _row_field(a: np.ndarray) -> str:
    return "%.17g" if a.dtype.kind == "f" else "%s"


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """Write named columns with an optional metadata header."""
    names = list(columns)
    arrays = [np.asarray(columns[k]).ravel() for k in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all columns must have equal length")
    header = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    header.append(",".join(names))
    row = ",".join(map(_row_field, arrays))
    with Path(path).open("w") as f:
        f.write("\n".join(header) + "\n")
        for start in range(0, length, _BLOCK_ROWS):
            values = [_row_values(a[start:start + _BLOCK_ROWS]) for a in arrays]
            f.write("\n".join([row % r for r in zip(*values)]) + "\n")


def read_csv(path):
    """Inverse of write_csv: (metadata dict of strings, dict of float arrays)."""
    meta = {}
    rows = []
    names = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append(line.split(","))
    data = {}
    for i, name in enumerate(names or []):
        column = [r[i] for r in rows]
        try:
            data[name] = np.array([float(v) for v in column])
        except ValueError:
            data[name] = np.array(column)
    return meta, data


def write_manifest(path, subcommand: str, parameters: dict, outputs: list,
                   tolerances: dict | None = None, seed=None,
                   duration: float | None = None, inputs: list | None = None) -> None:
    """Record everything needed to reproduce a run bit-for-bit."""
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs or [],
        "outputs": [str(o) for o in outputs],
        "tolerances": tolerances or {},
        "seed": seed,
        "tool_version": __version__,
        "wall_seconds": duration,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
