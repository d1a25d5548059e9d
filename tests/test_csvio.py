from pathlib import Path
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from shearlab._csvio import _BLOCK_ROWS, _fmt, read_csv, write_csv


def _reference_write(path, columns, metadata=None):
    """write_csv one element at a time through _fmt."""
    arrays = [np.asarray(c).ravel() for c in columns.values()]
    lines = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    for i in range(arrays[0].size):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1, -1.0 / 3.0,
          1.7976931348623157e308, 12345678.9]
FLOAT32 = np.array([np.nan, -np.inf, -0.0, 1e-40, 0.1, 3.4e38], dtype=np.float32)


@pytest.mark.parametrize("length", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_write_csv_matches_per_element_format(tmp_path, length):
    i = np.arange(length)
    columns = {
        "f": np.array(FLOATS)[i % len(FLOATS)],
        "f32": FLOAT32[i % FLOAT32.size],
        "list": [FLOATS[k % len(FLOATS)] for k in range(length)],
        "int": (i - length // 2) * 3_000_000_007,
        "bool": i % 3 == 0,
        "str": np.array(["unstable", "marginal", "asymptotically-stable"])[i % 3],
    }
    meta = {"x": 0.1, "k": np.int64(3), "flag": np.True_, "label": "none"}
    write_csv(tmp_path / "new.csv", columns, meta)
    _reference_write(tmp_path / "ref.csv", columns, meta)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    if length:
        _, data = read_csv(tmp_path / "new.csv")
        assert np.array_equal(data["f"], columns["f"], equal_nan=True)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", {"a": [1.0, 2.0], "b": [1.0]})
    assert not (tmp_path / "x.csv").exists()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(lambda rows: st.lists(
    hnp.arrays(np.float64, rows, elements=st.floats(width=64)), min_size=1, max_size=4)))
def test_read_csv_inverts_write_csv_on_float64(columns):
    named = {f"c{i}": c for i, c in enumerate(columns)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_csv(path, named, {"k": 1.5})
        meta, data = read_csv(path)
    assert meta == {"k": "1.5"} and list(data) == list(named)
    for name, col in named.items():
        back = data[name]
        assert back.dtype == np.float64
        nan = np.isnan(col)
        assert np.array_equal(np.isnan(back), nan)
        # bit patterns, so that -0.0 must come back as -0.0
        assert np.array_equal(back[~nan].view(np.uint64), col[~nan].view(np.uint64))
