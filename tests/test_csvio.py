from pathlib import Path
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from shearlab._csvio import _BLOCK_ROWS, _decimal17, _fmt, read_csv, write_csv


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


def _written_floats(tmp_path, values) -> list[bytes]:
    """The data lines write_csv gives for one float column."""
    write_csv(tmp_path / "f.csv", {"x": values})
    return (tmp_path / "f.csv").read_bytes().split(b"\n")[1:-1]


def _printf(values) -> list[bytes]:
    return [b"%.17g" % float(v) for v in values]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.uint64, st.integers(1, 300), elements=st.integers(0, 2 ** 64 - 1)))
def test_write_csv_floats_are_printf_17g_on_any_bit_pattern(bits):
    values = bits.view(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        assert _written_floats(Path(tmp), values) == _printf(values)


# doubles just below 1e-14 and 1e98 whose 17-digit rounding carries to 1e17
CARRIES = [float.fromhex("0x1.6849b86a12b9bp-47"), float.fromhex("0x1.7688bb5394c25p+325")]


def _edge_values():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    forms = [1e-5, 1.2345e-5, 9.999e-5, 1e-4, 1.2345e-4, 0.5, 1e16, 1.2345e16, 9.999e16,
             1e17, 1.2345e17, 1.5e-100, 1.5e100, 1e-99, 1e99, 5e-324, 1.7976931348623157e308,
             0.0, -0.0, 1e15 + 0.25, 2.0 ** -25]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), twos,
                             CARRIES, forms])
    return np.concatenate([values, -values])


def test_write_csv_floats_are_printf_17g_at_the_edges(tmp_path):
    values = _edge_values()
    assert _written_floats(tmp_path, values) == _printf(values)
    # both lie below their power of ten, exactly
    (a, b), (c, d) = (v.as_integer_ratio() for v in CARRIES)
    assert a * 10 ** 14 < b and c < d * 10 ** 98
    assert _printf(CARRIES) == [b"1e-14", b"1e+98"]
    f32 = np.array([1e-40, 0.1, 3.4e38, -2.5, 16777217.0, 1e-45], dtype=np.float32)
    assert _written_floats(tmp_path, f32) == _printf(f32)


def test_only_ties_and_nonfinite_values_leave_the_kernel():
    values = _edge_values()
    _, _, fallback = _decimal17(values)
    # the exact ties at 17 digits: 1e15 + 0.25, 1e15 - 0.125 (the neighbour of 1e15) and 2^-25
    assert set(np.abs(values[fallback]).tolist()) == {1e15 + 0.25, 1e15 - 0.125, 2.0 ** -25}
    _, _, fallback = _decimal17(np.array([np.nan, np.inf, -np.inf, 1.0]))
    assert fallback.tolist() == [True, True, True, False]
