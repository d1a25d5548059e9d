import math
from pathlib import Path
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from shearlab import _csvio
from shearlab._csvio import (_BLOCK_ROWS, _SMALL_CELLS, Indexed, _decimal17, _fmt, read_csv,
                             write_csv)


def _numpy_path():
    """write_csv with every table, however small, formatted in NumPy."""
    return mock.patch.object(_csvio, "_SMALL_CELLS", 0)


@pytest.fixture
def numpy_path():
    with _numpy_path():
        yield


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


# the table below has 7 columns: the last length formatted per element, then the first in NumPy
SMALL, LARGE = math.ceil(_SMALL_CELLS / 7) - 1, math.ceil(_SMALL_CELLS / 7)


@pytest.mark.parametrize("length", [0, 1, SMALL, LARGE, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_write_csv_matches_per_element_format(tmp_path, length):
    i = np.arange(length)
    columns = {
        "f": np.array(FLOATS)[i % len(FLOATS)],
        "f32": FLOAT32[i % FLOAT32.size],
        "list": [FLOATS[k % len(FLOATS)] for k in range(length)],
        "int": (i - length // 2) * 3_000_000_007,
        "bool": i % 3 == 0,
        "str": np.array(["unstable", "marginal", "asymptotically-stable"])[i % 3],
        "utf8": np.array(["naïve", "", "日本語 ÿ"])[i % 3],
    }
    assert (length * len(columns) < _SMALL_CELLS) == (length <= SMALL)
    meta = {"x": 0.1, "k": np.int64(3), "flag": np.True_, "label": "none"}
    write_csv(tmp_path / "new.csv", columns, meta)
    with _numpy_path():
        write_csv(tmp_path / "numpy.csv", columns, meta)
    _reference_write(tmp_path / "ref.csv", columns, meta)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()
    if length:
        _, data = read_csv(tmp_path / "new.csv")
        assert np.array_equal(data["f"], columns["f"], equal_nan=True)


INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("length", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_write_csv_int_columns_are_str_per_element(tmp_path, length):
    # each dtype's extremes, 0, small and negative values, and every digit count
    columns = {}
    for dtype in INT_TYPES:
        info = np.iinfo(dtype)
        edges = [info.min, info.max, 0, 1, 9, 10, info.max - 1, info.min + 1, info.max // 10,
                 info.max // 10 + 1]
        edges += [-1, -9, -10, info.min // 10] if info.min else []
        decades = [v for v in (10 ** np.arange(20, dtype=np.uint64)).tolist() if v <= info.max]
        values = edges + decades + [v - 1 for v in decades] + [-v for v in decades if info.min]
        values += np.random.default_rng(7).integers(info.min, info.max, 300, dtype=dtype,
                                                    endpoint=True).tolist()
        columns[np.dtype(dtype).name] = np.array(values, dtype=dtype)[np.arange(length)
                                                                      % len(values)]
    write_csv(tmp_path / "new.csv", columns)
    lines = [",".join(columns)] + [",".join(str(int(a[i])) for a in columns.values())
                                   for i in range(length)]
    assert (tmp_path / "new.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("texts", [
    ["naïve", "", "日本語", "😀 x", "a\x00b", "plain"],       # non-ASCII, empty, interior NUL
    ["café", "ü", "x"],                                       # Latin-1 only: two bytes each
    ["plain", "ascii", ""],
    np.array(["ab", "c", ""], dtype=">U2"),                   # non-native byte order
])
def test_write_csv_str_columns_are_utf8_per_element(tmp_path, numpy_path, texts):
    texts = np.asarray(texts)
    columns = {"s": texts, "x": np.arange(texts.size) * 0.5, "t": texts[::-1]}
    write_csv(tmp_path / "new.csv", columns)
    expected = "s,x,t\n" + "".join(f"{a},{_fmt(x)},{b}\n" for a, x, b in zip(
        texts.tolist(), columns["x"], texts[::-1].tolist()))
    assert (tmp_path / "new.csv").read_bytes() == expected.encode("utf-8")


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", {"a": [1.0, 2.0], "b": [1.0]})
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("columns", [{}, {"a": [1.0, 2.0], "b": Indexed([1.0, 2.0], [0])}],
                         ids=["none", "ragged-indexed"])
def test_write_csv_rejects_no_columns_and_a_ragged_indexed_column(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", columns)
    assert not (tmp_path / "x.csv").exists()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(lambda rows: st.lists(
    hnp.arrays(np.float64, rows, elements=st.floats(width=64)), min_size=1, max_size=4)))
def test_read_csv_inverts_write_csv_on_float64(columns):
    named = {f"c{i}": c for i, c in enumerate(columns)}
    with tempfile.TemporaryDirectory() as tmp, _numpy_path():
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
    """The data lines write_csv gives for one float column, formatted in NumPy."""
    with _numpy_path():
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


def test_write_csv_lays_out_its_buffer_again_when_fields_change_width(tmp_path):
    # ints widen after the first block, and strs too: ASCII takes 4 bytes a row (the
    # dtype's width), UTF-8 up to 12; both narrow again in the one-row last block
    n = 2 * _BLOCK_ROWS + 1
    i = np.arange(n)
    ints = np.where(i < _BLOCK_ROWS, i % 7, (i - _BLOCK_ROWS) * 10 ** 12 - 5 * 10 ** 17)
    ints[-1] = -3
    strs = np.array(["a", "bb", "ÿé", "€€€€"])[np.where(i < _BLOCK_ROWS, i % 2, 2 + i % 2)]
    strs[-1] = "ab"
    # a float column whose rows all take the fixed form has no exponent slots: g has them
    # in the second block only, and the fallbacks (NaN, inf and a tie) in every block
    g = -np.cos(i * 1.1)
    g[[5, 9, _BLOCK_ROWS + 3, n - 1]] = np.nan, 1e15 + 0.25, -np.inf, 1e15 + 0.25
    g[_BLOCK_ROWS + 100] = 1e-300
    columns = {"f": np.sin(i * 0.37) * 10.0 ** (i % 40 - 20), "i": ints, "s": strs, "g": g}
    write_csv(tmp_path / "new.csv", columns)
    _reference_write(tmp_path / "ref.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_str_bytes_that_meet_the_fill_byte(tmp_path, numpy_path):
    # U+00FF is 0xFF in Latin-1 and c3 bf in UTF-8; \x7f and NUL are single bytes
    texts = np.array(["ÿ", "aÿb", "\x7f", "x\x00y", "ÿ\x7fé€😀", "", "\xfe\xff"])
    write_csv(tmp_path / "s.csv", {"s": texts, "x": np.arange(texts.size) / 3.0})
    lines = (tmp_path / "s.csv").read_bytes().split(b"\n")[1:-1]
    assert lines == [_fmt(t).encode("utf-8") + b"," + _fmt(k / 3.0).encode("utf-8")
                     for k, t in enumerate(texts.tolist())]


# fixed-form values and fallbacks (NaN, +-inf, -0, a tie), then exponent forms, a subnormal too
INDEXED_VALUES = np.array([0.5, -1.0 / 3.0, 12345678.9, np.nan, np.inf, -np.inf, -0.0,
                           1e15 + 0.25, 5e-324, 1e-300, -2.5e20, 1.2345e-5])
FIRST_EXPONENT = 8


@pytest.mark.parametrize("length", [0, 5, 2 * _BLOCK_ROWS + 5])
def test_indexed_columns_write_their_materialized_rows(tmp_path, length):
    i = np.arange(length)
    # the first block takes no exponent form, so its float fields are 40 bytes, the rest 48
    at = np.where(i < _BLOCK_ROWS, i % FIRST_EXPONENT, i % INDEXED_VALUES.size)
    ints = np.array([-7, 0, 3 * 10 ** 17, 42])
    texts = np.array(["a", "日本語", "", "ÿ"])
    columns = {"f": Indexed(INDEXED_VALUES, at), "i": Indexed(ints, i % 4),
               "s": Indexed(texts, i[::-1] % 4), "g": np.sin(i * 0.37),
               "f32": Indexed(INDEXED_VALUES.astype(np.float32), at[::-1])}
    assert all(c.size == length for c in columns.values())
    wide = _csvio._exponent_form(_decimal17(INDEXED_VALUES))
    assert not wide[:FIRST_EXPONENT].any() and wide[FIRST_EXPONENT:].all()
    materialized = {k: c.values[c.index] if isinstance(c, Indexed) else c
                    for k, c in columns.items()}
    write_csv(tmp_path / "indexed.csv", columns, {"k": 1})
    write_csv(tmp_path / "arrays.csv", materialized, {"k": 1})
    _reference_write(tmp_path / "ref.csv", materialized, {"k": 1})
    assert (tmp_path / "indexed.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()
