"""CSV output with a '#'-prefixed metadata header block, and run manifests.

All numbers are written with repr-level precision so reruns of a
deterministic computation reproduce files bit-for-bit: every element is
written as ``_fmt`` gives it, a float as ``'%.17g' % x``.  Three rules spare
work that writes no bytes:

* A table of fewer than ``_SMALL_CELLS`` rows x columns is formatted one
  element at a time by ``_fmt``, whose cost per value is below NumPy's set-up
  cost per block.
* A larger table is formatted a block of rows at a time in NumPy (see
  ``_float_field``).  Each field takes fixed slots of one buffer, allocated
  for the call's first block and reused by the next ones (shortened for the
  last, allocated again only for a wider block); the byte 0xFF, in no UTF-8
  text, fills the slots its text leaves, and ``bytearray.translate`` deletes
  it.
* An ``Indexed`` float column, whose rows are ``values[index]``, has each
  value formatted once, for the whole call; each block gathers its rows'
  fields.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# rows formatted and written at a time: bounds the memory of the text in flight
_BLOCK_ROWS = 4096
_FILL = 0xFF
# a table of fewer cells (rows x columns) than this is formatted one element at a time:
# NumPy's set-up costs about 0.25 ms a table and _fmt about 0.9 us a float, and an
# 8 x 4 table took 31 us against 245 us; the two met near 75 rows of 4 floats
_SMALL_CELLS = 300

# 10^p takes |x| into [1e16, 1e17) for p = 16 - E, where E = floor(log10|x|)
# lies in [-324, 308], or one off it after a retry
_E_MIN, _E_MAX = -325, 309
_SPLITTER = 134217729.0           # 2^27 + 1, Veltkamp's split of a double into 26 + 26 bits

# The 48 byte slots of a float field, as six little-endian 64-bit words; a
# row fills the slots its form does not use:
#   0 sign | 1-2 "0." and 3-5 the zeros of 0.000ddd | 6 + 2k digit k of 17,
#   7 + 2k a "." after it | 40 "e", 41 exponent sign, 42-44 exponent digits |
#   45-46 unused | 47 the separator; where no row of a column takes the exponent
#   form, the last word goes and the separator takes slot 39, a "." never kept
_FLOAT_WIDTH = 48


def _key_slots(e, ndig, neg):
    """The slots kept by the rows of exponent ``e``, ``ndig`` digits up to the
    last nonzero one and sign bit ``neg``: the '%.17g' layout.

    ``%g`` with precision 17 writes the fixed form, its digits after the
    point up to the last nonzero one, when -4 <= E < 17, else d.ddde+XX with
    at least two exponent digits.
    """
    e, ndig, neg = (v[:, None] for v in (e, ndig, neg))
    slot = np.arange(_FLOAT_WIDTH)
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    point = np.where(fixed, e + 1, 1)   # digits before the "."; 0 for 0.ddd
    digit, dot = (slot - 6) // 2, (slot >= 6) & (slot % 2 == 1)
    return ((slot == 0) & neg
            | (slot >= 1) & (slot <= 2) & small
            | (slot >= 3) & (slot <= 5) & small & (e <= 1 - slot)
            | (slot >= 6) & (slot < 40) & ~dot & (digit < np.maximum(ndig, point))
            | (slot >= 6) & (slot < 40) & dot & (digit + 1 == point) & (point < ndig)
            | (slot >= 40) & (slot <= 44) & ~fixed & ((slot != 42) | (np.abs(e) >= 100)))


class _Tables(NamedTuple):
    """The lookup tables of ``_float_field``; ``_tables()`` builds them on the first write."""

    pow10: np.ndarray    # 10^(16 - E) 2^-k as rows hi, hi's two halves, lo, 2^k; column E - _E_MIN
    lead: np.ndarray     # the first digit d -> the word "-0.000d."
    quad: np.ndarray     # 0..9999 -> the word "d.d.d.d."
    last: np.ndarray     # [i, g]: position of the last nonzero digit of group i = g among the
                         # 16 digits after the first, 1..16 (0 for g = 0)
    exp: np.ndarray      # E - _E_MIN -> the word "e+XXX"
    layout: np.ndarray   # E - _E_MIN -> 34 x its layout: E in -4..16, 2 or 3 exponent digits
    fill: np.ndarray     # 34 layout + 2 last + sign bit -> six words, 0xFF in each slot not kept


@functools.cache
def _tables() -> _Tables:
    """10^p for p = 16 - E as the double-double ``hi + lo`` times 2^-k, with
    ``hi`` split into 26-bit halves, and the exact factor 2^k that scales |x|
    first: k = 512 for tiny |x| and -512 for huge |x|, so every product and
    split stays in the normal range.  Computed in integers only: ``int / int``
    rounds correctly.  Then the digit, exponent and fill tables.
    """
    cols = []
    for e in range(_E_MIN, _E_MAX + 1):
        p = 16 - e
        k = 512 if p > 100 else -512 if p < -100 else 0
        num = 10 ** max(p, 0) * 2 ** max(-k, 0)
        den = 10 ** max(-p, 0) * 2 ** max(k, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        c = _SPLITTER * hi
        hi_h = c - (c - hi)
        cols.append((hi, hi_h, hi - hi_h, (num * b - a * den) / (den * b), 2.0 ** k))
    pow10 = np.array(cols).T.copy()

    lead = np.tile(np.frombuffer(b"-0.000\x00.", dtype=np.uint8), (10, 1))
    lead[:, 6] = np.arange(10) + 48
    digits = _quad_digits()
    quad = np.zeros((10_000, 8), dtype=np.uint8)
    quad[:, 0::2], quad[:, 1::2] = digits, ord(".")
    last = 4 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    last = np.where(np.arange(10_000) > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.uint8)

    e = np.arange(_E_MIN, _E_MAX + 1)
    exp = np.zeros((e.size, 8), dtype=np.uint8)
    exp[:, 0], exp[:, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2:5] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + 48
    layout = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))

    key = np.arange(23 * 17 * 2)
    rep_e = np.concatenate([np.arange(-4, 17), [17, 100]])[key // 34]
    fill = np.where(_key_slots(rep_e, key // 2 % 17 + 1, key % 2 == 1), 0, _FILL)
    return _Tables(pow10, lead.view("<u8").ravel(), quad.view("<u8").ravel(), last,
                   exp.view("<u8").ravel(), layout * 34, fill.astype(np.uint8).view("<u8"))


def _round17(ax, e):
    """D = round(ax 10^(16 - e)) as int64, where the product lies below 1e16,
    and where its fraction lies within 1e-9 of 1/2.

    ``ax`` is finite and positive.  The product is Dekker's exact TwoProduct
    of the scaled |x| with ``hi``, plus |x| ``lo``; its error is below 1e-14
    here, so a rounding decided 1e-9 away from a tie is the correct one.
    """
    hi, hi_h, hi_l, lo, scale = _tables().pow10.take(e - _E_MIN, axis=1)
    xs = ax * scale
    prod = xs * hi
    c = xs * _SPLITTER
    xh = c - (c - xs)
    xl = xs - xh
    # prod >= 2^53 is an integer wherever the result can lie in [1e16, 1e17)
    rest = (((xh * hi_h - prod) + xh * hi_l + xl * hi_h) + xl * hi_l) + xs * lo
    whole = np.rint(rest)
    low = (prod - 1e16) + rest < 0
    near_half = np.abs(rest - whole) > 0.5 - 1e-9
    return prod.astype(np.int64) + whole.astype(np.int64), low, near_half


def _decimal17(x):
    """|x| = D 10^(E - 16) rounded to 17 digits, D in [1e16, 1e17): (D, E, fallback).

    ``fallback`` marks NaN, +-inf, the values whose rounding is within 1e-9
    of a tie, and any the retry of E did not bring into range; these and the
    zeros give D = 0.
    """
    ax = np.abs(x)
    finite = np.isfinite(x)
    ax = np.where(finite & (ax != 0), ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    d, low, near = _round17(ax, e)
    # log10 can miss E by one either way
    miss = np.flatnonzero(low | (d > 10 ** 17))
    if miss.size:
        e[miss] += np.where(low[miss], -1, 1)
        d[miss], low[miss], near[miss] = _round17(ax[miss], e[miss])
    # a product just below 1e17 rounds up to it: 1.0000000000000000 at E + 1
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e[carry] += 1
    fallback = ~finite | near | low | (d > 10 ** 17)
    d[fallback | (x == 0)] = 0
    return d, e, fallback


def _float_field(x, decimal, words) -> None:
    """Write the '%.17g' text of the float64 value of ``x`` (its ``_decimal17``
    is ``decimal``) into ``words``: n x 6 '<u8', or n x 5 where no row takes the
    exponent form.  0xFF fills each slot the text leaves, the last one too: the
    separator's."""
    t = _tables()
    d, e, fallback = decimal
    e = e - _E_MIN
    # the 17 digits: the first, then four groups of four
    head = d // 10 ** 8
    tail = d - head * 10 ** 8
    first = head // 10 ** 8
    head -= first * 10 ** 8
    g0, g2 = head // 10 ** 4, tail // 10 ** 4
    g1, g3 = head - g0 * 10 ** 4, tail - g2 * 10 ** 4
    last = np.maximum(np.maximum(t.last[0].take(g0), t.last[1].take(g1)),
                      np.maximum(t.last[2].take(g2), t.last[3].take(g3)))
    fill = t.fill.take(t.layout.take(e) + 2 * last + np.signbit(x), axis=0)
    words[:, 0] = t.lead.take(first) | fill[:, 0]
    for i, g in enumerate((g0, g1, g2, g3)):
        words[:, 1 + i] = t.quad.take(g) | fill[:, 1 + i]
    if words.shape[1] == 6:
        words[:, 5] = t.exp.take(e) | fill[:, 5]
    chars = words.view(np.uint8)
    for i in np.flatnonzero(fallback):
        text = b"%.17g" % float(x[i])
        chars[i] = _FILL
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _exponent_form(decimal):
    """Whether each value of ``_decimal17`` ``decimal`` takes '%.17g''s exponent form."""
    _, e, fallback = decimal
    return ~fallback & ((e < -4) | (e >= 17))


@functools.cache
def _quad_digits() -> np.ndarray:
    """0..9999 -> its four decimal digits, zero-padded, as ASCII bytes."""
    q = np.arange(10_000)
    return (q[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)


_POW10 = 10 ** np.arange(20, dtype=np.uint64)    # 1 .. 1e19: uint64 has up to 20 digits


def _int_field(a):
    """The text ``str(int(v))`` of each element of an int column, as n x width
    bytes: a sign slot and then the digits, right-aligned in groups of four,
    with 0xFF in the sign slot of v >= 0 and in place of the leading zeros."""
    neg = a < 0
    mag = a.astype(np.uint64)                       # 2^64 - |v| for v < 0
    mag = np.where(neg, ~mag + np.uint64(1), mag)   # |v|, the int64 minimum's too
    groups = [mag % np.uint64(10_000)]              # least significant first
    rest = mag // np.uint64(10_000)
    while rest.any():
        groups.append(rest % np.uint64(10_000))
        rest //= np.uint64(10_000)
    width = 1 + 4 * len(groups)
    chars = np.empty((a.size, width), dtype=np.uint8)
    chars[:, 0] = np.where(neg, ord("-"), _FILL)
    for i, g in enumerate(reversed(groups)):
        chars[:, 1 + 4 * i:5 + 4 * i] = _quad_digits().take(g, axis=0)
    # column by column: NumPy loops slowly over short rows; the last digit, of 1, stays
    for i, p in enumerate(_POW10[width - 2:0:-1], start=1):
        np.copyto(chars[:, i], _FILL, where=mag < p)
    return chars


def _text_field(a):
    """The bytes of each element of a non-float column, as n x width bytes with
    0xFF past the end of each text."""
    if a.dtype.kind in "iu":
        return _int_field(a)
    # in a non-native byte order, no code is below 128
    codes = a.view(np.uint32) if a.dtype.kind == "U" else None
    if codes is not None and not (codes >= 128).any():   # ASCII: the UTF-8 bytes are the codes
        chars = codes.reshape(a.size, a.itemsize // 4).astype(np.uint8)
        lengths = np.strings.str_len(a)
    else:
        texts = [t.encode() for t in a.tolist()] if codes is not None else [
            _fmt(v).encode() for v in a]
        chars = np.array(texts or [b""], dtype=bytes)[:len(texts)]
        chars = chars.view(np.uint8).reshape(len(texts), chars.itemsize)
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    np.copyto(chars, _FILL, where=np.arange(chars.shape[1]) >= lengths[:, None])
    return chars


class Indexed:
    """A column whose rows are ``values[index]``; the writer formats each value once.

    ``size`` is the row count, as for an array column.
    """

    def __init__(self, values, index):
        self.values = np.asarray(values).ravel()
        self.index = np.asarray(index, dtype=np.intp).ravel()

    @property
    def size(self) -> int:
        return self.index.size


class _Laid(NamedTuple):
    """An ``Indexed`` float column with its values formatted once: row i of ``words``
    is the field of value i (n x 6 '<u8'), its last slot left for the separator, and
    ``wide[i]`` says whether value i takes the exponent form."""

    words: np.ndarray
    wide: np.ndarray
    index: np.ndarray


def _lay_out(column: Indexed):
    """A float ``Indexed`` column as a ``_Laid``; any other, as its rows."""
    if column.values.dtype.kind != "f":
        return column.values[column.index]
    x = column.values.astype(np.float64, copy=False)
    decimal = _decimal17(x)
    words = np.empty((x.size, _FLOAT_WIDTH // 8), dtype="<u8")
    _float_field(x, decimal, words)
    return _Laid(words, _exponent_form(decimal), column.index)


def _field(column, rows: slice):
    """The field of ``column`` (an array or a ``_Laid``) over ``rows``: its width in
    bytes, whole words, and its text, as a float array and its ``_decimal17`` or
    as n x up to width bytes.  A float field is 40 bytes in a block whose rows take
    no exponent form."""
    if isinstance(column, _Laid):
        index = column.index[rows]
        width = _FLOAT_WIDTH - 8 * (not column.wide.take(index).any())
        return width, column.words.take(index, axis=0)[:, :width // 8].view(np.uint8)
    a = column[rows]
    if a.dtype.kind == "f":
        x = a.astype(np.float64, copy=False)
        decimal = _decimal17(x)
        return _FLOAT_WIDTH - 8 * (not _exponent_form(decimal).any()), (x, decimal)
    text = _text_field(a)
    return (text.shape[1] + 8) // 8 * 8, text


def _block(fields, n: int, buf: bytearray) -> bytearray:
    """Lay out the ``n`` CSV lines of ``fields``, the ``_field``\\s of the columns over
    the same rows, each line ended by "\\n", in ``buf`` resized to fit, or in a new
    buffer where ``buf`` is too short; returns the buffer."""
    size = n * sum(width for width, _ in fields)
    if size > len(buf):
        buf = bytearray(size)
    del buf[size:]
    chars = np.frombuffer(buf, dtype=np.uint8).reshape(n, -1)
    words = chars.view("<u8")
    start = 0
    for i, (width, text) in enumerate(fields):
        end = start + width
        if isinstance(text, tuple):
            _float_field(*text, words[:, start // 8:end // 8])
        else:
            chars[:, start:start + text.shape[1]] = text
            chars[:, start + text.shape[1]:end] = _FILL
        chars[:, end - 1] = ord("\n" if i == len(fields) - 1 else ",")
        start = end
    return buf


def _per_element(columns) -> bytes:
    """The CSV lines of the columns, each element formatted by ``_fmt``."""
    texts = [[_fmt(v) for v in (c.values[c.index] if isinstance(c, Indexed) else c)]
             for c in columns]
    return "".join(",".join(row) + "\n" for row in zip(*texts)).encode()


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """Write named columns with an optional metadata header, as UTF-8 text.

    A column is an array (or anything ``np.asarray`` takes) or an ``Indexed``.
    Floats are written with round-trip precision: each is the text
    ``'%.17g' % x`` of the float64 value.
    """
    if not columns:
        raise ValueError("write_csv needs at least one column")
    names = list(columns)
    arrays = [c if isinstance(c, Indexed) else np.asarray(c).ravel() for c in columns.values()]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all columns must have equal length")
    header = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    header.append(",".join(names))
    with Path(path).open("wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        if length * len(arrays) < _SMALL_CELLS:
            f.write(_per_element(arrays))
            return
        arrays = [_lay_out(a) if isinstance(a, Indexed) else a for a in arrays]
        buf = bytearray()
        for start in range(0, length, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            buf = _block([_field(a, rows) for a in arrays], min(_BLOCK_ROWS, length - start), buf)
            f.write(buf.translate(None, bytes([_FILL])))


def read_csv(path):
    """Inverse of write_csv: (metadata dict of strings, dict of float arrays)."""
    meta, rows, names = {}, [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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
                   tolerances: dict, seed, duration: float) -> None:
    """Record everything needed to reproduce a run bit-for-bit."""
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": [],
        "outputs": [str(o) for o in outputs],
        "tolerances": tolerances,
        "seed": seed,
        "tool_version": __version__,
        "wall_seconds": duration,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
