"""CSV output with a '#'-prefixed metadata header block, and run manifests.

All numbers are written with repr-level precision so reruns of a
deterministic computation reproduce files bit-for-bit.  Float columns are
formatted a block of rows at a time in NumPy, to the bytes that
``'%.17g' % x`` gives for each element (see ``_float_field``).
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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# rows formatted and written at a time: bounds the memory of the text in flight
_BLOCK_ROWS = 4096
_COMPACT_ROWS = 256

# 10^p takes |x| into [1e16, 1e17) for p = 16 - E, where E = floor(log10|x|)
# lies in [-324, 308], or one off it after a retry
_E_MIN, _E_MAX = -325, 309
_SPLITTER = 134217729.0           # 2^27 + 1, Veltkamp's split of a double into 26 + 26 bits

# The 48 byte slots of a float field, as six little-endian 64-bit words; a
# row keeps the slots its form uses:
#   0 sign | 1-2 "0." and 3-5 the zeros of 0.000ddd | 6 + 2k digit k of 17,
#   7 + 2k a "." after it | 40 "e", 41 exponent sign, 42-44 exponent digits |
#   45 the separator | 46-47 unused
_FLOAT_WIDTH = 48
_SEP = 45


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
            | (slot >= 40) & (slot <= 44) & ~fixed & ((slot != 42) | (np.abs(e) >= 100))
            | (slot == _SEP))


class _Tables(NamedTuple):
    """The lookup tables of ``_float_field``; ``_tables()`` builds them on the first write."""

    pow10: np.ndarray    # 10^(16 - E) 2^-k as rows hi, hi's two halves, lo, 2^k; column E - _E_MIN
    lead: np.ndarray     # the first digit d -> the word "-0.000d."
    quad: np.ndarray     # 0..9999 -> the word "d.d.d.d."
    last: np.ndarray     # [i, g]: position of the last nonzero digit of group i = g among the
                         # 16 digits after the first, 1..16 (0 for g = 0)
    exp: np.ndarray      # E - _E_MIN -> the word "e+XXX"
    layout: np.ndarray   # E - _E_MIN -> 34 x its layout: E in -4..16, 2 or 3 exponent digits
    keep: np.ndarray     # 34 layout + 2 last + sign bit -> the six words of keep flags


@functools.cache
def _tables() -> _Tables:
    """10^p for p = 16 - E as the double-double ``hi + lo`` times 2^-k, with
    ``hi`` split into 26-bit halves, and the exact factor 2^k that scales |x|
    first: k = 512 for tiny |x| and -512 for huge |x|, so every product and
    split stays in the normal range.  Computed in integers only: ``int / int``
    rounds correctly.  Then the digit, exponent and keep tables.
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

    lead = np.zeros((10, 8), dtype=np.uint8)
    lead[:] = np.frombuffer(b"-0.000\x00.", dtype=np.uint8)
    lead[:, 6] = np.arange(10) + 48
    q = np.arange(10_000)
    qd = q[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = np.zeros((10_000, 8), dtype=np.uint8)
    quad[:, 0::2], quad[:, 1::2] = qd + 48, ord(".")
    last = 4 - np.argmax(qd[:, ::-1] != 0, axis=1)
    last = np.where(q > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.uint8)

    e = np.arange(_E_MIN, _E_MAX + 1)
    exp = np.zeros((e.size, 8), dtype=np.uint8)
    exp[:, 0], exp[:, 1] = ord("e"), np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2:5] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + 48
    fixed = (e >= -4) & (e < 17)
    layout = np.where(fixed, e + 4, np.where(np.abs(e) < 100, 21, 22))

    key = np.arange(23 * 17 * 2)
    rep_e = np.concatenate([np.arange(-4, 17), [17, 100]])[key // 34]
    keep = _key_slots(rep_e, key // 2 % 17 + 1, key % 2 == 1)
    return _Tables(pow10, lead.view("<u8").ravel(), quad.view("<u8").ravel(), last,
                   exp.view("<u8").ravel(), layout * 34, keep.view("<u8"))


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


def _float_field(x, words, keep, sep: bytes) -> None:
    """Write the '%.17g' text of float64 ``x`` and ``sep`` into the six-word
    columns ``words`` and their keep flags ``keep`` (both n x 6 '<u8')."""
    t = _tables()
    d, e, fallback = _decimal17(x)
    e -= _E_MIN
    # the 17 digits: the first, then four groups of four
    head = d // 10 ** 8
    tail = d - head * 10 ** 8
    first = head // 10 ** 8
    head -= first * 10 ** 8
    g0, g2 = head // 10 ** 4, tail // 10 ** 4
    g1, g3 = head - g0 * 10 ** 4, tail - g2 * 10 ** 4
    words[:, 0] = t.lead.take(first)
    for i, g in enumerate((g0, g1, g2, g3)):
        words[:, 1 + i] = t.quad.take(g)
    words[:, 5] = t.exp.take(e) + (ord(sep) << 40)
    last = np.maximum(np.maximum(t.last[0].take(g0), t.last[1].take(g1)),
                      np.maximum(t.last[2].take(g2), t.last[3].take(g3)))
    keep[...] = t.keep.take(t.layout.take(e) + 2 * last + np.signbit(x), axis=0)
    chars, flags = words.view(np.uint8), keep.view(bool)
    for i in np.flatnonzero(fallback):
        text = b"%.17g" % float(x[i])
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        flags[i, :_SEP] = np.arange(_SEP) < len(text)


def _text_field(a):
    """The bytes of each element of a non-float column: (n x width bytes, lengths)."""
    if a.dtype.kind == "U":
        texts = [t.encode() for t in a.tolist()]
    elif a.dtype.kind in "iu":
        texts = [str(v).encode() for v in a.tolist()]
    else:
        texts = [_fmt(v).encode() for v in a]
    chars = np.array(texts or [b""], dtype=bytes)[:len(texts)]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    return chars.view(np.uint8).reshape(len(texts), chars.itemsize), lengths


def _block(columns) -> list[np.ndarray]:
    """The bytes of the CSV lines of equal-length 1-D columns, each ended by "\\n"."""
    n = columns[0].size
    texts = [None if a.dtype.kind == "f" else _text_field(a) for a in columns]
    # every field takes whole words: its text, then its separator in its last slot
    widths = [_FLOAT_WIDTH if t is None else (t[0].shape[1] + 8) // 8 * 8 for t in texts]
    chars = np.empty((n, sum(widths)), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=np.uint8)
    words, keep_words = chars.view("<u8"), keep.view("<u8")
    start = 0
    for i, (a, text, width) in enumerate(zip(columns, texts, widths)):
        end = start + width
        sep = b"\n" if i == len(columns) - 1 else b","
        if text is None:
            _float_field(a.astype(np.float64, copy=False), words[:, start // 8:end // 8],
                         keep_words[:, start // 8:end // 8], sep)
        else:
            body, lengths = text
            chars[:, start:start + body.shape[1]] = body
            chars[:, end - 1] = ord(sep)
            keep[:, start:end] = np.arange(width) < lengths[:, None]
            keep[:, end - 1] = 1
        start = end
    # compacted a slice at a time: np.compress takes an index per kept byte
    flags = keep.view(bool)
    return [np.compress(flags[i:i + _COMPACT_ROWS].ravel(), chars[i:i + _COMPACT_ROWS].ravel())
            for i in range(0, n, _COMPACT_ROWS)]


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """Write named columns with an optional metadata header, as UTF-8 text.

    Floats are written with round-trip precision: each is the text
    ``'%.17g' % x`` of the float64 value.
    """
    names = list(columns)
    arrays = [np.asarray(columns[k]).ravel() for k in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all columns must have equal length")
    header = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    header.append(",".join(names))
    with Path(path).open("wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        for start in range(0, length, _BLOCK_ROWS):
            f.writelines(_block([a[start:start + _BLOCK_ROWS] for a in arrays]))


def read_csv(path):
    """Inverse of write_csv: (metadata dict of strings, dict of float arrays)."""
    meta = {}
    rows = []
    names = None
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
