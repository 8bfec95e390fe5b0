"""Deterministic plain-text outputs: CSV tables, PPM heatmaps, projections.

Everything here is display plumbing.  A writer's bytes are those of its
cells' own ``%.17g`` (CSV, which reads back as the same doubles),
``float.__repr__`` (JSON) or ``%d`` (plain-text P3 PPM).  CSV and PPM
text is assembled as NUL-padded ``uint8`` matrices, one row per table
row or pixel, whose NULs one ``bytes.translate`` drops (per block of
``_CSV_BLOCK`` rows for a CSV table).  ``float_cells`` writes ``%.17g``
in numpy, byte for byte: fixed notation for ``1e-4 <= |v| < 1e17`` from
the exactly rounded 17-digit integer of ``|v| 10**(16 - k)``, and
Python's ``%`` for every other value.  Each distinct double of a CSV
table, or of a JSON column, is formatted once.  The Robinson projection
is a display-only monotone remap of equirectangular rows built from the
published 5-degree coefficient table.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

# Robinson's table: latitude (degrees), parallel length factor, distance
# of the parallel from the equator (normalized to 1 at the pole).
ROBINSON_TABLE = [
    (0, 1.0000, 0.0000),
    (5, 0.9986, 0.0620),
    (10, 0.9954, 0.1240),
    (15, 0.9900, 0.1860),
    (20, 0.9822, 0.2480),
    (25, 0.9730, 0.3100),
    (30, 0.9600, 0.3720),
    (35, 0.9427, 0.4340),
    (40, 0.9216, 0.4958),
    (45, 0.8962, 0.5571),
    (50, 0.8679, 0.6176),
    (55, 0.8350, 0.6769),
    (60, 0.7986, 0.7346),
    (65, 0.7597, 0.7903),
    (70, 0.7186, 0.8435),
    (75, 0.6732, 0.8936),
    (80, 0.6213, 0.9394),
    (85, 0.5722, 0.9761),
    (90, 0.5322, 1.0000),
]

_LATS = np.array([row[0] for row in ROBINSON_TABLE], dtype=float)
_PLEN = np.array([row[1] for row in ROBINSON_TABLE], dtype=float)
_PDFE = np.array([row[2] for row in ROBINSON_TABLE], dtype=float)

BACKGROUND = (200, 200, 200)

# P3 text of level v: "v " at index v, "v\n" at 256 + v; NUL-padded.
_PPM_CELLS = np.array([b"%d " % v for v in range(256)]
                      + [b"%d\n" % v for v in range(256)], dtype="S4")
_CSV_BLOCK = 512  # rows per write: one block of row bytes, tens of KB

# Fixed-notation '%.17g' cells, one column per value (see float_cells):
# a sign slot, the "0.000" of -4 <= k < 0, then the 17 digits with a
# point slot after each of the first 16.
_POW10 = 10.0 ** np.arange(22)  # exact doubles
_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two 26-bit halves
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PLACES = np.arange(17, dtype=np.int8)[:, None]
_CELL = 1 + 5 + 17 + 16  # wider than any '%.17g' text (24 bytes)
_FIXED_CHUNK = 1 << 12  # values per pass: under 1 MB of temporaries


def colorize(values: np.ndarray) -> np.ndarray:
    """Map a 2-D field to RGB bytes.

    Fields with negative entries get a symmetric diverging scale (blue,
    white, red) centered at zero; non-negative fields get a linear
    grayscale between min and max.  At rounding level, 1e-12 of the largest
    magnitude, a spread is drawn as the constant it is, in one colour, and
    a negative minimum as zero, not as stretched rounding noise."""
    vals = np.asarray(values, dtype=float)
    tol = 1e-12 * np.max(np.abs(vals))
    if vals.max() - vals.min() <= tol:
        vals = np.full_like(vals, vals.max())
    out = np.zeros(vals.shape + (3,), dtype=np.uint8)
    if vals.min() < -tol:
        vmax = np.max(np.abs(vals))
        t = vals / vmax if vmax > 0 else np.zeros_like(vals)
        fade = np.floor(255 * (1 - np.abs(t)) + 0.5).astype(np.uint8)
        neg = t < 0
        out[..., 0] = np.where(neg, fade, 255)
        out[..., 1] = fade
        out[..., 2] = np.where(neg, 255, fade)
    else:
        lo, hi = vals.min(), vals.max()
        span = hi - lo
        t = (vals - lo) / span if span > 0 else np.zeros_like(vals)
        gray = np.floor(255 * t + 0.5).astype(np.uint8)
        out[..., 0] = out[..., 1] = out[..., 2] = gray
    return out


def write_ppm(path, rgb: np.ndarray, comments=()) -> None:
    """Write an RGB byte array as plain-text P3 PPM."""
    rgb = np.asarray(rgb)
    h, w, _ = rgb.shape
    lines = ["P3"]
    for c in comments:
        lines.append(f"# {c}")
    lines.append(f"{w} {h}")
    lines.append("255\n")
    body = _PPM_CELLS[rgb.reshape(-1, 3) + np.array([0, 0, 256])]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8"))
        fh.write(body.tobytes().translate(None, b"\0"))


def robinson_remap(rgb: np.ndarray, background=BACKGROUND) -> np.ndarray:
    """Remap an equirectangular image into a Robinson-projected frame.

    Rows move vertically by the distance table and shrink horizontally by
    the parallel-length table; pixels are nearest-neighbor copies of the
    source, so rows stay monotone and no data values are altered.
    """
    rgb = np.asarray(rgb)
    h, w, _ = rgb.shape
    y = 1 - 2 * (np.arange(h) + 0.5) / h  # +1 north pole, -1 south pole
    lat = np.interp(np.abs(y), _PDFE, _LATS)
    plen = np.interp(lat, _LATS, _PLEN)[:, None]
    theta = np.radians(90 - np.copysign(lat, y))
    src_r = np.clip((theta / math.pi * h).astype(int), 0, h - 1)[:, None]
    u = (np.arange(w) + 0.5) / w - 0.5
    inside = np.abs(u) <= plen / 2
    # astype(int) truncates toward zero, as int() does.
    src_c = np.clip(((u / plen + 0.5) * w).astype(int), 0, w - 1)
    out = rgb[src_r, src_c]
    out[~inside] = background
    return out


@functools.cache
def _quads() -> np.ndarray:
    """ASCII digits of 0000 ... 9999, one column each: (4, 10000) uint8."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((4, 10, 10, 10, 10), dtype=np.uint8)
    quads[0] = digits[:, None, None, None]
    quads[1] = digits[:, None, None]
    quads[2] = digits[:, None]
    quads[3] = digits
    quads.flags.writeable = False
    return quads.reshape(4, 10000)


def _split(a):
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """``(x, e)`` with ``x = fl(a b)`` and ``a b = x + e`` exactly
    (Dekker, Numer. Math. 18, 224 (1971)).  Each step is its own ufunc,
    so no fused multiply-add can round ``e``."""
    x = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return x, a2 * b2 - (((x - a1 * b1) - a2 * b1) - a1 * b2)


def _fixed_cells(v: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write the fixed-notation ``%.17g`` of each value with ``1e-4 <=
    |v| < 1e17`` into its column of ``cells``, a zeroed (_CELL, n) uint8
    matrix; return the mask of the values written exactly.

    With ``k = floor(log10 |v|)``, at most 16, the 17 significant digits
    are ``D``, the integer nearest ``|v| 10**(16 - k)`` (ties to even, as
    Python's dtoa rounds).  ``10**(16 - k)`` is an exact double, so the
    product is ``x + e`` exactly; ``x >= 1e16 > 2**53`` is an even
    integer, hence ``D = x + rint(e)``.  Where ``log10`` rounded ``k``
    across a power of ten, ``D`` falls outside [1e16, 1e17) and the mask
    is False.  Trailing zeros after the point are dropped, and the point
    with them when nothing follows it.
    """
    mag = np.abs(v)
    done = (mag >= 1e-4) & (mag < 1e17)
    mag[~done] = 1.0
    # -5 <= k: log10 may round down at 1e-4, where D then falls short.
    k = np.minimum(np.floor(np.log10(mag)), 16).astype(np.int8)
    x, e = _two_product(mag, _POW10[16 - k])
    digits = x.astype(np.int64) + np.rint(e).astype(np.int64)
    done &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    lead, rest = np.divmod(digits, 10 ** 16)
    text = np.empty((17, len(v)), dtype=np.uint8)
    text[0] = lead
    text[0] += ord("0")
    quads = _quads()
    high, low = np.divmod(rest, 10 ** 8)
    quad_values = np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)
    for g, quad in enumerate(quad_values):
        np.take(quads, quad, axis=1, out=text[1 + 4 * g:5 + 4 * g],
                mode="clip")  # every quad is in range; "raise" buffers
    # Keep the digits up to the last nonzero one and every integer digit.
    last = np.max((text != ord("0")) * _PLACES, axis=0)
    np.maximum(last, k, out=last)
    text *= _PLACES <= last
    cells[0] = v < 0
    cells[0] *= ord("-")
    cells[1:6] = _ZEROS * ((_PLACES[:5] < 1 - k) & (k < 0))
    cells[6::2] = text
    point = np.flatnonzero((k >= 0) & (last > k))
    cells[7 + 2 * k[point].astype(np.intp), point] = ord(".")
    return done


def float_cells(values) -> np.ndarray:
    """``'%.17g' % v`` of each value as one row of a NUL-padded uint8
    matrix: numpy's fixed notation where it is exact (``_fixed_cells``,
    ``_FIXED_CHUNK`` values at a time), one ``%`` template over the other
    values (zeros, ``|v| < 1e-4``, ``|v| >= 1e17``, non-finite, and a
    ``log10`` rounded across a power of ten)."""
    v = np.ascontiguousarray(values, dtype=float).ravel()
    cells = np.zeros((_CELL, len(v)), dtype=np.uint8)
    done = np.empty(len(v), dtype=bool)
    for start in range(0, len(v), _FIXED_CHUNK):
        part = slice(start, start + _FIXED_CHUNK)
        done[part] = _fixed_cells(v[part], cells[:, part])
    rest = np.flatnonzero(~done)
    if len(rest):
        text = "\0".join(["%.17g"] * len(rest)) % tuple(v[rest].tolist())
        other = np.array(text.encode().split(b"\0"), dtype="S")
        other = other.view(np.uint8).reshape(len(rest), -1)
        cells[:, rest] = 0
        cells[:other.shape[1], rest] = other.T
    cells = cells[cells.any(axis=1)]  # the bytes some value uses
    return np.ascontiguousarray(cells.T)


def grid_cells(theta, phi) -> np.ndarray:
    """The ``"theta,phi"`` text of every node of a product grid, theta
    major, as a ``write_csv`` text column: each theta's cell broadcast
    against each phi's, so each angle is formatted once."""
    first, second = float_cells(theta), float_cells(phi)
    shape = (len(first), len(second))
    return np.concatenate(
        [np.broadcast_to(first[:, None], shape + first.shape[1:]),
         np.full(shape + (1,), ord(","), dtype=np.uint8),
         np.broadcast_to(second, shape + second.shape[1:])],
        axis=2).reshape(shape[0] * shape[1], -1)


def _text_cells(column):
    """A text column as a NUL-padded uint8 matrix (from str cells, which
    may hold any character but NUL, or given as one); None for a float
    column."""
    if (isinstance(column, np.ndarray) and column.ndim == 2
            and column.dtype == np.uint8):
        return column
    if not (len(column) and isinstance(column[0], str)):
        return None
    text = "\0".join(column)
    if text.count("\0") != len(column) - 1:
        raise ValueError("a CSV text cell holds a NUL character")
    cells = np.array(text.encode("utf-8").split(b"\0"), dtype="S")
    return cells.view(np.uint8).reshape(len(column), -1)


def write_csv(path, header: list[str], comments=(), *, columns) -> None:
    """Write a table of str/float ``columns`` (one sequence or array per
    column); floats at 17 significant digits.

    A column whose first cell is a str is written as text, as is a 2-D
    uint8 matrix whose rows are the NUL-padded cells; any other column is
    written as floats.  A text column may hold several fields of a row:
    ``phasespace`` passes its ``"theta,phi"`` prefixes (``grid_cells``) to
    every field table.  Rows are assembled as byte matrices,
    ``_CSV_BLOCK`` at a time.
    """
    nrows = len(columns[0])
    texts = [_text_cells(c) for c in columns]
    # Each distinct bit pattern of the table's floats is formatted once,
    # in one float_cells call (so -0.0 keeps its sign).
    floats = [np.ascontiguousarray(c, dtype=float)
              for c, text in zip(columns, texts) if text is None]
    bits, pick = np.unique(np.concatenate(floats or [np.empty(0)]).view(
        np.uint64), return_inverse=True)
    values, picks = float_cells(bits.view(float)), iter(
        pick.reshape(len(floats), nrows))
    cells = [(values, next(picks)) if text is None else (text, None)
             for text in texts]
    head = [f"# {c}" for c in comments] + [",".join(header), ""]
    ends = np.full((_CSV_BLOCK, len(cells)), ord(","), dtype=np.uint8)
    ends[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write("\n".join(head).encode("utf-8"))
        for start in range(0, nrows, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            size = min(_CSV_BLOCK, nrows - start)
            parts = []
            for i, (text, pick) in enumerate(cells):
                parts += [text[block] if pick is None
                          else text.take(pick[block], axis=0),
                          ends[:size, i:i + 1]]
            fh.write(np.concatenate(parts, axis=1).tobytes().translate(
                None, b"\0"))


def _json_cells(column) -> list[str]:
    """``float.__repr__`` of each cell of a float column, formatted once
    per distinct bit pattern; the non-finite values spelt as
    ``json.dumps`` spells them."""
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64),
                              return_inverse=True)
    uniq = bits.view(float)
    texts = ("\n".join(["%r"] * len(uniq)) % tuple(uniq.tolist())).split("\n")
    for i in np.flatnonzero(~np.isfinite(uniq)):
        texts[i] = json.dumps(float(uniq[i]))
    return np.array(texts, dtype=object)[inverse].tolist()


def write_json(path, doc: dict, key=None, header=(), columns=()) -> None:
    """Write what ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a
    newline write, with ``doc[key]`` the list of row objects
    ``dict(zip(header, row))`` of a table given as str/float ``columns``.

    The rows go through one ``%`` template: float columns as
    ``float.__repr__`` (``NaN`` / ``Infinity`` / ``-Infinity`` when not
    finite), str columns through ``encode_basestring_ascii``; the rest of
    the document through ``json.dumps``, where the table stands as ``[]``
    on the only line that starts with its key at depth 1.
    """
    text = json.dumps(doc if key is None else {**doc, key: []}, indent=2,
                      sort_keys=True)
    if key is not None and columns and len(columns[0]):
        cells = [map(json.encoder.encode_basestring_ascii, c)
                 if isinstance(c[0], str) else _json_cells(c)
                 for c in columns]
        order = sorted(range(len(header)), key=header.__getitem__)
        row = ",\n".join("      " + json.dumps(header[i]).replace("%", "%%")
                          + ": %s" for i in order)
        body = ",\n".join(["    {\n" + row + "\n    }"] * len(columns[0]))
        table = body % tuple(itertools.chain.from_iterable(
            zip(*(cells[i] for i in order))))
        start = f"\n  {json.dumps(key)}: ["
        text = text.replace(start + "]", f"{start}\n{table}\n  ]", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def equirect_grid(ntheta: int, nphi: int):
    """Cell-centered display grid over the sphere."""
    theta = (np.arange(ntheta) + 0.5) * math.pi / ntheta
    phi = np.arange(nphi) * 2 * math.pi / nphi
    return theta, phi
