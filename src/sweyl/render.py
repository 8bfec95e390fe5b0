"""Deterministic plain-text outputs: CSV tables, PPM heatmaps, projections.

Everything here is display plumbing.  A writer's bytes are those of its
cells' own ``%.17g`` (CSV, which reads back as the same doubles),
``float.__repr__`` (JSON) or ``%d`` (plain-text P3 PPM), while each
distinct double of a float column is formatted once.  The Robinson
projection is a display-only monotone remap of equirectangular rows built
from the published 5-degree coefficient table.
"""

from __future__ import annotations

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
_CSV_BLOCK = 512  # rows per write: only one block of row strings is alive


def fmt(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


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
        fh.write(body.tobytes().replace(b"\0", b""))


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


def _float_cells(column, spec: str, json_names: bool = False) -> list[str]:
    """``spec % v`` of each cell of a float column, formatted once per
    distinct bit pattern (so ``-0.0`` is not ``0.0``); ``json_names``
    spells the non-finite values as ``json.dumps`` does."""
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64),
                              return_inverse=True)
    uniq = bits.view(float)
    texts = ("\n".join([spec] * len(uniq)) % tuple(uniq.tolist())).split("\n")
    if json_names:
        for i in np.flatnonzero(~np.isfinite(uniq)):
            texts[i] = json.dumps(float(uniq[i]))
    return np.array(texts, dtype=object)[inverse].tolist()


def write_csv(path, header: list[str], rows=(), comments=(), *,
              columns=None) -> None:
    """Write a table of str/float columns; floats at 17 significant digits.

    The table is given as ``rows`` (sequences of cells) or as ``columns``
    (one sequence or array per column).  A column whose first cell is a
    str is written as text, any other as floats.  A text column may hold
    several fields of a row: ``phasespace`` formats its ``"theta,phi"``
    prefixes once and passes them as one column to every field table.
    """
    if columns is None:
        columns = list(zip(*rows)) or [()] * len(header)
    cols = [c if len(c) and isinstance(c[0], str) else _float_cells(c, "%.17g")
            for c in columns]
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    rows = map(",".join, zip(*cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        for _ in range(0, len(cols[0]), _CSV_BLOCK):
            fh.write("\n" + "\n".join(itertools.islice(rows, _CSV_BLOCK)))
        fh.write("\n")


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
                 if isinstance(c[0], str) else _float_cells(c, "%r", True)
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
