"""``render.float_cells`` against Python's own ``'%.17g'``, byte for byte.

The numpy route writes fixed notation for ``1e-4 <= |v| < 1e17`` from the
exactly rounded 17-digit integer (Dekker's product) and leaves every other
value to ``%``.  The sets below aim at each way that can go wrong: the
rounding (random mantissas, exact and near ties), the exponent taken from
``log10`` (powers of ten and their neighbours), the even integers past
2**53, the edges of the numpy range, and the values that must go to
``%`` (signed zeros, subnormals, NaN of both signs, infinities).
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from sweyl import render


def assert_matches_percent(values):
    values = np.asarray(values, dtype=float)
    cells = render.float_cells(values)
    assert cells.shape[0] == len(values) and cells.dtype == np.uint8
    rows = np.concatenate(
        [cells, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    got = rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = ("\n".join(["%.17g"] * len(values))
            % tuple(values.tolist())).split("\n")
    bad = [(float(v).hex(), g, w)
           for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, (len(bad), bad[:5])


def random_bits(rng, n):
    return rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(float)


def random_in_range(rng, n):
    """Random mantissas and signs at binary exponents across 1e-4 ... 1e17."""
    mantissa = rng.integers(0, 2 ** 52, size=n, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 57, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52))
            | mantissa).view(float)


def subnormals(rng, n):
    """Random subnormals of both signs, zeros among them."""
    bits = rng.integers(0, 2 ** 52, size=n, dtype=np.uint64)
    bits[:10] = 0
    bits[n // 2:] |= np.uint64(1) << np.uint64(63)
    return bits.view(float)


def exact_ties(rng, per_p):
    """Doubles whose 17-digit rounding is an exact tie: ``j / 2**(p+1)``
    with j odd is ``(m + 0.5) 10**-p`` for ``m = (j 5**p - 1) / 2``, and
    an exact double while j < 2**53."""
    out = []
    for p in range(1, 21):
        lo = math.ceil(10 ** (16 - p) * 2 ** (p + 1))
        hi = min(10 ** (17 - p) * 2 ** (p + 1), 2 ** 53)
        j = rng.integers(lo // 2, hi // 2, size=per_p, dtype=np.int64) * 2 + 1
        out.append(np.ldexp(j.astype(float), -(p + 1)))
    for tie in out:  # exactly 18 significant digits, the last a 5
        assert Decimal(tie[0]).as_tuple().digits[17:] == (5,)
    return np.concatenate(out)


def near_ties(rng, per_p):
    """``(m + 0.5) 10**-p`` rounded to a double: within an ulp of a tie."""
    m = rng.integers(10 ** 16, 10 ** 17, size=(21, per_p)).astype(float)
    return ((m + 0.5) * 10.0 ** -np.arange(21)[:, None]).ravel()


def neighbours(x, ulps):
    """x and its ``ulps`` nearest doubles on each side."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    return (bits[..., None] + steps).ravel().view(float)


def test_more_than_a_million_values_match_percent():
    rng = np.random.default_rng(20260417)
    powers = 10.0 ** np.arange(-8, 18)
    two53 = 2.0 ** 53
    values = np.concatenate([
        random_bits(rng, 300_000),
        random_in_range(rng, 400_000),
        exact_ties(rng, 5_000),
        near_ties(rng, 5_000),
        neighbours(powers, 3),
        neighbours(-powers, 3),
        two53 + np.arange(-20_000, 20_000, dtype=float),
        neighbours(two53, 500),
        neighbours([1e-4, 1e17], 500),
        -neighbours([1e-4, 1e17], 500),
        subnormals(rng, 100_000),
    ])
    assert len(values) >= 10 ** 6
    assert_matches_percent(values)


NEG_NAN = float(np.copysign(np.nan, -1.0))


@pytest.mark.parametrize("values", [
    [0.0, -0.0],
    [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1e-320],
    [np.nan, NEG_NAN, np.inf, -np.inf],
    [1e-4, np.nextafter(1e-4, 0), 1e17, np.nextafter(1e17, 0),
     np.nextafter(1e17, np.inf)],
    [1.0, 10.0, 0.5, 0.1, 2.0 / 3.0, -1e16, 99999999999999984.0,
     1000000000000000.25],
    [],
], ids=["signed-zeros", "subnormals", "non-finite", "range-edges",
        "short-and-long", "empty"])
def test_special_values_match_percent(values):
    assert_matches_percent(values)


def test_exact_ties_round_half_even():
    # 1e15 + 0.25 is ...000.2|5 at 17 digits: the even neighbour wins.
    assert render.float_cells([1000000000000000.25]).tobytes().strip(
        b"\0") == b"1000000000000000.2"
    assert render.float_cells([1000000000000000.75]).tobytes().strip(
        b"\0") == b"1000000000000000.8"
