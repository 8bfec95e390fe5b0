"""Exact Clebsch-Gordan coefficients for integer and half-integer spins.

Spin labels are carried as twice their value so that half-integers stay
exact integers.  Coefficients follow the Condon-Shortley phase convention
and are evaluated through Racah's closed-form sum with arbitrary-precision
integer arithmetic; only the final division and square root round.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache, total_ordering

from ._frozen import Frozen


@total_ordering
class HalfInt(Frozen):
    """An integer or half-integer stored as twice its value; immutable.

    Parameters
    ----------
    twice : int
        Twice the represented value, e.g. ``HalfInt(3)`` is 3/2.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", twice)

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float, Fraction, string or HalfInt to HalfInt."""
        if isinstance(value, HalfInt):
            return value
        try:
            frac = Fraction(value) * 2
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
        if frac.denominator != 1:
            raise ValueError(f"{value!r} is not an integer or half-integer")
        return cls(int(frac))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2

    def __int__(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, numbers.Real):
            return self.value == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        return self.twice < HalfInt.of(other).twice

    def __hash__(self) -> int:
        # Equal numbers hash equally, so HalfInt(2) and 1 share dict slots.
        return hash(self.value)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def _check_pair(tj: int, tm: int) -> None:
    if tj < 0:
        raise ValueError(f"negative spin label 2j={tj}")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"m and j differ by a non-integer: 2j={tj}, 2m={tm}")
    if abs(tm) > tj:
        raise ValueError(f"|m| exceeds j: 2j={tj}, 2m={tm}")


def _checked_labels(j1, m1, j2, m2, J, M) -> tuple[int, ...]:
    """The six labels as twice their values, each (j, m) pair validated."""
    twice = tuple(HalfInt.of(v).twice for v in (j1, m1, j2, m2, J, M))
    for k in (0, 2, 4):
        _check_pair(twice[k], twice[k + 1])
    return twice


@lru_cache(maxsize=None)
def _cg_signed_square(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int):
    """Signed square of a CG coefficient in exact integers: Racah's sum
    over one common denominator.

    Returns ``(sign, num, den)``, sign in {-1, 0, 1}, square ``num / den``
    (unreduced; ``int / int`` rounds it as ``float(Fraction)`` does).
    Selection-rule violations return (0, 0, 1).
    """
    if tm1 + tm2 != tM:
        return 0, 0, 1
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2:
        return 0, 0, 1
    if (tj1 + tj2 + tJ) % 2 != 0:
        # j1 + j2 + J must be an integer for a non-zero coefficient.
        return 0, 0, 1

    # All of the following are genuine integers by the parity checks above.
    a = (tj1 + tj2 - tJ) // 2
    b = (tj1 - tj2 + tJ) // 2
    c = (-tj1 + tj2 + tJ) // 2
    jm1 = (tj1 - tm1) // 2
    jp1 = (tj1 + tm1) // 2
    jm2 = (tj2 - tm2) // 2
    jp2 = (tj2 + tm2) // 2
    JM = (tJ + tM) // 2
    Jm = (tJ - tM) // 2

    f = math.factorial
    x, y = (tJ - tj1 - tm2) // 2, (tJ - tj2 + tm1) // 2
    k_lo, k_hi = max(0, -x, -y), min(a, jm1, jp2)
    # Racah's terms over one common denominator L: each factorial divides
    # its value at the end of the range where it is largest.
    L = (f(k_hi) * f(a - k_lo) * f(jm1 - k_lo) * f(jp2 - k_lo) * f(x + k_hi)
         * f(y + k_hi))
    total = 0
    for k in range(k_lo, k_hi + 1):
        den = f(k) * f(a - k) * f(jm1 - k) * f(jp2 - k) * f(x + k) * f(y + k)
        total += -(L // den) if k % 2 else L // den
    if total == 0:
        return 0, 0, 1
    norm = ((tJ + 1) * f(a) * f(b) * f(c) * f(JM) * f(Jm)
            * f(jm1) * f(jp1) * f(jm2) * f(jp2))
    sign = 1 if total > 0 else -1
    return (sign, total * total * norm,
            L * L * f((tj1 + tj2 + tJ) // 2 + 1))


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Labels may be ints, floats, Fractions, strings or HalfInt.  Invalid
    label pairs (|m| > j, or m not matching the parity of j) raise
    ValueError; mere selection-rule failures return 0.0.
    """
    sign, num, den = _cg_signed_square(*_checked_labels(j1, m1, j2, m2, J, M))
    return sign * math.sqrt(num / den)

