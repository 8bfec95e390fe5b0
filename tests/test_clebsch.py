"""Clebsch-Gordan coefficients: known values, sum rules, exactness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweyl.clebsch import HalfInt, clebsch_gordan

from oracles import cg_hw_zero, clebsch_gordan_signed_square

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG  # noqa: E402


H = HalfInt.of


def test_halfint_parsing():
    assert H("1/2").twice == 1
    assert H("-3/2").twice == -3
    assert H(2).twice == 4
    assert H(1.5).twice == 3
    assert float(H("5/2")) == 2.5
    assert str(H("3/2")) == "3/2"
    assert str(H(2)) == "2"
    assert H("1/2") + H("1/2") == H(1)
    assert H(1) - H("1/2") == H("1/2")
    assert -H("1/2") == H("-1/2")
    assert H(0) < H("1/2") < H(1)


@pytest.mark.parametrize("value", [
    0, 1, -2, 7, 0.0, 0.5, -1.5, 3.0, Fraction(1, 2), Fraction(-5, 2),
    Fraction(4, 2),
])
def test_halfint_eq_implies_equal_hash(value):
    h = H(value)
    assert h == value and value == h
    assert hash(h) == hash(value)
    assert {h: "x"}.get(value) == "x"
    assert {value: "x"}.get(h) == "x"


@given(st.integers(-2 ** 60, 2 ** 60),
       st.one_of(st.integers(), st.fractions(), st.text(max_size=3),
                 st.floats(allow_nan=False),
                 st.integers().map(H)))
def test_halfint_eq_implies_hash_property(twice, other):
    h = H(twice)
    for b in (other, H(twice), Fraction(twice, 2), twice / 2):
        if h == b:
            assert b == h
            assert hash(h) == hash(b)


def test_halfint_rejects_quarters():
    with pytest.raises(ValueError):
        H(0.25)
    with pytest.raises(ValueError):
        H("1/3")


def test_halfint_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        H("3/0")


def test_known_values():
    # Two spins 1/2 coupling to the triplet and singlet.
    assert clebsch_gordan(H("1/2"), H("1/2"), H("1/2"), H("-1/2"),
                          1, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(H("1/2"), H("1/2"), H("1/2"), H("-1/2"),
                          0, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(H("1/2"), H("-1/2"), H("1/2"), H("1/2"),
                          0, 0) == pytest.approx(-1 / math.sqrt(2))
    # 1 x 1 -> 1, stretched and zero projections.
    assert clebsch_gordan(1, 1, 1, 0, 1, 1) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(1, 1, 1, -1, 1, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(1, 0, 1, 0, 1, 0) == 0.0
    # 1 x 1 -> 2 at M = 0.
    assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(math.sqrt(2 / 3))
    # Top coupling is always 1.
    assert clebsch_gordan(3, 3, 3, 3, 6, 6) == 1.0


def test_signed_square_is_exact_fraction():
    sign, square = clebsch_gordan_signed_square(1, 0, 1, 0, 2, 0)
    assert sign == 1 and square == Fraction(2, 3)
    sign, square = clebsch_gordan_signed_square(
        H("1/2"), H("-1/2"), H("1/2"), H("1/2"), 0, 0)
    assert sign == -1 and square == Fraction(1, 2)
    # Selection rules give a hard zero.
    sign, square = clebsch_gordan_signed_square(1, 1, 1, 1, 1, 1)
    assert square == 0


def test_rejects_invalid_projection():
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 1, 0, 2, 2)
    with pytest.raises(ValueError):
        clebsch_gordan(H("1/2"), 0, H("1/2"), 0, 1, 0)  # parity mismatch


def _range(tj):
    return [HalfInt(t) for t in range(-tj, tj + 1, 2)]


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (1, 2), (2, 2), (3, 2), (4, 3)])
def test_orthogonality(tj1, tj2):
    # Rows of the coupling matrix are orthonormal:
    # sum_{m1,m2} C(j1 m1 j2 m2 | J M) C(j1 m1 j2 m2 | J' M') = delta.
    j1, j2 = HalfInt(tj1), HalfInt(tj2)
    couplings = []
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            couplings.append((HalfInt(tJ), HalfInt(tM)))
    rows = []
    for J, M in couplings:
        rows.append([clebsch_gordan(j1, m1, j2, m2, J, M)
                     if m1 + m2 == M else 0.0
                     for m1 in _range(tj1) for m2 in _range(tj2)])
    gram = np.array(rows) @ np.array(rows).T
    assert np.max(np.abs(gram - np.eye(len(rows)))) < 1e-13


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 2), (3, 1), (4, 4)])
def test_completeness(tj1, tj2):
    # Column sum rule: sum_{J,M} C(...)^2 = 1 for every (m1, m2).
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            total = Fraction(0)
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if abs(tm1 + tm2) > tJ:
                    continue
                _, square = clebsch_gordan_signed_square(
                    HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2),
                    HalfInt(tJ), HalfInt(tm1 + tm2))
                total += square
            assert total == 1  # exact rational arithmetic


@pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 1), (2, 2), (3, 3), (5, 4)])
def test_against_sympy(tj1, tj2):
    from sympy import Rational, sqrt  # noqa: F401
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                tM = tm1 + tm2
                if abs(tM) > tJ:
                    continue
                ours = clebsch_gordan(
                    HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2),
                    HalfInt(tJ), HalfInt(tM))
                ref = float(CG(Rational(tj1, 2), Rational(tm1, 2),
                               Rational(tj2, 2), Rational(tm2, 2),
                               Rational(tJ, 2), Rational(tM, 2)).doit())
                assert ours == pytest.approx(ref, abs=1e-14)


def test_cg_hw_zero():
    # <S S; S -S | lam 0>, the highest-weight overlap entering tau.
    assert cg_hw_zero(H("1/2"), 0) == pytest.approx(1 / math.sqrt(2))
    assert cg_hw_zero(H("1/2"), 1) == pytest.approx(1 / math.sqrt(2))
    assert cg_hw_zero(H(1), 1) == pytest.approx(1 / math.sqrt(2))
    assert cg_hw_zero(H(1), 2) == pytest.approx(1 / math.sqrt(6))
    with pytest.raises(ValueError):
        cg_hw_zero(H(1), 3)
    with pytest.raises(ValueError):
        cg_hw_zero(H(1), -1)


def _label_sets(max_twice: int):
    """Every (2j1, 2m1, 2j2, 2m2, 2J, 2M) with a non-zero coefficient
    allowed by the selection rules, 2j1, 2j2 <= max_twice."""
    for tj1 in range(max_twice + 1):
        for tj2 in range(max_twice + 1):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tJ:
                            yield tj1, tm1, tj2, tm2, tJ, tm1 + tm2


def test_signed_square_equals_sympy_exactly():
    # The integer Racah sum against sympy's exact CG, squared: equal as
    # rationals, with the same sign, on every label set with 2j <= 6.
    from sympy import Rational, sign
    count = 0
    for labels in _label_sets(6):
        ours_sign, ours = clebsch_gordan_signed_square(
            *(HalfInt(t) for t in labels))
        ref = CG(*(Rational(t, 2) for t in labels)).doit()
        assert isinstance(ours, Fraction)
        assert Rational(ours.numerator, ours.denominator) == ref ** 2
        assert ours_sign == sign(ref)
        count += 1
    assert count == 2408
