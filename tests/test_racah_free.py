"""Spin sector data without Racah sums at runtime, and the stack-inner
Pauli transforms: each bit for bit against its reference route."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sweyl import clebsch, verify
from sweyl.cli import main
from sweyl.clebsch import HalfInt, clebsch_gordan
from sweyl.models import SpinModel, _cg_diagonals
from sweyl.paulis import pauli_operators, pauli_transform

from oracles import (cg_diagonals_stepwise, clebsch_gordan_signed_square,
                     pauli_operators_rows, pauli_transform_rows,
                     spin_taus_racah)

SIZES = list(range(1, 61)) + [99, 100, 101, 199, 200]


@pytest.mark.parametrize("tS", SIZES)
def test_closed_form_taus_equal_the_racah_route_bitwise(tS):
    model = SpinModel(HalfInt(tS))
    assert np.array_equal(model.taus, spin_taus_racah(model))


@pytest.mark.parametrize("tS", SIZES)
def test_cg_table_equals_the_stepwise_recursion_bitwise(tS):
    got, want = _cg_diagonals(tS), cg_diagonals_stepwise(tS)
    assert len(got) == len(want) == tS + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
def test_stack_inner_pauli_transforms_equal_the_row_layout(n, lead):
    rng = np.random.default_rng([n, len(lead)])
    shape = lead + (2 ** n, 2 ** n)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = pauli_transform(A)
    assert got.shape == lead + (4 ** n,) and got.flags.c_contiguous
    assert np.array_equal(got, pauli_transform_rows(A))
    assert np.array_equal(pauli_transform(A.real), pauli_transform_rows(A.real))
    b = rng.normal(size=lead + (4 ** n,)) + 1j * rng.normal(size=lead + (4 ** n,))
    assert np.array_equal(pauli_operators(b), pauli_operators_rows(b))
    assert np.array_equal(pauli_operators(b.real), pauli_operators_rows(b.real))


def test_integer_signed_squares_round_as_the_fraction():
    for tj1 in range(7):
        for tj2 in range(7):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) > tJ:
                            continue
                        labels = [HalfInt(t) for t in
                                  (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)]
                        sign, square = clebsch_gordan_signed_square(*labels)
                        assert isinstance(square, Fraction)
                        want = sign * math.sqrt(float(square))
                        assert clebsch_gordan(*labels) == want


def test_cg_normalization_value_matches_the_fraction_route():
    dev = 0.0
    for tj1 in range(5):
        for tj2 in range(5):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in range(-tJ, tJ + 1, 2):
                    acc = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tM - tm1
                        if abs(tm2) > tj2:
                            continue
                        sign, square = clebsch_gordan_signed_square(
                            *(HalfInt(t) for t in (tj1, tm1, tj2, tm2, tJ, tM)))
                        acc += (sign * math.sqrt(float(square))) ** 2
                    dev = max(dev, abs(acc - 1.0))
    checks = verify.run_checks("spin", "1", 2, seed=0)
    got = next(c for c in checks if c.name == "cg_normalization")
    assert got.value == dev


def test_purities_make_no_racah_sum(monkeypatch, tmp_path):
    def refuse(*labels):
        raise AssertionError(f"Racah sum for {labels}")

    monkeypatch.setattr(clebsch, "_cg_signed_square", refuse)
    argv = ["purities", "--spin-S", "45/2", "--state", "haar", "--state",
            "hw", "--s", "-1", "--s", "1", "--seed", "3",
            "--out", str(tmp_path)]
    assert main(argv) == 0
