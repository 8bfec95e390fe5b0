"""Refusals and edge branches that no other test reaches.

Each test runs one statement of ``src/sweyl`` that ``tests/untested_lines.py``
found never run by the rest of the suite, and asserts its result or its
``ValueError`` message.
"""

import numpy as np
import pytest

from sweyl import gfd, phase_space as ps, verify
from sweyl.clebsch import HalfInt, _cg_signed_square, clebsch_gordan
from sweyl.models import (FermionicModel, MultipartiteModel, QrtModel,
                          SpinModel)
from sweyl.paulis import PauliString, pauli_transform

from oracles import PauliSum, from_label, pauli_mul


# -- clebsch -------------------------------------------------------------------

def test_halfint_to_int():
    assert int(HalfInt(4)) == 2 and int(HalfInt(-6)) == -3
    with pytest.raises(ValueError, match="3/2 is not an integer"):
        int(HalfInt(3))


def test_halfint_reflected_subtraction():
    assert 1 - HalfInt(1) == HalfInt(1)
    assert "3/2" - HalfInt(5) == HalfInt(-2)


def test_clebsch_gordan_refuses_a_negative_spin():
    with pytest.raises(ValueError, match="negative spin label 2j=-2"):
        clebsch_gordan(-1, 0, 1, 0, 1, 0)


def test_selection_rules_give_zero():
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # J past j1 + j2
    assert clebsch_gordan(2, 0, 1, 0, 0, 0) == 0.0  # J under |j1 - j2|
    # Validated labels always have an even 2(j1 + j2 + J); the direct
    # callers of the exact square still get zero for an odd one.
    assert _cg_signed_square(1, 1, 2, 0, 2, 1) == (0, 0, 1)


# -- paulis --------------------------------------------------------------------

def test_pauli_string_refusals():
    with pytest.raises(ValueError, match="bad Pauli letter 'Q'"):
        from_label("XQ")
    one, two = from_label("X"), from_label("XX")
    with pytest.raises(ValueError, match="qubit counts differ"):
        pauli_mul(one, two)


def test_a_cancelled_term_is_dropped():
    total = PauliSum.from_string(from_label("YZ"), 0.25)
    total.add_string(from_label("-YZ"), 0.25)
    assert total.terms == {}


def test_dense_and_transform_refusals():
    with pytest.raises(ValueError, match="dense conversion capped at 12"):
        PauliString(13, 0, 0).to_dense()
    with pytest.raises(ValueError, match=r"need a 2\*\*n x 2\*\*n operator"):
        pauli_transform(np.zeros((3, 3)))


# -- models --------------------------------------------------------------------

def test_qrt_model_stubs_are_abstract():
    model = QrtModel()
    with pytest.raises(NotImplementedError):
        model.labels()
    with pytest.raises(NotImplementedError):
        model.trivial_label


def test_spin_refusals():
    with pytest.raises(ValueError, match="has no Pauli-word sectors"):
        SpinModel(1).sector_words(0)
    with pytest.raises(ValueError, match=r"need S >= 1/2"):
        SpinModel(0)
    with pytest.raises(ValueError, match=r"sector 3 outside 0\.\.2S"):
        SpinModel(1).irrep_block(3)


def test_fermionic_refusals():
    with pytest.raises(ValueError, match="dense sector bases capped at n <= 4"):
        FermionicModel(5).irrep_block(0)
    with pytest.raises(ValueError, match=r"sector 5 outside 0\.\.2n"):
        FermionicModel(2).irrep_block(5)
    with pytest.raises(ValueError, match="generator has wrong shape"):
        FermionicModel(2).point_unitary(np.zeros((2, 2)))


@pytest.mark.parametrize("n", [1, 3])
def test_multipartite_identity_point(n):
    model = MultipartiteModel(n)
    point = model.identity_point()
    assert point == ((0.0, 0.0),) * n
    assert np.allclose(model.point_unitary(point), np.eye(2 ** n), atol=1e-15)


# -- phase_space and verify ----------------------------------------------------

def test_sphere_quadrature_refuses_a_negative_band():
    with pytest.raises(ValueError, match="band must be non-negative"):
        ps.sphere_quadrature(-0.5)


def test_star_product_refuses_generalized_specs():
    model = SpinModel(1)
    grid = ps.sphere_quadrature(model.S.twice)
    spec = ps.KernelSpec.generalized({0: 1.0, 1: 0.5, 2: 2.0})
    field = ps.symbol_field(model, np.eye(3), grid, spec)
    with pytest.raises(ValueError, match="needs standard-family fields"):
        ps.star_product(field, field, 0.0, [model.random_point(0)])


def test_make_model_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind 'bosonic'"):
        verify.make_model("bosonic")
