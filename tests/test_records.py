"""The record classes: plain classes with ``__slots__``.

``HalfInt``, ``PauliString``, ``KernelSpec`` and ``FermionicPoint`` are
immutable and validate in ``__init__``; the first three compare and hash
by their fields.  The other six are mutable bags of fields.
"""

import copy
import pickle

import numpy as np
import pytest

from sweyl import gfd, phase_space as ps, verify
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicPoint, IrrepBlock
from sweyl.paulis import PauliString

FROZEN = [
    (HalfInt(3), "twice"),
    (PauliString(2, 1, 2, 1), "phase"),
    (ps.KernelSpec.cahill_glauber(0.5), "s"),
    (ps.KernelSpec.generalized({0: 1.0, 1: 0.5}), "coeffs"),
    (FermionicPoint(np.zeros((4, 4))), "h"),
]


@pytest.mark.parametrize("record, field", FROZEN,
                         ids=lambda v: type(v).__name__)
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to take new names
    assert getattr(record, field) is before


@pytest.mark.parametrize("record, field", FROZEN,
                         ids=lambda v: type(v).__name__)
def test_frozen_records_copy_and_pickle(record, field):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert np.array_equal(getattr(twin, field), getattr(record, field))


def test_pauli_strings_compare_and_hash_by_fields():
    for x, y in [(PauliString(3, 5, 3, 2), PauliString(3, 5, 3, 6)),
                 (PauliString.from_label("XY"), PauliString(2, 3, 2, 1))]:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
    assert PauliString(2, 1, 0) != PauliString(2, 2, 0)
    assert PauliString(1, 0, 0) != PauliString(2, 0, 0)
    assert PauliString(1, 1, 0, 1) != PauliString(1, 1, 0, 3)
    assert PauliString(1, 0, 0) != (1, 0, 0, 0)  # not a tuple
    assert repr(PauliString(2, 1, 2, 3)) == \
        "PauliString(n=2, x=1, z=2, phase=3)"


@pytest.mark.parametrize("phase", range(-9, 10))
def test_pauli_phase_is_reduced_mod_4(phase):
    ps_ = PauliString(2, 1, 3, phase)
    assert ps_.phase == phase % 4
    assert PauliString(2, 1, 3, phase=phase) == ps_


def test_pauli_string_validates_its_masks():
    with pytest.raises(ValueError, match="at least one qubit"):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError, match="mask exceeds"):
        PauliString(2, 4, 0)
    with pytest.raises(ValueError, match="mask exceeds"):
        PauliString(2, 0, 0b111)


def test_kernel_specs_compare_and_hash_by_fields():
    pairs = [(ps.KernelSpec.cahill_glauber(-1), ps.KernelSpec(s=-1.0)),
             (ps.KernelSpec.generalized({1: 0.5, 0: 1.0}),
              ps.KernelSpec(coeffs=((0, 1.0), (1, 0.5)))),
             (ps.KernelSpec(), ps.KernelSpec(None, None))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert ps.KernelSpec(s=0.0) != ps.KernelSpec(s=1.0)
    assert ps.KernelSpec(s=0.0) != ps.KernelSpec(coeffs=((0, 1.0),))
    assert ps.KernelSpec.generalized({0: 1.0}) != \
        ps.KernelSpec.generalized({0: 2.0})
    assert ps.KernelSpec(s=0.0).dual() == ps.KernelSpec(s=-0.0)
    assert repr(ps.KernelSpec(s=0.5)) == "KernelSpec(s=0.5, coeffs=None)"


def test_halfint_keeps_its_numeric_equality():
    assert HalfInt(4) == 2 and hash(HalfInt(4)) == hash(2)
    assert HalfInt(3) == HalfInt.of("3/2") and HalfInt(3) < 2
    assert repr(HalfInt(3)) == "HalfInt(3/2)"


def test_fermionic_point_validates_its_generator():
    h = np.array([[0.0, 0.3], [-0.3, 0.0]])
    point = FermionicPoint(h.tolist())
    assert point.h.dtype == float and np.array_equal(point.h, h)
    assert np.array_equal(np.asarray(point), h)
    with pytest.raises(ValueError, match="antisymmetric"):
        FermionicPoint(np.ones((2, 2)))
    with pytest.raises(ValueError, match="even size"):
        FermionicPoint(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="even size"):
        FermionicPoint(np.zeros((2, 4)))


def test_plain_records_keep_their_signatures_and_defaults():
    grid = ps.Quadrature(np.zeros((1, 1, 2)), np.ones(1))
    assert (grid.band, grid.factor) == (None, None)
    grid.band = 0.5  # mutable, as before
    field = ps.SymbolField(None, grid, ps.KernelSpec(s=0.0), np.zeros(1))
    row = gfd.DualityRow(s=0.0, label=1, lhs_mean=0.1, lhs_se=0.01, rhs=0.1,
                         zscore=0.0, trivial=False)
    result = verify.CheckResult("c", True, 1.0, 2.0, 2.0)
    records = [grid, field, row, result,
               gfd.PuritySpectrum([0, 1], np.array([0.25, 0.75])),
               IrrepBlock(0, 1, np.eye(2)[None] / np.sqrt(2))]
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1
    assert verify.CheckResult.__slots__ == (
        "name", "passed", "value", "bound", "tolerance")
    assert records[4].total == 1.0 and records[4][1] == 0.75
