"""The shared record protocol (``sweyl._frozen.Frozen``).

``HalfInt``, ``PauliString``, ``KernelSpec`` and ``FermionicPoint``
inherit it and keep only their ``__init__`` and what differs:
``HalfInt`` its numeric equality and ``FermionicPoint`` identity.
"""

import numpy as np
import pytest

from sweyl import phase_space as ps
from sweyl._frozen import Frozen
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicPoint
from sweyl.paulis import PauliString

from oracles import PauliSum, from_label

RECORDS = (HalfInt, PauliString, ps.KernelSpec, FermionicPoint)
PROTOCOL = ("__setattr__", "__delattr__", "__reduce__")


class Pair(Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class Twin(Pair):
    __slots__ = ()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_share_one_protocol(cls):
    assert issubclass(cls, Frozen)
    assert "__init__" in vars(cls)
    for name in PROTOCOL:
        assert name not in vars(cls)


@pytest.mark.parametrize("cls", [PauliString, ps.KernelSpec],
                         ids=lambda c: c.__name__)
def test_field_records_keep_no_own_comparison(cls):
    for name in ("__eq__", "__hash__", "__repr__", "_fields"):
        assert name not in vars(cls)


def test_frozen_compares_only_its_own_class():
    a = Pair(1, (2, 3))
    assert a == Pair(1, (2, 3)) and hash(a) == hash(Pair(1, (2, 3)))
    assert a != Pair(1, (2, 4))
    assert a.__eq__((1, (2, 3))) is NotImplemented
    assert a.__eq__(Twin(1, (2, 3))) is NotImplemented
    assert a != Twin(1, (2, 3))
    assert repr(a) == "Pair(a=1, b=(2, 3))"


def test_frozen_refuses_changes_by_class_name():
    a = Pair(1, 2)
    with pytest.raises(AttributeError, match="Pair is immutable.*'a'"):
        a.a = 3
    with pytest.raises(AttributeError, match="Pair is immutable.*'b'"):
        del a.b
    assert (a.a, a.b) == (1, 2)


def test_fermionic_points_compare_by_identity():
    h = np.array([[0.0, 0.3], [-0.3, 0.0]])
    p, q = FermionicPoint(h), FermionicPoint(h.copy())
    assert p == p
    assert p != q and not p == q
    assert len({p, q}) == 2
    assert hash(p) == hash(p)


def test_pauli_sum_adds_through_add_string():
    a = PauliSum.from_string(from_label("XY"), 0.5)
    a.add_string(from_label("ZZ"), 2.0)
    b = PauliSum.from_string(from_label("-XY"), 0.5)
    b.add_string(from_label("IZ"), 1.0 + 1e-300j)
    total, cancelled = PauliSum(2), PauliSum(2)
    for ps, coeff in [*a.strings(), *b.strings()]:
        total.add_string(ps, coeff)
    for ps, coeff in a.strings():
        cancelled.add_string(ps, coeff)
        cancelled.add_string(ps, -coeff)
    assert total.terms == {(0b00, 0b11): 2.0 + 0j, (0b00, 0b10): 1.0 + 1e-300j}
    assert cancelled.terms == {}
    assert np.array_equal(total.to_dense(), a.to_dense() + b.to_dense())
