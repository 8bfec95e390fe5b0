"""Bit-packed Pauli strings and the tests' symbolic product, canonical phase
and Majorana strings against dense matrix oracles; strings are built from
labels by ``oracles.from_label``."""

import functools

import numpy as np
import pytest
from scipy.linalg import expm

from sweyl.paulis import PauliString, words_dense

from oracles import (PauliSum, canonical_phase, from_label, majorana,
                     majorana_product, majorana_weight, multipartite_label,
                     pauli_mul)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0 + 0j, -1.0])
DENSE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(label: str) -> np.ndarray:
    out = np.eye(1)
    for ch in label:
        out = np.kron(out, DENSE[ch])
    return out


def rand_string(rng, n: int) -> PauliString:
    label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    prefix = rng.choice(["", "i", "-", "-i"])
    return from_label(prefix + label)


def test_label_round_trip():
    for label in ["X", "IYZ", "-XX", "iZIZ", "-iYYX", "III"]:
        ps = from_label(label)
        assert ps.n == len(_body(label))
        assert np.allclose(ps.to_dense(), _phase(label) * dense(_body(label)))


def _body(label):
    return label.lstrip("-i") if not label.startswith("i") else label[1:]


def _phase(label):
    if label.startswith("-i"):
        return -1j
    if label.startswith("-"):
        return -1
    if label.startswith("i"):
        return 1j
    return 1


def test_single_and_identity():
    assert np.array_equal(PauliString(2, 0, 0).to_dense(), np.eye(4))
    assert np.array_equal(PauliString(3, 0b010, 0b010, 1).to_dense(),
                          dense("IYI"))
    assert canonical_phase(from_label("Y")) == 1
    # A string at its canonical phase is Hermitian, one off it is not.
    for ps, hermitian in ((from_label("Y"), True), (from_label("iX"), False)):
        mat = ps.to_dense()
        assert np.allclose(mat, mat.conj().T) == hermitian


def test_mul_against_dense():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        for _ in range(40):
            a, b = rand_string(rng, n), rand_string(rng, n)
            assert np.allclose(pauli_mul(a, b).to_dense(),
                               a.to_dense() @ b.to_dense())


def _adjoint(ps: PauliString) -> PauliString:
    # The canonical string is Hermitian, so the adjoint reflects the phase
    # about the canonical one.
    return PauliString(ps.n, ps.x, ps.z, 2 * canonical_phase(ps) - ps.phase)


def test_mul_associative_and_dagger():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b, c = (rand_string(rng, 3) for _ in range(3))
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
        assert np.allclose(_adjoint(a).to_dense(), a.to_dense().conj().T)
        assert pauli_mul(a, _adjoint(a)) == PauliString(3, 0, 0)


def test_commutes_matches_dense():
    # Two strings commute exactly when their products in both orders agree.
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b = rand_string(rng, 3), rand_string(rng, 3)
        comm = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
        assert (pauli_mul(a, b) == pauli_mul(b, a)) == (
            np.max(np.abs(comm)) < 1e-12)


def test_canonical_split():
    ps = from_label("-iXZ")
    canon = PauliString(ps.n, ps.x, ps.z, canonical_phase(ps))
    mat = canon.to_dense()
    assert np.allclose(mat, mat.conj().T)
    assert np.allclose(ps.to_dense(), 1j ** (ps.phase - canon.phase) * mat)
    # Canonical strings square to the identity.
    assert pauli_mul(canon, canon) == PauliString(2, 0, 0)


def test_weight_support():
    assert multipartite_label(from_label("XIZY")) == (1, 0, 1, 1)


def _rotated(ps: PauliString, qubit: int, axis: str, angle: float):
    """Dense ``R ps R^dagger`` for ``R = exp(-i angle P_qubit / 2)``."""
    gen = from_label("".join(axis if q == qubit else "I"
                             for q in range(ps.n))).to_dense()
    U = expm(-0.5j * angle * gen)
    return U @ ps.to_dense() @ U.conj().T


@pytest.mark.parametrize("axis,angle,start,expect", [
    ("Y", np.pi, "Z", "-Z"),
    ("Y", np.pi / 2, "Z", "X"),
    ("Z", np.pi / 2, "X", "Y"),
    ("X", np.pi / 2, "Y", "Z"),
])
def test_rotate_named_examples(axis, angle, start, expect):
    # A quarter turn maps T to -i P T: Y Z = i X, Z X = i Y and X Y = i Z.
    out = _rotated(from_label(start), 0, axis, angle)
    assert np.allclose(out, from_label(expect).to_dense())
    if angle == np.pi / 2:
        quarter = pauli_mul(from_label(axis), from_label(start))
        assert np.allclose(-1j * quarter.to_dense(), out)


def test_rotate_against_dense():
    # R T R^dagger = cos(angle) T - i sin(angle) P T when {P, T} = 0.
    rng = np.random.default_rng(19)
    n = 2
    for axis in "XYZ":
        for qubit in range(n):
            angle = rng.uniform(0, 2 * np.pi)
            ps = rand_string(rng, n)
            gen = from_label("".join(axis if q == qubit else "I"
                                     for q in range(n)))
            want = ps.to_dense()
            if pauli_mul(gen, ps) != pauli_mul(ps, gen):
                want = (np.cos(angle) * want
                        - 1j * np.sin(angle) * pauli_mul(gen, ps).to_dense())
            assert np.allclose(_rotated(ps, qubit, axis, angle), want)


def test_majorana_forms():
    for mu, label in ((1, "XII"), (2, "YII"), (3, "ZXI"), (4, "ZYI"),
                      (6, "ZZY")):
        assert majorana(mu, 3) == from_label(label)
    with pytest.raises(ValueError):
        majorana(7, 3)
    with pytest.raises(ValueError):
        majorana(0, 3)


def test_majorana_anticommutation():
    n = 3
    for mu in range(1, 2 * n + 1):
        cmu = majorana(mu, n).to_dense()
        for nu in range(1, 2 * n + 1):
            cnu = majorana(nu, n).to_dense()
            anti = cmu @ cnu + cnu @ cmu
            want = 2 * np.eye(2 ** n) if mu == nu else 0
            assert np.max(np.abs(anti - want)) < 1e-14


def test_majorana_product_and_weight():
    n = 3
    prod = majorana_product([1, 4], n)
    assert np.allclose(prod.to_dense(),
                       majorana(1, n).to_dense() @ majorana(4, n).to_dense())
    assert majorana_weight(prod) == 2
    assert majorana_weight(majorana_product([2, 3, 5, 6], n)) == 4
    assert majorana_weight(PauliString(n, 0, 0)) == 0
    # Every Pauli string is a unique Majorana monomial; check the weight by
    # reconstructing the string from scratch for all 2-factor products.
    for mu in range(1, 2 * n + 1):
        assert majorana_weight(majorana(mu, n)) == 1
        for nu in range(mu + 1, 2 * n + 1):
            assert majorana_weight(majorana_product([mu, nu], n)) == 2


def test_words_dense_equals_the_kron_product():
    # Every (x, z, phase) for n <= 4, one word at a time and as one stack,
    # against the product of single-qubit matrices (XZ = -iY per qubit).
    single = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): X @ Z}
    for n in range(1, 5):
        words = [(x, z, k) for x in range(2 ** n) for z in range(2 ** n)
                 for k in range(4)]
        stack = words_dense(n, *zip(*words))
        for (x, z, k), got in zip(words, stack):
            mats = [single[((x >> q) & 1, (z >> q) & 1)] for q in range(n)]
            want = 1j ** k * functools.reduce(np.kron, mats)
            assert np.array_equal(got, want)
            assert np.array_equal(PauliString(n, x, z, k).to_dense(), want)


def test_paulisum_to_dense_equals_the_sum_of_kron_products():
    rng = np.random.default_rng(23)
    for n in range(1, 5):
        op = PauliSum(n)
        for _ in range(3 * n):
            op.add_string(rand_string(rng, n), complex(*rng.normal(size=2)))
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for ps, coeff in op.strings():
            mats = [DENSE["IXZY"[((ps.x >> q) & 1) + 2 * ((ps.z >> q) & 1)]]
                    for q in range(n)]
            want += coeff * functools.reduce(np.kron, mats)
        assert np.max(np.abs(op.to_dense() - want)) <= 1e-15 * len(op.terms)
    assert not np.any(PauliSum(2).to_dense())
