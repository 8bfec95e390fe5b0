"""Bit-packed Pauli algebra against dense matrix oracles."""

import functools

import numpy as np
import pytest
from scipy.linalg import expm

from sweyl.paulis import (PauliString, PauliSum, majorana, rotate_qubit,
                          trace_inner, words_dense)

from oracles import majorana_product, majorana_weight, multipartite_label

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
    return PauliString.from_label(prefix + label)


def test_label_round_trip():
    for label in ["X", "IYZ", "-XX", "iZIZ", "-iYYX", "III"]:
        ps = PauliString.from_label(label)
        assert str(ps) == label
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
    assert str(PauliString.single(3, 1, "Y")) == "IYI"
    assert str(PauliString.identity(2)) == "II"
    assert PauliString.from_label("Y").canonical_phase == 1
    assert PauliString.from_label("Y").is_hermitian()
    assert not PauliString.from_label("iX").is_hermitian()


def test_mul_against_dense():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        for _ in range(40):
            a, b = rand_string(rng, n), rand_string(rng, n)
            assert np.allclose((a * b).to_dense(),
                               a.to_dense() @ b.to_dense())


def test_mul_associative_and_dagger():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b, c = (rand_string(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert np.allclose(a.dagger().to_dense(), a.to_dense().conj().T)


def test_commutes_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b = rand_string(rng, 3), rand_string(rng, 3)
        comm = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
        assert a.commutes(b) == (np.max(np.abs(comm)) < 1e-12)


def test_canonical_split():
    ps = PauliString.from_label("-iXZ")
    canon, scalar = ps.canonical()
    assert canon.is_hermitian()
    assert np.allclose(ps.to_dense(), scalar * canon.to_dense())
    # Canonical strings multiply back to the original.
    assert str(canon * canon) == "II"


def test_weight_support():
    ps = PauliString.from_label("XIZY")
    assert ps.weight() == 3
    assert ps.support() == (0, 2, 3)
    assert multipartite_label(ps) == (1, 0, 1, 1)


def test_paulisum_algebra_against_dense():
    rng = np.random.default_rng(3)
    n = 3
    a, b = PauliSum(n), PauliSum(n)
    for _ in range(5):
        a.add_string(rand_string(rng, n), complex(*rng.normal(size=2)))
        b.add_string(rand_string(rng, n), complex(*rng.normal(size=2)))
    da, db = a.to_dense(), b.to_dense()
    assert np.allclose((a + b).to_dense(), da + db)
    assert np.allclose((a - b).to_dense(), da - db)
    assert np.allclose((a * b).to_dense(), da @ db)
    assert np.allclose(a.scale(2.5j).to_dense(), 2.5j * da)
    assert np.allclose(a.dagger().to_dense(), da.conj().T)
    assert a.trace() == pytest.approx(np.trace(da))
    assert trace_inner(a, b) == pytest.approx(np.trace(da.conj().T @ db))


def test_trace_inner_example():
    op = PauliSum.from_string(PauliString.from_label("X"), 1.0)
    assert trace_inner(op, op) == pytest.approx(2.0)
    hermitized = PauliSum.from_string(PauliString.from_label("X"),
                                      1 / np.sqrt(2))
    assert trace_inner(hermitized, hermitized) == pytest.approx(1.0)


def test_hermiticity_flag():
    op = PauliSum.from_string(PauliString.from_label("Y"), 0.5)
    op.add_string(PauliString.from_label("Z"), 1.25)
    assert op.is_hermitian()
    op.add_string(PauliString.from_label("X"), 1j)
    assert not op.is_hermitian()


@pytest.mark.parametrize("axis,angle,start,expect", [
    ("Y", np.pi, "Z", "-Z"),
    ("Y", np.pi / 2, "Z", "X"),
    ("Z", np.pi / 2, "X", "Y"),
    ("X", np.pi / 2, "Y", "Z"),
])
def test_rotate_named_examples(axis, angle, start, expect):
    out = rotate_qubit(PauliString.from_label(start), 0, axis, angle)
    terms = {str(ps): c for ps, c in out.strings() if abs(c) > 1e-12}
    assert set(terms) == {expect.lstrip("-")}
    sign = -1 if expect.startswith("-") else 1
    assert terms[expect.lstrip("-")] == pytest.approx(sign)


def test_rotate_against_dense():
    rng = np.random.default_rng(19)
    n = 2
    for axis in "XYZ":
        for qubit in range(n):
            angle = rng.uniform(0, 2 * np.pi)
            ps = rand_string(rng, n)
            gen = PauliString.single(n, qubit, axis).to_dense()
            U = expm(-0.5j * angle * gen)
            got = rotate_qubit(ps, qubit, axis, angle).to_dense()
            assert np.allclose(got, U @ ps.to_dense() @ U.conj().T)


def test_majorana_forms():
    assert str(majorana(1, 3)) == "XII"
    assert str(majorana(2, 3)) == "YII"
    assert str(majorana(3, 3)) == "ZXI"
    assert str(majorana(4, 3)) == "ZYI"
    assert str(majorana(6, 3)) == "ZZY"
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
    assert majorana_weight(PauliString.identity(n)) == 0
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
            want += coeff * _phase(str(ps)) * dense(_body(str(ps)))
        assert np.max(np.abs(op.to_dense() - want)) <= 1e-15 * len(op.terms)
    assert not np.any(PauliSum(2).to_dense())
