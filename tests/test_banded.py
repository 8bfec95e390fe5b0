"""Banded spin sectors: the float CG-diagonal table against exact Racah."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sweyl import gfd
from sweyl.clebsch import HalfInt, clebsch_gordan
from sweyl.models import SpinModel

from oracles import dense_block_purities

H = HalfInt.of


def _racah_tensor_operator(model: SpinModel, lam: int, j: int) -> np.ndarray:
    """T^lam_j with one exact-CG Racah sum per entry (the reference route)."""
    tS = model.S.twice
    T = np.zeros((model.dim, model.dim))
    for i_ket in range(model.dim):
        tm = tS - 2 * i_ket
        tmp = tm - 2 * j  # 2m' with m' = m - j
        if abs(tmp) > tS:
            continue
        i_bra = (tS - tmp) // 2
        c = clebsch_gordan(
            HalfInt(tS), HalfInt(tm), HalfInt(tS), HalfInt(-tmp),
            HalfInt(2 * lam), HalfInt(2 * j))
        T[i_ket, i_bra] = (-1 if i_bra % 2 else 1) * c
    return T


@pytest.mark.parametrize("tS", range(1, 17))
def test_table_matches_racah_entrywise(tS):
    model = SpinModel(HalfInt(tS))
    table = model.cg_diagonals()
    for q in range(tS + 1):
        n = tS + 1 - q
        assert table[q].shape == (n, (n + 1) // 2)
        k = np.arange(n)
        for lam in range(q, tS + 1):
            ref = _racah_tensor_operator(model, lam, q)[k, k + q]
            got = model.tensor_operator(lam, q)[k, k + q].real
            assert np.array_equal(got[:(n + 1) // 2], table[q][lam - q])
            zero = ref == 0.0  # exact zeros of the Racah sum
            assert np.all(np.abs(got[zero]) <= 1e-14)
            assert np.all(np.sign(got[~zero]) == np.sign(ref[~zero]))
            rel = np.abs(got[~zero] - ref[~zero]) / np.abs(ref[~zero])
            assert np.max(rel, initial=0.0) <= 1e-12, (tS, q, lam)
            assert np.allclose(model.tensor_operator(lam, -q),
                               _racah_tensor_operator(model, lam, -q),
                               rtol=0, atol=1e-14)


def test_allowed_region_is_one_centred_interval():
    # The table mirrors the run from k = 0 at each row's centre; that is
    # exact only if the classically allowed region of the recursion is one
    # interval containing the centre, or empty, for every 2S <= 200.
    for tS in range(1, 201):
        d, S = tS + 1, tS / 2
        k = np.arange(d)
        m = S - k
        b = np.sqrt(k * (d - k))
        for q in range(d - 2):
            n = d - q
            r = np.arange(n)
            diag = 2 * S * (S + 1) - 2 * m[r] * m[r + q]
            off = b[r[:-1] + 1] * b[r[:-1] + q + 1]
            lam = np.arange(q, d)
            gap = diag[None, :] - (lam * (lam + 1.0))[:, None]
            lo = np.concatenate(([0.0], off))
            hi = np.concatenate((off, [0.0]))
            allowed = gap ** 2 < 4 * lo * hi
            count = allowed.sum(axis=1)
            first = np.argmax(allowed, axis=1)
            last = n - 1 - np.argmax(allowed[:, ::-1], axis=1)
            some = count > 0
            assert np.all((last - first + 1 == count)[some])
            centred = (2 * first <= n - 1) & (2 * last >= n - 1)
            assert np.all(centred[some])


@pytest.mark.parametrize("S", ["12", "33/2", "20", "45/2"])
def test_basis_state_purities_match_closed_form(S):
    S = H(S)
    model = SpinModel(S)
    for i in range(model.dim):
        m = HalfInt(S.twice - 2 * i)
        psi = model.basis_state(m)
        spec = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
        for lam in model.labels():
            ref = gfd.closed_form_spin_purity(S, m, lam)
            assert abs(spec[lam] - ref) <= 1e-11 * ref, (m, lam)
    # hw is the m = S basis state; at s = 1 its filtered purity is 2 lam + 1.
    rho = np.outer(model.hw_state(), model.hw_state().conj())
    filtered = gfd.phase_purity(gfd.purity_spectrum(rho, model), 1.0, model)
    for lam in model.labels():
        assert abs(filtered[lam] - (2 * lam + 1)) <= 1e-11 * (2 * lam + 1)


def test_table_and_dense_blocks_refuse_past_their_caps():
    with pytest.raises(ValueError, match="dense spin"):
        SpinModel(H("61/2")).irrep_block(0)
    with pytest.raises(ValueError, match="banded spin"):
        SpinModel(H("201/2")).cg_diagonals()
    with pytest.raises(ValueError):
        SpinModel(1).tensor_operator(1, 2)
    assert len(SpinModel(30).irrep_block(60).basis) == 121
    assert SpinModel(100).cg_diagonals()[0].shape == (201, 101)


# -- properties over random spins and operators ------------------------------

@functools.lru_cache(maxsize=None)
def _spin(tS: int) -> SpinModel:
    return SpinModel(HalfInt(tS))


def _operator(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = math.exp(rng.uniform(-5, 5))
    return scale * (rng.normal(size=(dim, dim))
                    + 1j * rng.normal(size=(dim, dim)))


_cases = given(tS=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
_fast = settings(max_examples=40, deadline=None)


@_fast
@_cases
def test_spectrum_sums_to_hs_norm(tS, seed):
    model = _spin(tS)
    A = _operator(model.dim, seed)
    hs = float(np.sum(np.abs(A) ** 2))
    assert gfd.purity_spectrum(A, model).total == pytest.approx(hs, rel=1e-12)


@_fast
@_cases
def test_spectrum_is_rotation_invariant(tS, seed):
    model = _spin(tS)
    A = _operator(model.dim, seed)
    U = model.group_unitary(model.random_group(seed))
    hs = float(np.sum(np.abs(A) ** 2))
    before = gfd.purity_spectrum(A, model)
    after = gfd.purity_spectrum(U @ A @ U.conj().T, model)
    for lam in model.labels():
        assert abs(after[lam] - before[lam]) <= 1e-12 * hs


@_fast
@_cases
def test_banded_route_matches_dense_blocks(tS, seed):
    model = _spin(tS)
    A = _operator(model.dim, seed)
    hs = float(np.sum(np.abs(A) ** 2))
    banded = model.sector_purities(A)
    dense = dense_block_purities(model, A)
    for lam in model.labels():
        assert abs(banded[lam] - dense[lam]) <= 1e-12 * hs


@pytest.mark.parametrize("model", [SpinModel(H("5/2")), SpinModel(3)],
                         ids=repr)
def test_sector_purities_of_a_stack_match_one_by_one(model):
    # A (2, 3, d, d) stack on both routes, against each operator alone.
    rng = np.random.default_rng(model.dim)
    A = rng.normal(size=(2, 3, model.dim, model.dim, 2)) @ [1, 1j]
    for route in (model.sector_purities,  # the blocks come in label order
                  lambda X: np.stack(list(dense_block_purities(model, X)
                                          .values()), axis=-1)):
        got = route(A)
        assert got.shape == (2, 3, model.dim)
        for idx in np.ndindex(2, 3):
            want = route(A[idx])
            assert np.all(np.abs(got[idx] - want) <= 1e-12 * want)
