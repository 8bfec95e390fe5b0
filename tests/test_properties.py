"""Hypothesis properties: qubit-model purity spectra and the filter identity."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sweyl import gfd
from sweyl import phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel
from sweyl.paulis import PauliString, PauliSum, word_masks

from oracles import dense_block_purities, sector_of


@functools.lru_cache(maxsize=None)
def _model(kind: str, size: int):
    """Cached models, so their dense blocks are built once per test run."""
    if kind == "spin":
        return SpinModel(HalfInt(size))  # size is 2S
    if kind == "multipartite":
        return MultipartiteModel(size)
    return FermionicModel(size)


def _operator(dim: int, rng) -> np.ndarray:
    scale = math.exp(rng.uniform(-5, 5))
    return scale * (rng.normal(size=(dim, dim))
                    + 1j * rng.normal(size=(dim, dim)))


_qubit_cases = given(kind=st.sampled_from(["multipartite", "fermionic"]),
                     n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
_fast = settings(max_examples=60, deadline=None)


@_fast
@_qubit_cases
def test_qubit_spectrum_sums_to_hs_norm(kind, n, seed):
    model = _model(kind, n)
    A = _operator(model.dim, np.random.default_rng(seed))
    hs = float(np.sum(np.abs(A) ** 2))
    assert gfd.purity_spectrum(A, model).total == pytest.approx(hs, rel=1e-12)


@_fast
@_qubit_cases
def test_qubit_spectrum_is_group_invariant(kind, n, seed):
    model = _model(kind, n)
    rng = np.random.default_rng(seed)
    A = _operator(model.dim, rng)
    U = model.group_unitary(model.random_group(rng))
    hs = float(np.sum(np.abs(A) ** 2))
    before = gfd.purity_spectrum(A, model)
    after = gfd.purity_spectrum(U @ A @ U.conj().T, model)
    for lam in model.labels():
        assert abs(after[lam] - before[lam]) <= 1e-12 * hs


@_fast
@_qubit_cases
def test_pauli_route_matches_dense_route(kind, n, seed):
    # The PauliSum route reads its words' sectors from model.word_sectors.
    model = _model(kind, n)
    rng = np.random.default_rng(seed)
    op = PauliSum(n)
    for _ in range(int(rng.integers(1, 2 * 4 ** n))):
        label = "".join(rng.choice(list("IXYZ"), size=n))
        op.add_string(PauliString.from_label(label),
                      complex(*rng.normal(size=2)))
    dense = gfd.purity_spectrum(op.to_dense(), model)
    pauli = gfd.purity_spectrum(op, model)
    scale = 1 + dense.total
    for lam in model.labels():
        assert abs(pauli[lam] - dense[lam]) <= 1e-12 * scale


# Spin S <= 3 and up to two qubits: the models with structured grids.
_grid_models = st.sampled_from([("spin", tS) for tS in range(1, 7)]
                               + [("multipartite", 1), ("multipartite", 2)])


@settings(max_examples=80, deadline=None)
@given(case=_grid_models, seed=st.integers(0, 2 ** 32 - 1),
       s=st.floats(-1.0, 1.0))
def test_filter_identity_on_random_pure_states(case, seed, s):
    # Quadrature purities of the s-field equal tau**(-s) times the spectrum.
    model = _model(*case)
    psi = model.haar_state(seed)
    rho = np.outer(psi, psi.conj())
    grid = ps.default_grid(model)
    field = ps.symbol_field(model, rho, grid, ps.KernelSpec.cahill_glauber(s))
    quad = ps.phase_purity_quadrature(field)
    want = gfd.phase_purity(gfd.purity_spectrum(rho, model), s, model)
    for lam in model.labels():
        assert abs(quad[lam] - want[lam]) <= 1e-11 * (1 + abs(want[lam]))


# -- the Pauli transform behind qubit and fermion sector purities -----------

_transform_cases = given(kind=st.sampled_from(["multipartite", "fermionic"]),
                         n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
                         hermitian=st.booleans(),
                         lead=st.sampled_from([(), (1,), (3,), (2, 3)]))


@_fast
@_transform_cases
def test_transform_purities_match_dense_blocks(kind, n, seed, hermitian, lead):
    model = _model(kind, n)
    rng = np.random.default_rng(seed)
    A = np.stack([_operator(model.dim, rng) for _ in range(math.prod(lead))])
    A = A.reshape(lead + (model.dim, model.dim))
    if hermitian:
        A = (A + np.swapaxes(A, -1, -2).conj()) / 2
    hs = np.sum(np.abs(A) ** 2, axis=(-2, -1))
    got = model.sector_purities(A)
    want = dense_block_purities(model, A)
    assert got.shape == lead + (len(want),)
    for i, lam in enumerate(model.labels()):
        assert np.all(np.abs(got[..., i] - want[lam]) <= 1e-13 * hs)


@_fast
@_qubit_cases
def test_stacked_transform_equals_one_by_one(kind, n, seed):
    model = _model(kind, n)
    rng = np.random.default_rng(seed)
    A = np.stack([_operator(model.dim, rng) for _ in range(6)])
    A = A.reshape(2, 3, model.dim, model.dim)
    got = model.sector_purities(A)
    for idx in np.ndindex(2, 3):
        want = model.sector_purities(A[idx])
        hs = float(np.sum(np.abs(A[idx]) ** 2))
        assert np.all(np.abs(got[idx] - want) <= 1e-15 * hs)


@pytest.mark.parametrize("kind", ["multipartite", "fermionic"])
@pytest.mark.parametrize("n", range(1, 7))
def test_word_sectors_equal_sector_of(kind, n):
    model = _model(kind, n)
    x, z = word_masks(n)
    row = {lam: i for i, lam in enumerate(model.labels())}
    want = [row[sector_of(model, PauliString(n, int(a), int(b)))]
            for a, b in zip(x, z)]
    assert model.word_sectors(x, z).tolist() == want


@pytest.mark.parametrize("kind", ["multipartite", "fermionic"])
@pytest.mark.parametrize("n", range(7, 11))
def test_word_sectors_equal_sector_of_sampled(kind, n):
    # Past n = 8 the fermionic suffix parity needs its fourth doubling.
    model = _model(kind, n)
    x, z = np.random.default_rng(n).integers(0, 2 ** n, size=(2, 2000))
    row = {lam: i for i, lam in enumerate(model.labels())}
    want = [row[sector_of(model, PauliString(n, int(a), int(b)))]
            for a, b in zip(x, z)]
    assert model.word_sectors(x, z).tolist() == want


def test_empty_paulisum_on_a_spin_raises():
    with pytest.raises(ValueError):
        gfd.purity_spectrum(PauliSum(1), SpinModel(HalfInt(1)))
