"""The rank-one route ``pure_state_purities`` against the operator route.

``gfd.duality_check`` reads its Haar samples' sector purities through
``model.pure_state_purities``: a spin contracts the diagonal products of
psi with its CG rows, qubits invert their subsystem purities over subsets,
and fermions keep the operator route, ``sector_purities`` of the density
matrices.  Each must agree with ``purity_spectrum(psi psi^H)`` on every
sector, and the two rank-one routes must hold no d x d matrix.
"""

import tracemalloc

import numpy as np
import pytest

from sweyl import gfd
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

SPINS = [SpinModel(HalfInt(t)) for t in list(range(1, 13)) + [40, 200]]
QUBITS = [MultipartiteModel(n) for n in range(1, 11)]
FERMIONS = [FermionicModel(n) for n in range(1, 6)]


def _haar(model, seed=3):
    """One Haar chunk, smaller at the sizes where the operator route is
    slow (d x d states)."""
    k = 48 if model.dim <= 64 else 12 if model.dim <= 256 else 3
    return next(gfd.haar_chunks(model.dim, k, seed))


def _operator_route(model, psi):
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    return gfd.purity_spectrum(rho, model).values


@pytest.mark.parametrize("model", SPINS + QUBITS, ids=repr)
def test_rank_one_route_matches_the_operator_route(model):
    for seed in (3, 4):
        psi = _haar(model, seed)
        got = model.pure_state_purities(psi)
        want = _operator_route(model, psi)
        assert got.shape == want.shape == (len(psi), len(model.labels()))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), model


@pytest.mark.parametrize("model", FERMIONS, ids=repr)
def test_fermions_keep_the_operator_route_bit_for_bit(model):
    psi = _haar(model)
    got = model.pure_state_purities(psi)
    assert got.tobytes() == _operator_route(model, psi).tobytes()


@pytest.mark.parametrize("model", [SpinModel(HalfInt(200)),
                                   MultipartiteModel(8)], ids=repr)
def test_rank_one_route_holds_no_density_matrix(model):
    # A chunk of 256 states: one (256, d, d) density stack would be 165 MB
    # at 2S = 200 and 268 MB at n = 8, and a qubit Gram matrix on the
    # larger side of B = {} alone (256, d, d) as much.
    psi = next(gfd.haar_chunks(model.dim, 256, 1))
    model.pure_state_purities(psi[:1])  # the model's cached tables
    tracemalloc.start()
    try:
        model.pure_state_purities(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * psi.nbytes


def test_qubit_subsystems_take_the_smaller_side_once():
    # One subsystem of each complementary pair, of at most n/2 qubits.
    for model in QUBITS:
        full = model.dim - 1
        seen = set()
        for i, j, axes in model._subsystems:
            assert j == full ^ i and 2 * i.bit_count() <= model.n
            assert sorted(axes) == list(range(model.n + 1))
            seen |= {i, j}
        assert seen == set(range(model.dim))
        assert len(model._subsystems) == model.dim // 2
