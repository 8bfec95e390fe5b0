"""A spin S = n/2 is the symmetric subspace of n qubits.

Let E be the (2**n, n + 1) Dicke embedding: column a is the normalized
sum of the basis states with a ones (spin basis state a has m = S - a).
Then E U_spin(Omega) = U_qubit(Omega)^(x n) E, so:

* at s = -1, where the kernel is the coherent projector, the spin field of
  A at Omega equals the qubit field of ``E A E^T`` at (Omega, ..., Omega);
* at any s, the compression ``K = E^T Delta_qubits(north, s) E`` is
  diagonal, so the qubit field of ``E A E^T`` is the spin field of A under
  the generalized kernel of center K: ``k_lam = <T^lam_0, K> / (T^lam_0)_00
  / f_lam(1/2)``, with ``f_lam(1/2) = tau_lam**(-1/2) = sqrt(2 lam + 1) /
  |(T^lam_0)_00|``.

The T^lam_0 come from Gram-Schmidt of the powers of J_z, as dense d x d
matrices: the two sides share no code past the synthesis entry point.
The spin route reads its CG table, Legendre recursion and taus; the
qubit route its Pauli transform and Bloch tables.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sweyl import phase_space as ps
from sweyl.models import MultipartiteModel, SpinModel
from sweyl.verify import _random_hermitian


def _dicke(n: int) -> np.ndarray:
    ones = np.array([bin(k).count("1") for k in range(2 ** n)])
    E = (ones[:, None] == np.arange(n + 1)).astype(float)
    return E / np.sqrt(E.sum(axis=0))


def _jz_tensors(d: int) -> np.ndarray:
    """(d, d) rows: the diagonal of T^lam_0 (up to sign), orthonormal
    polynomials of degree lam in m = S, S - 1, ..., -S."""
    m = (d - 1) / 2 - np.arange(d)
    Q, _ = np.linalg.qr(np.vander(m, d, increasing=True))
    return Q.T


def _operators(spin: SpinModel, n: int):
    """Random Hermitian A, and the ghz and two m= density matrices."""
    ops = [_random_hermitian(spin.dim, np.random.default_rng(n))]
    for which in ("ghz", f"m={Fraction(n % 2, 2)}",
                  f"m={Fraction(n - 2, 2)}"):
        psi = spin.named_state(which)
        ops.append(np.outer(psi, psi.conj()))
    return ops


def _assert_fields_agree(spin, qubits, A, spin_spec, qubit_spec):
    grid = ps.default_grid(spin)
    diagonal = ps.Quadrature(np.repeat(grid.points, qubits.n, axis=1),
                             grid.weights)
    E = _dicke(qubits.n)
    want = ps.symbol_field(qubits, E @ A @ E.T, diagonal, qubit_spec).values
    got = ps.symbol_field(spin, A, grid, spin_spec).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(1, 7))
def test_coherent_fields_of_the_symmetric_subspace(n):
    spin, qubits = SpinModel(Fraction(n, 2)), MultipartiteModel(n)
    spec = ps.KernelSpec.cahill_glauber(-1.0)
    for A in _operators(spin, n):
        _assert_fields_agree(spin, qubits, A, spec, spec)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", range(1, 6))
def test_compressed_qubit_kernels_are_generalized_spin_kernels(n, s):
    spin, qubits = SpinModel(Fraction(n, 2)), MultipartiteModel(n)
    spec = ps.KernelSpec.cahill_glauber(s)
    E = _dicke(n)
    K = E.T @ ps.sw_kernel(qubits, ((0.0, 0.0),) * n, spec) @ E
    assert np.max(np.abs(K - np.diag(np.diag(K)))) <= 1e-14
    T = _jz_tensors(n + 1)
    # <T, K> / T_00 / f(1/2), with f(1/2) = sqrt(2 lam + 1) / |T_00|
    k = T @ np.diag(K).real * np.sign(T[:, 0]) / np.sqrt(
        2 * np.arange(n + 1) + 1)
    generalized = ps.KernelSpec.generalized(dict(enumerate(k.tolist())))
    for A in _operators(spin, n):
        _assert_fields_agree(spin, qubits, A, generalized, spec)


def test_dicke_embedding_carries_coherent_states():
    # E psi_spin(Omega) = psi_qubit(Omega, ..., Omega), the identity the
    # two tests above rest on.
    n, rng = 4, np.random.default_rng(0)
    spin, qubits = SpinModel(Fraction(n, 2)), MultipartiteModel(n)
    points = np.stack([np.arccos(rng.uniform(-1, 1, 5)),
                       rng.uniform(0, 2 * math.pi, 5)], axis=1)
    got = spin.coherent_states(points) @ _dicke(n).T
    want = qubits.coherent_states(np.repeat(points[:, None], n, axis=1))
    assert np.max(np.abs(got - want)) <= 1e-14
