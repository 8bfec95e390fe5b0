"""Model structure: sector bases, tau spectra, coherent states, actions."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sweyl.clebsch import HalfInt
from sweyl.gfd import purity_spectrum
from sweyl.models import (FermionicModel, FermionicPoint, MultipartiteModel,
                          SpinModel)
from sweyl.paulis import PauliString, PauliSum

from oracles import (adjoint_matrix, majorana_dense, product_sector_words,
                     sector_of, sector_strings)

H = HalfInt.of

ALL_MODELS = [SpinModel(H("1/2")), SpinModel(1), SpinModel(2),
              MultipartiteModel(1), MultipartiteModel(2),
              FermionicModel(1), FermionicModel(2)]


# -- spin operators -----------------------------------------------------------

def test_spin_half_operators_are_halved_paulis():
    Jx, Jy, Jz = SpinModel(H("1/2")).spin_operators()
    assert np.allclose(Jx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(Jy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(Jz, [[0.5, 0], [0, -0.5]])


@pytest.mark.parametrize("S", ["1/2", 1, "3/2", 3])
def test_spin_commutation_and_casimir(S):
    model = SpinModel(H(S))
    Jx, Jy, Jz = model.spin_operators()
    assert np.allclose(Jx @ Jy - Jy @ Jx, 1j * Jz)
    s = float(H(S))
    casimir = Jx @ Jx + Jy @ Jy + Jz @ Jz
    assert np.allclose(casimir, s * (s + 1) * np.eye(model.dim))


# -- labels, dimensions, tau --------------------------------------------------

def test_spin_labels_and_dims():
    model = SpinModel(2)
    assert list(model.labels()) == [0, 1, 2, 3, 4]
    assert [model.irrep_dim(lam) for lam in model.labels()] == [1, 3, 5, 7, 9]
    assert sum(model.irrep_dim(lam) for lam in model.labels()) == model.dim ** 2


def test_multipartite_labels_and_dims():
    model = MultipartiteModel(2)
    assert list(model.labels()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [model.irrep_dim(lam) for lam in model.labels()] == [1, 3, 3, 9]


def test_fermionic_labels_and_dims():
    model = FermionicModel(2)
    assert list(model.labels()) == [0, 1, 2, 3, 4]
    assert [model.irrep_dim(lam) for lam in model.labels()] == [1, 4, 6, 4, 1]


def test_tau_known_values():
    assert SpinModel(1).tau(0) == pytest.approx(1 / 3)
    assert SpinModel(1).tau(1) == pytest.approx(1 / 6)
    assert SpinModel(1).tau(2) == pytest.approx(1 / 30)
    assert SpinModel(H("1/2")).tau(1) == pytest.approx(1 / 6)
    assert MultipartiteModel(2).tau((1, 1)) == pytest.approx(1 / 36)
    assert MultipartiteModel(2).tau((0, 1)) == pytest.approx(1 / 12)
    assert FermionicModel(2).tau(2) == pytest.approx(1 / 12)
    assert FermionicModel(2).tau(1) == 0.0
    assert FermionicModel(2).tau(3) == 0.0


def test_fermionic_tau_closed_form_all_even():
    for n in range(1, 8):
        model = FermionicModel(n)
        for lam in model.labels():
            if lam % 2:
                assert model.tau(lam) == 0.0
            else:
                want = Fraction(math.comb(n, lam // 2),
                                math.comb(2 * n, lam) * 2 ** n)
                assert model.tau(lam) == pytest.approx(float(want))


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_tau_two_routes_agree(model):
    for lam in model.labels():
        assert model.tau(lam) == pytest.approx(model.tau_from_hw(lam),
                                               abs=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_tau_normalization(model):
    # hw is pure, so its sector purities tau_lam * d_lam sum to Tr[rho^2] = 1.
    total = sum(model.tau(lam) * model.irrep_dim(lam)
                for lam in model.labels())
    assert total == pytest.approx(1.0)


# -- sector bases -------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_blocks_orthonormal_hermitian_complete(model):
    d = model.dim
    stacked = []
    for block in model.blocks():
        assert block.basis.shape == (block.dim, d, d)
        for D in block.basis:
            assert np.allclose(D, D.conj().T)  # Hermitian basis
        stacked.append(block.basis.reshape(block.dim, d * d))
    V = np.vstack(stacked)
    gram = V.conj() @ V.T
    assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12
    assert V.shape == (d * d, d * d)  # complete operator basis


def test_multipartite_sector_strings():
    model = MultipartiteModel(2)
    labels = {str(ps) for ps in sector_strings(model, (1, 0))}
    assert labels == {"XI", "YI", "ZI"}
    labels = {str(ps) for ps in sector_strings(model, (1, 1))}
    assert len(labels) == 9 and "XY" in labels


# -- named states and coherent geometry ---------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_named_states_normalized(model):
    for sel in ("hw", "ghz", "haar"):
        psi = model.named_state(sel, seed=1)
        assert np.linalg.norm(psi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        model.named_state("bogus")


def test_hw_state_is_first_basis_vector():
    for model in ALL_MODELS:
        psi = model.hw_state()
        assert psi[0] == 1.0 and np.linalg.norm(psi[1:]) == 0.0


def test_coherent_amplitudes_closed_form():
    # |<S,m|theta,phi>|^2 = C(2S, S-m) cos^(2(S+m)) sin^(2(S-m)) of theta/2.
    S = 2
    model = SpinModel(S)
    theta, phi = 1.1, 2.3
    psi = model.coherent_state((theta, phi))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    for i, m in enumerate(range(S, -S - 1, -1)):
        want = math.comb(2 * S, S - m) * c ** (2 * (S + m)) * s ** (2 * (S - m))
        assert abs(psi[i]) ** 2 == pytest.approx(want, abs=1e-14)


def test_coherent_overlap_angle_law():
    # |<Omega|Omega'>|^2 = cos^(4S)(gamma / 2), gamma the sphere angle.
    model = SpinModel(H("3/2"))
    rng = np.random.default_rng(2)
    for _ in range(10):
        p1, p2 = model.random_point(rng), model.random_point(rng)
        n1 = np.array([math.sin(p1[0]) * math.cos(p1[1]),
                       math.sin(p1[0]) * math.sin(p1[1]), math.cos(p1[0])])
        n2 = np.array([math.sin(p2[0]) * math.cos(p2[1]),
                       math.sin(p2[0]) * math.sin(p2[1]), math.cos(p2[0])])
        gamma = math.acos(min(1, max(-1, float(n1 @ n2))))
        ov = abs(model.coherent_state(p1).conj() @ model.coherent_state(p2)) ** 2
        assert ov == pytest.approx(math.cos(gamma / 2) ** (4 * 1.5), abs=1e-12)


def test_multipartite_coherent_is_product():
    model = MultipartiteModel(2)
    qubit = MultipartiteModel(1)
    pts = ((0.4, 1.2), (2.0, 5.1))
    psi = model.coherent_state(pts)
    want = np.kron(qubit.coherent_state((pts[0],)),
                   qubit.coherent_state((pts[1],)))
    assert np.allclose(psi, want)


def test_point_of_state_round_trip():
    model = SpinModel(2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        point = model.random_point(rng)
        back = model.point_of_state(model.coherent_state(point))
        assert back[0] == pytest.approx(point[0], abs=1e-9)
        assert back[1] == pytest.approx(point[1], abs=1e-9)


@pytest.mark.parametrize("model", [SpinModel(2), MultipartiteModel(2),
                                   FermionicModel(2)], ids=repr)
def test_group_action_consistency(model):
    # |g . Omega> matches U_g |Omega> up to a phase.
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = model.random_group(rng)
        point = model.random_point(rng)
        lhs = model.coherent_state(model.act(g, point))
        rhs = model.group_unitary(g) @ model.coherent_state(point)
        assert abs(lhs.conj() @ rhs) == pytest.approx(1.0, abs=1e-9)


def test_fermionic_point_validation():
    with pytest.raises(ValueError):
        FermionicPoint(np.ones((4, 4)))
    h = np.zeros((4, 4))
    h[0, 1], h[1, 0] = 0.3, -0.3
    FermionicPoint(h)  # antisymmetric: fine
    with pytest.raises(ValueError):
        FermionicPoint(np.zeros((3, 3)))  # odd size has no mode pairing


def test_fermionic_point_reads_as_its_generator():
    model = FermionicModel(2)
    rng = np.random.default_rng(7)
    g, point = model.random_group(rng), model.random_point(rng)
    assert np.array_equal(model.point_unitary(point),
                          model.point_unitary(point.h))
    assert np.array_equal(model.act(g, point).h, model.act(g.h, point.h).h)


def test_fermionic_unitary_rotates_majoranas():
    # U c_mu U^dag = sum_nu [expm(-4 h)]_{mu nu} c_nu.
    model = FermionicModel(2)
    rng = np.random.default_rng(6)
    point = model.random_point(rng)
    U = model.point_unitary(point)
    from scipy.linalg import expm
    R = expm(-4 * point.h)
    cs = majorana_dense(model.n)
    for mu in range(4):
        lhs = U @ cs[mu] @ U.conj().T
        rhs = sum(R[mu, nu] * cs[nu] for nu in range(4))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- adjoint action on sector bases -------------------------------------------

def test_adjoint_matrix_is_orthogonal():
    rng = np.random.default_rng(12)
    for model in (SpinModel(2), MultipartiteModel(2), FermionicModel(2)):
        g = model.random_group(rng)
        for lam in model.labels():
            O = adjoint_matrix(model, lam, g)
            d = model.irrep_dim(lam)
            assert np.max(np.abs(O @ O.T - np.eye(d))) < 1e-11


def test_adjoint_z_rotation_mixes_xy_pair():
    # About z, the lam = 1 Hermitian pair rotates in-plane by the angle.
    model = SpinModel(1)
    a = 0.7
    O = adjoint_matrix(model, 1, (a, 0.0, 0.0))
    want = np.array([[1, 0, 0],
                     [0, math.cos(a), math.sin(a)],
                     [0, -math.sin(a), math.cos(a)]])
    assert np.max(np.abs(O - want)) < 1e-12


def test_basis_state_selectors():
    assert SpinModel(1).named_state("m=0")[1] == 1.0
    assert SpinModel(H("1/2")).named_state("m=-1/2")[1] == 1.0
    assert MultipartiteModel(2).named_state("m=3")[3] == 1.0
    with pytest.raises(ValueError):
        SpinModel(1).basis_state("1/2")
    with pytest.raises(ValueError):
        MultipartiteModel(2).basis_state(9)


# -- declared geometry ---------------------------------------------------------

def test_declared_phase_space_geometry():
    spin, qubits, modes = SpinModel(H("5/2")), MultipartiteModel(3), \
        FermionicModel(2)
    assert (spin.band, spin.nspheres) == (2.5, 1)
    assert (qubits.band, qubits.nspheres) == (0.5, 3)
    assert (modes.band, modes.nspheres) == (None, 0)


@pytest.mark.parametrize("model", [MultipartiteModel(2), FermionicModel(2)],
                         ids=repr)
def test_sector_of_agrees_with_sector_strings(model):
    for lam in model.labels():
        for word in sector_strings(model, lam):
            assert sector_of(model, word) == lam


@pytest.mark.parametrize(
    "model", [MultipartiteModel(n) for n in (1, 2, 3, 4)]
    + [FermionicModel(n) for n in (1, 2, 3, 4)], ids=repr)
def test_sector_words_match_word_by_word_products(model):
    # Same words, same order, same phases as the per-word route.
    for lam in model.labels():
        x, z, phase = model.sector_words(lam)
        assert list(zip(x.tolist(), z.tolist(), phase.tolist())) == \
            product_sector_words(model, lam)


def test_spin_has_no_pauli_sectors():
    op = PauliSum.from_string(PauliString.from_label("XZ"))
    with pytest.raises(ValueError):
        purity_spectrum(op, SpinModel(H("3/2")))


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_point_as_group_carries_identity_to_point(model):
    rng = np.random.default_rng(40)
    for _ in range(3):
        point = model.random_point(rng)
        g = model.point_as_group(point)
        psi = model.group_unitary(g) @ model.hw_state()
        overlap = abs(np.vdot(psi, model.coherent_state(point)))
        assert overlap == pytest.approx(1.0, abs=1e-12)
