"""Kernels, quadratures, harmonics, filters and the twisted product."""

import math

import numpy as np
import pytest

from sweyl import gfd, models
from sweyl import phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel
from sweyl.paulis import PauliString

from oracles import (harmonic_via_adjoint, majorana_dense, star_kernel,
                     star_kernel_factored, symbol_factor, tuple_product_grid)

H = HalfInt.of


def rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


# -- quadrature ---------------------------------------------------------------

def test_sphere_quadrature_normalized():
    grid = ps.sphere_quadrature(2)
    assert np.sum(grid.weights) == pytest.approx(1.0)
    assert grid.band == 2
    assert grid.points.shape == (5 * 10, 1, 2)  # ntheta x nphi nodes


def test_sphere_quadrature_integrates_overlap():
    # Coherent-state resolution: integral of |<Omega|psi>|^2 is 1/d.
    model = SpinModel(2)
    grid = ps.sphere_quadrature(2)
    rng = np.random.default_rng(0)
    psi = model.haar_state(rng)
    oc = model.coherent_states(grid.points)
    vals = np.abs(oc.conj() @ psi) ** 2
    assert float(grid.weights @ vals) == pytest.approx(1 / model.dim)


def test_sphere_quadrature_exact_on_band_limited():
    # Y^2_j Y^2_k products (band 2 each) integrate exactly at band 2.
    model = SpinModel(2)
    grid = ps.sphere_quadrature(2)
    ymat = ps.harmonic_matrix(model, grid.points)[2]
    gram = (ymat * grid.weights) @ ymat.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_product_quadrature():
    grid = ps.product_quadrature(2)
    assert np.sum(grid.weights) == pytest.approx(1.0)
    assert grid.band == 0.5
    model = MultipartiteModel(2)
    rng = np.random.default_rng(1)
    psi = model.haar_state(rng)
    oc = model.coherent_states(grid.points)
    vals = np.abs(oc.conj() @ psi) ** 2
    assert float(grid.weights @ vals) == pytest.approx(1 / 4)


@pytest.mark.parametrize("band", [0.5, 1.5])
@pytest.mark.parametrize("nspheres", [1, 2, 3, 4])
def test_product_quadrature_matches_node_by_node_grid(nspheres, band):
    points, weights = tuple_product_grid(nspheres, band)
    grid = ps.product_quadrature(nspheres, band)
    assert np.array_equal(grid.points, points)
    assert np.array_equal(grid.weights, weights)


def test_spin_reads_a_bare_pair_and_a_one_sphere_row_alike():
    model = SpinModel(H("3/2"))
    pair, row = (0.7, 2.3), [[0.7, 2.3]]
    assert np.array_equal(model.point_unitary(pair), model.point_unitary(row))
    assert model.point_as_group(pair) == model.point_as_group(row)


def test_spin_refuses_a_two_sphere_grid():
    model = SpinModel(2)
    points = ps.product_quadrature(2).points  # 64 nodes on two spheres
    f = ps.sector_factors(model, ps.KernelSpec.cahill_glauber(0.0))[:, None]
    A = np.eye(model.dim)
    for call in (lambda: ps.fields(model, A, points, f),
                 lambda: ps.kernel_sums(model, points,
                                        np.ones((len(points), 1)), f),
                 lambda: ps.harmonic_matrix(model, points)):
        with pytest.raises(ValueError, match=r"\(64, 2, 2\)"):
            call()
    # One qubit has the spin's geometry, so it takes a spin grid.
    grid = ps.sphere_quadrature(1)
    qubit = MultipartiteModel(1)
    assert ps.harmonic_matrix(qubit, grid.points)[(1,)].shape == \
        (3, len(grid.weights))


def test_mc_group_quadrature():
    model = FermionicModel(2)
    grid = ps.mc_group_quadrature(model, 32, seed=5)
    assert grid.band is None
    assert np.sum(grid.weights) == pytest.approx(1.0)
    assert len(grid.points) == 32
    for point in grid.points[:3]:
        assert np.max(np.abs(point.h + point.h.T)) < 1e-12


def test_default_grid_dispatch():
    assert ps.default_grid(SpinModel(2)).band == pytest.approx(2.0)
    assert ps.default_grid(MultipartiteModel(3)).band == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ps.default_grid(FermionicModel(2))


def test_default_grid_point_formats_of_spin_half_and_one_qubit():
    # Same band and sphere count, so the same (N, 1, 2) grid.
    spin = ps.default_grid(SpinModel(H("1/2")))
    qubit = ps.default_grid(MultipartiteModel(1))
    assert np.array_equal(spin.points, qubit.points)
    assert np.array_equal(spin.weights, qubit.weights)


# -- kernel family ------------------------------------------------------------

def test_kernel_spec_factors():
    model = SpinModel(1)
    spec = ps.KernelSpec.cahill_glauber(1.0)
    assert symbol_factor(spec, model, 2) == pytest.approx(math.sqrt(30.0))
    assert ps.sector_factors(model, spec)[2] == pytest.approx(30.0)
    assert ps.sector_factors(model, ps.KernelSpec.cahill_glauber(-1.0))[2] \
        == pytest.approx(1.0)
    assert spec.dual().s == -1.0


def test_kernel_spec_generalized():
    model = SpinModel(1)
    spec = ps.KernelSpec.generalized({0: 1.0, 1: 2.0, 2: 0.0})
    assert spec.is_generalized
    assert symbol_factor(spec, model, 1) == 2.0
    with pytest.raises(ValueError):
        spec.dual()  # zero coefficient is not invertible
    bad = ps.KernelSpec.generalized({0: 0.0, 1: 1.0, 2: 1.0})
    with pytest.raises(ValueError):
        bad.validate(model)
    inv = ps.KernelSpec.generalized({0: 1.0, 1: 2.0, 2: 4.0}).dual()
    assert inv.coeff_map()[2] == pytest.approx(0.25)


def test_center_kernel_trace():
    # Tr Delta = d**((s+1)/2) for every model (trivial sector only).
    for model in (SpinModel(H("3/2")), MultipartiteModel(2), FermionicModel(2)):
        for s in (-1.0, -0.3, 0.0, 1.0):
            D0 = np.diag(ps.center_diagonal(
                model, ps.KernelSpec.cahill_glauber(s)))
            assert np.trace(D0).real == pytest.approx(
                model.dim ** ((s + 1) / 2), abs=1e-12)
            assert abs(np.trace(D0).imag) < 1e-14
            assert np.allclose(D0, D0.conj().T)


def test_qubit_kernel_closed_form():
    # One qubit: Delta_0(s) = 2**((s-1)/2) (I + 3**((s+1)/2) Z).
    model = MultipartiteModel(1)
    Z = np.diag([1.0, -1.0])
    for s in (-1.0, 0.0, 0.5, 1.0):
        D0 = np.diag(ps.center_diagonal(
            model, ps.KernelSpec.cahill_glauber(s)))
        want = 2 ** ((s - 1) / 2) * (np.eye(2) + 3 ** ((s + 1) / 2) * Z)
        assert np.max(np.abs(D0 - want)) < 1e-14


@pytest.mark.parametrize("model", [SpinModel(2), MultipartiteModel(2),
                                   FermionicModel(2)], ids=repr)
def test_husimi_kernel_is_projector(model):
    rng = np.random.default_rng(3)
    spec = ps.KernelSpec.cahill_glauber(-1.0)
    for _ in range(3):
        point = model.random_point(rng)
        psi = model.coherent_state(point)
        D = ps.sw_kernel(model, point, spec)
        assert np.max(np.abs(D - np.outer(psi, psi.conj()))) < 1e-12


@pytest.mark.parametrize("model", [SpinModel(2), MultipartiteModel(2),
                                   FermionicModel(2)], ids=repr)
def test_kernel_covariance(model):
    # U_g Delta(Omega) U_g^dag = Delta(g . Omega).
    rng = np.random.default_rng(4)
    spec = ps.KernelSpec.cahill_glauber(0.5)
    for _ in range(3):
        g = model.random_group(rng)
        point = model.random_point(rng)
        U = model.group_unitary(g)
        lhs = U @ ps.sw_kernel(model, point, spec) @ U.conj().T
        rhs = ps.sw_kernel(model, model.act(g, point), spec)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("model", [SpinModel(2), MultipartiteModel(2),
                                   FermionicModel(2)], ids=repr)
def test_kernel_purity_is_flat(model):
    rng = np.random.default_rng(5)
    for s in (-1.0, 0.0, 1.0):
        spec = ps.KernelSpec.cahill_glauber(s)
        for _ in range(2):
            D = ps.sw_kernel(model, model.random_point(rng), spec)
            spectrum = gfd.purity_spectrum(D, model)
            for lam in model.labels():
                want = gfd.kernel_purity(model, lam, s)
                assert spectrum[lam] == pytest.approx(want, rel=1e-10,
                                                      abs=1e-10)


def test_multipartite_kernel_factorizes():
    model = MultipartiteModel(2)
    qubit = MultipartiteModel(1)
    spec = ps.KernelSpec.cahill_glauber(0.5)
    pts = ((0.7, 0.2), (2.1, 3.9))
    D = ps.sw_kernel(model, pts, spec)
    D1 = ps.sw_kernel(qubit, (pts[0],), spec)
    D2 = ps.sw_kernel(qubit, (pts[1],), spec)
    assert np.max(np.abs(D - np.kron(D1, D2))) < 1e-13


# -- harmonics ----------------------------------------------------------------

def test_harmonic_values_at_identity():
    # Trivial sector harmonic is the constant 1; the spin-1/2 vector
    # sector gives sqrt(3) at the pole.
    model = SpinModel(H("1/2"))
    harm = ps.harmonic_matrix(model, [model.identity_point()])
    assert harm[0][0, 0] == pytest.approx(1.0)
    assert harm[1][0, 0] == pytest.approx(math.sqrt(3))


def test_harmonic_sum_rule():
    # sum_j Y_j(Omega)^2 = d_lam at every point.
    rng = np.random.default_rng(6)
    for model in (SpinModel(2), MultipartiteModel(2)):
        pts = [model.random_point(rng) for _ in range(4)]
        ymat = ps.harmonic_matrix(model, pts)
        for lam, rows in ymat.items():
            total = np.sum(rows ** 2, axis=0)
            assert np.max(np.abs(total - model.irrep_dim(lam))) < 1e-10


def test_harmonic_orthonormality():
    model = SpinModel(2)
    grid = ps.default_grid(model)
    ymat = ps.harmonic_matrix(model, grid.points)
    rows = np.vstack([ymat[lam] for lam in model.labels()])
    gram = (rows * grid.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(model.dim ** 2))) < 1e-12


def test_harmonic_orthonormality_at_large_spin():
    # 2S = 40: the coherent-state sums lost 1.6e-4 here.
    model = SpinModel(20)
    grid = ps.default_grid(model)
    ymat = ps.harmonic_matrix(model, grid.points)
    rows = np.vstack([ymat[lam] for lam in model.labels()])
    gram = (rows * grid.weights) @ rows.T
    assert np.max(np.abs(gram - np.eye(model.dim ** 2))) <= 1e-12


@pytest.mark.parametrize(
    "model", [SpinModel(H(k / 2)) for k in range(1, 9)]
    + [SpinModel(12), SpinModel(20)]
    + [MultipartiteModel(n) for n in (1, 2, 3, 4)]
    + [FermionicModel(2), FermionicModel(3)],
    ids=repr)
def test_harmonic_matrix_matches_coherent_state_oracle(model):
    # Y^lam_j = tau**(-1/2) <Omega| D_j |Omega>, one point at a time, with
    # Omega = U hw.  The direct sum psi^H D_j psi keeps an error of about
    # eps / sqrt(tau) (8e-4 at 2S = 40, tau = 1e-25), so the expectation is
    # read as Tr(U Pi U^H D_j), Pi = Pi_lam(|hw><hw|) = sum_k <hw|D_k|hw>
    # D_k (D_j lies in sector lam): the small factor is Pi's scale, and
    # nothing cancels.
    rng = np.random.default_rng(21)
    pts = [model.random_point(rng) for _ in range(6)]
    harm = ps.harmonic_matrix(model, pts)
    hw = model.hw_state()
    for lam in model.labels():
        tau = model.tau(lam)
        if tau == 0:
            assert lam not in harm
            continue
        basis = model.irrep_block(lam).basis
        Pi = np.tensordot(np.real(hw.conj() @ basis @ hw), basis, 1)
        for k, p in enumerate(pts):
            U = model.point_unitary(p)
            want = np.einsum("ab,jba->j", U @ Pi @ U.conj().T, basis).real
            assert np.max(np.abs(harm[lam][:, k] - want / math.sqrt(tau))) \
                <= 1e-12


@pytest.mark.parametrize("model", [SpinModel(8), MultipartiteModel(2),
                                   FermionicModel(2)], ids=repr)
def test_harmonic_matrix_reads_one_point_table(model, monkeypatch):
    # One Legendre recursion for a whole spin grid, and no synthesis: the
    # harmonics are the model's point table, not fields of basis rows.
    calls = {"legendre": 0, "synthesis": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(models, "_legendre_rows",
                        counted("legendre", models._legendre_rows))
    for cls in (models.QrtModel, models.SpinModel):
        monkeypatch.setattr(cls, "synthesis", counted("synthesis",
                                                      cls.synthesis))
    if model.band is None:
        points = [model.random_point(np.random.default_rng(8))
                  for _ in range(4)]
    else:
        points = ps.default_grid(model).points
    harm = ps.harmonic_matrix(model, points)
    assert calls == {"legendre": model.kind == "spin", "synthesis": 0}
    assert sum(len(Y) for Y in harm.values()) == sum(
        model.irrep_dim(lam) for lam in model.labels() if model.tau(lam))


def test_harmonic_via_adjoint_route():
    rng = np.random.default_rng(7)
    for model in (SpinModel(H("3/2")), MultipartiteModel(2)):
        for _ in range(3):
            point = model.random_point(rng)
            ymat = ps.harmonic_matrix(model, [point])
            for lam in ymat:
                alt = harmonic_via_adjoint(model, lam, point)
                assert np.max(np.abs(alt - ymat[lam][:, 0])) < 1e-10


def test_fermionic_odd_sector_has_no_harmonics():
    model = FermionicModel(2)
    harm = ps.harmonic_matrix(model, [model.identity_point()])
    assert sorted(harm) == [0, 2, 4]
    with pytest.raises(ValueError):
        harmonic_via_adjoint(model, 1, model.identity_point())


# -- symbols and filters ------------------------------------------------------

def test_husimi_symbol_closed_form():
    # Q_hw(theta, phi) = cos(theta/2)**(4S); equals 1/4 at the equator, S=1.
    model = SpinModel(1)
    rho = np.outer(model.hw_state(), model.hw_state().conj())
    spec = ps.KernelSpec.cahill_glauber(-1.0)
    val = ps.symbol(model, rho, (math.pi / 2, 0.3), spec)
    assert val.real == pytest.approx(math.cos(math.pi / 4) ** 4)
    assert val.real == pytest.approx(0.25)
    assert abs(val.imag) < 1e-14


def test_symbol_covariance():
    model = SpinModel(2)
    rng = np.random.default_rng(8)
    A = rand_hermitian(model.dim, rng)
    spec = ps.KernelSpec.cahill_glauber(0.5)
    g = model.random_group(rng)
    U = model.group_unitary(g)
    point = model.random_point(rng)
    lhs = ps.symbol(model, U @ A @ U.conj().T, model.act(g, point), spec)
    assert lhs == pytest.approx(ps.symbol(model, A, point, spec), abs=1e-11)


def test_filter_identity_spin():
    # Sector purities of the s-field are tau**(-s) times the state's.
    model = SpinModel(2)
    rng = np.random.default_rng(9)
    psi = model.haar_state(rng)
    rho = np.outer(psi, psi.conj())
    spec_rho = gfd.purity_spectrum(rho, model)
    grid = ps.default_grid(model)
    for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
        field = ps.symbol_field(model, rho, grid, ps.KernelSpec.cahill_glauber(s))
        quad = ps.phase_purity_quadrature(field)
        want = gfd.phase_purity(spec_rho, s, model)
        for lam in model.labels():
            assert quad[lam] == pytest.approx(want[lam], rel=1e-9, abs=1e-11)


def test_filter_identity_multipartite():
    model = MultipartiteModel(2)
    rho = np.outer(model.ghz_state(), model.ghz_state().conj())
    spec_rho = gfd.purity_spectrum(rho, model)
    grid = ps.default_grid(model)
    field = ps.symbol_field(model, rho, grid, ps.KernelSpec.cahill_glauber(1.0))
    quad = ps.phase_purity_quadrature(field)
    want = gfd.phase_purity(spec_rho, 1.0, model)
    for lam in model.labels():
        assert quad[lam] == pytest.approx(want[lam], rel=1e-9, abs=1e-11)


def test_tracing_pairs():
    # integral of F_A(., s) F_B(., -s) recovers Tr[A B].
    model = SpinModel(H("3/2"))
    rng = np.random.default_rng(10)
    grid = ps.default_grid(model)
    A = rand_hermitian(model.dim, rng)
    B = rand_hermitian(model.dim, rng)
    want = float(np.real(np.trace(A @ B)))
    for s in (-1.0, 0.0, 0.7):
        fa = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(s))
        fb = ps.symbol_field(model, B, grid, ps.KernelSpec.cahill_glauber(-s))
        got = float(grid.weights @ (fa.values.real * fb.values.real))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_standardization():
    # integral of F_A dmu = d**((s-1)/2) Tr[A], normalized measure.
    rng = np.random.default_rng(11)
    for model in (SpinModel(2), MultipartiteModel(2)):
        grid = ps.default_grid(model)
        A = rand_hermitian(model.dim, rng)
        for s in (-1.0, 0.0, 1.0):
            field = ps.symbol_field(model, A, grid,
                                    ps.KernelSpec.cahill_glauber(s))
            got = float(grid.weights @ field.values.real)
            want = model.dim ** ((s - 1) / 2) * float(np.real(np.trace(A)))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_wigner_takes_negative_values():
    model = SpinModel(2)
    rho = np.outer(model.ghz_state(), model.ghz_state().conj())
    grid = ps.sphere_quadrature(4)  # finer than the default band 2 grid
    field = ps.symbol_field(model, rho, grid, ps.KernelSpec.cahill_glauber(0.0))
    assert field.values.real.min() < 0
    husimi = ps.symbol_field(model, rho, grid, ps.KernelSpec.cahill_glauber(-1.0))
    assert husimi.values.real.min() > -1e-12


# -- reconstruction and conversion --------------------------------------------

@pytest.mark.parametrize("model", [SpinModel(2), MultipartiteModel(2)],
                         ids=repr)
def test_reconstruction_round_trip(model):
    rng = np.random.default_rng(12)
    A = rand_hermitian(model.dim, rng)
    grid = ps.default_grid(model)
    for s in (-1.0, 0.0, 1.0):
        field = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(s))
        back = ps.reconstruct(field)
        assert np.max(np.abs(back - A)) < 1e-10


def test_reconstruction_rejects_coarse_grid():
    model = SpinModel(2)
    grid = ps.sphere_quadrature(1)  # resolves only S = 1
    A = np.eye(model.dim)
    field = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(0.0))
    with pytest.raises(ValueError):
        ps.reconstruct(field)


def test_fermionic_odd_component_is_invisible():
    # Odd-sector operators have identically zero symbols: unrecoverable.
    model = FermionicModel(2)
    c1 = majorana_dense(model.n)[0]
    assert gfd.purity_spectrum(c1, model)[1] > 0  # operator is in sector 1
    rng = np.random.default_rng(13)
    spec = ps.KernelSpec.cahill_glauber(0.0)
    for _ in range(5):
        val = ps.symbol(model, c1, model.random_point(rng), spec)
        assert abs(val) < 1e-13


def test_conversion_matches_direct_symbol():
    model = SpinModel(H("3/2"))
    rng = np.random.default_rng(14)
    A = rand_hermitian(model.dim, rng)
    src_grid = ps.sphere_quadrature(model.S.twice)  # room for the kernel pair
    out_grid = ps.sphere_quadrature(model.S.twice / 2)
    fa = ps.symbol_field(model, A, src_grid, ps.KernelSpec.cahill_glauber(-1.0))
    converted = ps.convert_field(fa, 0.0, out_grid)
    direct = ps.symbol_field(model, A, out_grid, ps.KernelSpec.cahill_glauber(0.0))
    assert np.max(np.abs(converted.values - direct.values)) < 1e-10


def test_conversion_kernel_reduces_to_trace():
    # At s_target = s_source the kernel is the tracing pair Tr[D(s) D(-s)],
    # whose tau powers cancel in the harmonic expansion: sum_j Y_j(p)**2.
    model = SpinModel(1)
    p = (0.7, 1.1)
    harm = ps.harmonic_matrix(model, [p])
    got = sum(float(np.sum(H ** 2)) for H in harm.values())
    want = np.real(np.trace(
        ps.sw_kernel(model, p, ps.KernelSpec.cahill_glauber(0.5))
        @ ps.sw_kernel(model, p, ps.KernelSpec.cahill_glauber(-0.5))))
    assert got == pytest.approx(float(want))


# -- twisted product ----------------------------------------------------------

def test_star_kernel_factorization():
    model = SpinModel(1)
    rng = np.random.default_rng(15)
    pts = [model.random_point(rng) for _ in range(3)]
    for s_triple in [(0.0, 0.0, 0.0), (1.0, -0.5, 0.5)]:
        direct = star_kernel(model, s_triple, *pts)
        factored = star_kernel_factored(model, s_triple, *pts)
        assert factored == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_star_product_reproduces_operator_product():
    model = SpinModel(1)
    rng = np.random.default_rng(16)
    A = rand_hermitian(3, rng)
    B = rand_hermitian(3, rng)
    grid = ps.sphere_quadrature(model.S.twice)  # twice the band limit
    out_pts = [model.random_point(rng) for _ in range(6)]
    for sa, sb, s_out in [(0.0, 0.0, 0.0), (0.5, -0.5, 1.0), (-1.0, 1.0, 0.0)]:
        fa = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(sa))
        fb = ps.symbol_field(model, B, grid, ps.KernelSpec.cahill_glauber(sb))
        got = ps.star_product(fa, fb, s_out, out_pts)
        want = np.array([ps.symbol(model, A @ B, p,
                                   ps.KernelSpec.cahill_glauber(s_out))
                         for p in out_pts])
        assert np.max(np.abs(got - want)) < 1e-10


def test_star_product_rejects_narrow_grid():
    model = SpinModel(1)
    grid = ps.default_grid(model)  # resolves S, not 2S
    A = np.eye(3)
    fa = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(0.0))
    with pytest.raises(ValueError):
        ps.star_product(fa, fa, 0.0, [model.identity_point()])


def test_star_product_noncommutative():
    model = SpinModel(1)
    Jx, Jy, _ = model.spin_operators()
    grid = ps.sphere_quadrature(model.S.twice)
    spec = ps.KernelSpec.cahill_glauber(0.0)
    fx = ps.symbol_field(model, Jx, grid, spec)
    fy = ps.symbol_field(model, Jy, grid, spec)
    pts = [(0.8, 0.4)]
    xy = ps.star_product(fx, fy, 0.0, pts)
    yx = ps.star_product(fy, fx, 0.0, pts)
    # The antisymmetric part is the symbol of [Jx, Jy] = i Jz.
    comm = ps.symbol(model, 1j * model.spin_operators()[2], pts[0], spec)
    assert (xy - yx)[0] == pytest.approx(comm, abs=1e-10)


# -- generalized filters ------------------------------------------------------

def test_generalized_filter_recovers_standard():
    model = SpinModel(1)
    s = 0.7
    coeffs = {lam: model.tau(lam) ** (-s / 2) for lam in model.labels()}
    rng = np.random.default_rng(17)
    A = rand_hermitian(3, rng)
    point = model.random_point(rng)
    lhs = ps.symbol(model, A, point, ps.KernelSpec.generalized(coeffs))
    rhs = ps.symbol(model, A, point, ps.KernelSpec.cahill_glauber(s))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_generalized_filter_removes_sector():
    model = SpinModel(1)
    coeffs = {0: 1.0, 1: 1.0, 2: 0.0}
    rng = np.random.default_rng(18)
    A = rand_hermitian(3, rng)
    A_cut = A - gfd.gfd_project(A, model, 2)
    point = model.random_point(rng)
    spec = ps.KernelSpec.generalized(coeffs)
    lhs = ps.symbol(model, A, point, spec)
    rhs = ps.symbol(model, A_cut, point, spec)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # And it differs from the untouched s = 0 symbol wherever sector 2 lives.
    full = ps.symbol(model, A, point, ps.KernelSpec.cahill_glauber(0.0))
    assert abs(lhs - full) > 1e-6


def test_generalized_dual_tracing():
    model = SpinModel(1)
    coeffs = {0: 1.0, 1: 2.0, 2: 0.25}
    spec = ps.KernelSpec.generalized(coeffs)
    grid = ps.default_grid(model)
    rng = np.random.default_rng(19)
    A = rand_hermitian(3, rng)
    B = rand_hermitian(3, rng)
    fa = ps.symbol_field(model, A, grid, spec)
    fb = ps.symbol_field(model, B, grid, spec.dual())
    got = float(grid.weights @ (fa.values.real * fb.values.real))
    assert got == pytest.approx(float(np.real(np.trace(A @ B))), abs=1e-10)


def test_kernel_stack_matches_single_kernels():
    model = MultipartiteModel(2)
    rng = np.random.default_rng(20)
    pts = [model.random_point(rng) for _ in range(3)]
    spec = ps.KernelSpec.cahill_glauber(0.5)
    stack = ps.kernel_stack(model, pts, spec)
    for k, point in enumerate(pts):
        assert np.max(np.abs(stack[k] - ps.sw_kernel(model, point, spec))) \
            < 1e-13
