"""Batched phase-space paths against their pointwise reference routes."""

import math

import numpy as np
import pytest

from sweyl import gfd, verify
from sweyl import phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

from oracles import harmonic_via_adjoint

MODELS = [SpinModel(1), SpinModel(HalfInt.of("5/2")), MultipartiteModel(1),
          MultipartiteModel(2), FermionicModel(2)]


def rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_point_unitaries_and_coherent_states_match_pointwise(model):
    rng = np.random.default_rng(30)
    pts = [model.random_point(rng) for _ in range(9)]
    U = model.point_unitaries(pts)
    psi = model.coherent_states(pts)
    assert U.shape == (9, model.dim, model.dim)
    assert psi.shape == (9, model.dim)
    for k, p in enumerate(pts):
        assert np.max(np.abs(U[k] - model.point_unitary(p))) <= 1e-12
        assert np.max(np.abs(psi[k] - model.coherent_state(p))) <= 1e-12


def test_multipartite_point_unitaries_reject_wrong_arity():
    with pytest.raises(ValueError):
        MultipartiteModel(2).point_unitaries([((0.1, 0.2),)])


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5])
def test_kernel_stack_matches_sw_kernel(model, s):
    rng = np.random.default_rng(31)
    pts = [model.random_point(rng) for _ in range(6)]
    spec = ps.KernelSpec.cahill_glauber(s)
    stack = ps.kernel_stack(model, pts, spec)
    for k, p in enumerate(pts):
        ref = ps.sw_kernel(model, p, spec)
        assert np.max(np.abs(stack[k] - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def _count_point_unitaries(monkeypatch, cls) -> list:
    calls, original = [], cls.point_unitary

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(cls, "point_unitary", counting)
    return calls


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_sw_kernel_stack_is_the_single_kernels(monkeypatch, model):
    # A tuple of specs gives the (W, d, d) stack of the one-spec kernels,
    # bit for bit, from one point unitary.
    point = model.random_point(np.random.default_rng(35))
    specs = tuple(ps.KernelSpec.cahill_glauber(s)
                  for s in (-1.0, -0.4, 0.0, 0.4, 1.0))
    single = [ps.sw_kernel(model, point, spec) for spec in specs]
    calls = _count_point_unitaries(monkeypatch, type(model))
    stack = ps.sw_kernel(model, point, specs)
    assert len(calls) == 1
    assert stack.shape == (len(specs), model.dim, model.dim)
    for D, ref in zip(stack, single, strict=True):
        assert D.tobytes() == ref.tobytes()


def test_verify_builds_its_random_point_unitary_once(monkeypatch):
    # The kernels at the random point and the coherent state there come
    # from one unitary; the symbol at the point's image under a group
    # element takes one more (a fermion's group_unitary is its own alias).
    calls = _count_point_unitaries(monkeypatch, FermionicModel)
    verify.run_checks("fermionic", n=3)
    assert len(calls) == 2


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_sw_kernel_reads_a_given_unitary(monkeypatch, model):
    # The point's unitary, when the caller holds it, gives the same bits
    # and builds none.
    point = model.random_point(np.random.default_rng(36))
    specs = tuple(ps.KernelSpec.cahill_glauber(s) for s in (-1.0, 0.5))
    U = model.point_unitary(point)
    ref = ps.sw_kernel(model, point, specs)
    calls = _count_point_unitaries(monkeypatch, type(model))
    assert ps.sw_kernel(model, point, specs, unitary=U).tobytes() \
        == ref.tobytes()
    assert not calls
    assert (U @ model.hw_state()).tobytes() \
        == model.coherent_state(point).tobytes()


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_harmonic_matrix_matches_pointwise(model):
    rng = np.random.default_rng(32)
    pts = [model.random_point(rng) for _ in range(5)]
    harm = ps.harmonic_matrix(model, pts)
    for lam, H in harm.items():
        for k, p in enumerate(pts):
            ref = harmonic_via_adjoint(model, lam, p)
            for j in range(H.shape[0]):
                assert H[j, k] == pytest.approx(ref[j], abs=1e-12)


def test_convert_field_matches_two_point_kernel_matrix():
    model = SpinModel(1)
    rng = np.random.default_rng(33)
    A = rand_hermitian(model.dim, rng)
    src = ps.sphere_quadrature(model.S.twice)
    out = ps.sphere_quadrature(model.S.twice / 2)
    fa = ps.symbol_field(model, A, src, ps.KernelSpec.cahill_glauber(0.5))
    got = ps.convert_field(fa, -1.0, out).values
    # Reference: the explicit (M, N) two-point kernel matrix.
    spec_t = ps.KernelSpec.cahill_glauber(-1.0)
    spec_s = ps.KernelSpec.cahill_glauber(-0.5)
    K = np.array([[np.real(np.trace(ps.sw_kernel(model, pm, spec_t)
                                    @ ps.sw_kernel(model, pn, spec_s)))
                   for pn in src.points] for pm in out.points])
    want = K @ (src.weights * fa.values)
    assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def _star_double_quadrature(field_a, field_b, s_out, out_points):
    """The m x N x N three-kernel tensor contracted against both fields."""
    model = field_a.model
    stack_out = ps.kernel_stack(model, out_points,
                                ps.KernelSpec.cahill_glauber(s_out))
    stack_a = ps.kernel_stack(model, field_a.grid.points,
                              ps.KernelSpec.cahill_glauber(-field_a.spec.s))
    stack_b = ps.kernel_stack(model, field_b.grid.points,
                              ps.KernelSpec.cahill_glauber(-field_b.spec.s))
    M = np.einsum("mab,ibc,jca->mij", stack_out, stack_a, stack_b)
    wa = field_a.grid.weights * field_a.values
    wb = field_b.grid.weights * field_b.values
    return np.einsum("mij,i,j->m", M, wa, wb)


@pytest.mark.parametrize("model,grid", [
    (SpinModel(1), ps.sphere_quadrature(2)),
    (MultipartiteModel(1), ps.product_quadrature(1, band=1.0)),
], ids=["spin", "multipartite"])
def test_star_product_matches_double_quadrature(model, grid):
    rng = np.random.default_rng(34)
    A = rand_hermitian(model.dim, rng)
    B = rand_hermitian(model.dim, rng)
    out_pts = [model.random_point(rng) for _ in range(4)]
    for sa, sb, s_out in [(0.0, 0.0, 0.0), (0.5, -0.5, 1.0)]:
        fa = ps.symbol_field(model, A, grid, ps.KernelSpec.cahill_glauber(sa))
        fb = ps.symbol_field(model, B, grid, ps.KernelSpec.cahill_glauber(sb))
        got = ps.star_product(fa, fb, s_out, out_pts)
        want = _star_double_quadrature(fa, fb, s_out, out_pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def _duality_per_sample(model, s, nsamples, seed):
    """Per-sample loop over explicit fields: (means, standard errors)."""
    grid = ps.default_grid(model)
    stack = ps.kernel_stack(model, grid.points, ps.KernelSpec.cahill_glauber(s))
    harm = ps.harmonic_matrix(model, grid.points)
    w = grid.weights
    vals = {lam: [] for lam in model.labels()}
    for i in range(nsamples):
        # Sample i is row i % 256 of chunk i // 256's Gaussian draw.
        chunk, row = divmod(i, 256)
        k = min(256, nsamples - 256 * chunk)
        g = np.random.default_rng([seed, chunk]).normal(
            size=(k, 2, model.dim))[row]
        psi = (g[0] + 1j * g[1]) / np.linalg.norm(g)
        field = np.einsum("nab,ba->n", stack, np.outer(psi, psi.conj()))
        for lam in model.labels():
            comps = harm[lam] @ (w * field)
            vals[lam].append(float(np.sum(np.abs(comps) ** 2)))
    means = {lam: np.mean(v) for lam, v in vals.items()}
    ses = {lam: math.sqrt(max(0.0, np.mean(np.square(v)) - means[lam] ** 2)
                          / (nsamples - 1)) for lam, v in vals.items()}
    return means, ses


@pytest.mark.parametrize("model", [SpinModel(1), MultipartiteModel(2)],
                         ids=repr)
def test_duality_check_matches_per_sample_loop(model):
    nsamples, seed, s = 300, 11, -1.0  # two chunks, the second partial
    rows = gfd.duality_check(model, [s], nsamples, seed)
    means, ses = _duality_per_sample(model, s, nsamples, seed)
    for row in rows:
        assert row.lhs_mean == pytest.approx(means[row.label], rel=1e-10)
        if row.trivial:
            # Every pure state has the same trivial-sector purity, so both
            # standard errors are cancellation noise of order sqrt(eps).
            assert max(row.lhs_se, ses[row.label]) <= 1e-7 * row.lhs_mean
        else:
            assert row.lhs_se == pytest.approx(ses[row.label], rel=1e-10)
