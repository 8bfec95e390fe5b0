"""Acceptance suite: fifteen numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria use fixed seeds; tolerances on identities tied to
large filtered values (criteria 2 and 3) are scale-aware,
``tol * (1 + |reference|)``, since the references reach 1e5..1e6 where a
bare absolute tolerance sits below double-precision resolution.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import sweyl
from sweyl import gfd
from sweyl import phase_space as ps
from sweyl import render
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

from oracles import star_kernel, star_kernel_factored

H = HalfInt.of


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def _rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def _haar_batch(dim, count, rng):
    vecs = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _purity_samples(model, psis):
    """(nsamples, nsectors) sector purities of a batch of pure states."""
    cols = []
    for block in model.blocks():
        amps = np.einsum("na,jab,nb->nj", psis.conj(), block.basis, psis)
        cols.append(np.sum(np.abs(amps) ** 2, axis=1))
    return np.column_stack(cols)


def test_criterion_01_tau_two_routes():
    t0 = time.perf_counter()
    models = ([SpinModel(H(S)) for S in ("1/2", 1, 2, 5)]
              + [MultipartiteModel(n) for n in (1, 2, 3)]
              + [FermionicModel(n) for n in (1, 2, 3)])
    worst = 0.0
    for model in models:
        for lam in model.labels():
            worst = max(worst, abs(model.tau(lam) - model.tau_from_hw(lam)))
    elapsed = time.perf_counter() - t0
    _report(1, "tau closed form vs highest-weight route",
            worst <= 1e-10 and elapsed < 10,
            f"max dev {worst:.2e}, {elapsed:.1f} s over {len(models)} models")


def test_criterion_02_kernel_purity_flat():
    worst = 0.0
    for model in (SpinModel(3), MultipartiteModel(2), FermionicModel(2)):
        rng = np.random.default_rng(0)
        for s in (-1.0, 0.0, 1.0):
            spec = ps.KernelSpec.cahill_glauber(s)
            for _ in range(10):
                D = ps.sw_kernel(model, model.random_point(rng), spec)
                spectrum = gfd.purity_spectrum(D, model)
                for lam in model.labels():
                    ref = gfd.kernel_purity(model, lam, s)
                    worst = max(worst,
                                abs(spectrum[lam] - ref) / (1 + abs(ref)))
    _report(2, "kernel sector purity flat at tau^(-s) d",
            worst <= 1e-10, f"max scaled dev {worst:.2e}")


def test_criterion_03_filter_identity(tmp_path):
    t0 = time.perf_counter()
    model = SpinModel(5)
    rng = np.random.default_rng(7)
    states = {"hw": model.hw_state(), "m0": model.basis_state(0),
              "ghz": model.ghz_state()}
    for k in range(20):
        states[f"haar{k}"] = model.haar_state(rng)
    grid = ps.default_grid(model)
    svals = (-1.0, -0.5, 0.0, 0.5, 1.0)
    stacks = {s: ps.kernel_stack(model, grid.points,
                                 ps.KernelSpec.cahill_glauber(s))
              for s in svals}
    worst = 0.0
    csv_rows = []
    for name, psi in states.items():
        rho = np.outer(psi, psi.conj())
        spectrum = gfd.purity_spectrum(rho, model)
        for s in svals:
            field = ps.SymbolField(model, grid, ps.KernelSpec.cahill_glauber(s),
                                   np.einsum("nab,ba->n", stacks[s], rho))
            quad = ps.phase_purity_quadrature(field)
            want = gfd.phase_purity(spectrum, s, model)
            for lam in model.labels():
                worst = max(worst,
                            abs(quad[lam] - want[lam]) / (1 + abs(want[lam])))
                if name in ("hw", "m0", "ghz"):
                    csv_rows.append([name, s, str(lam), quad[lam], want[lam]])
    render.write_csv(tmp_path / "filtered_purities.csv",
                     ["state", "s", "sector", "quadrature", "reference"],
                     comments=["seed=7"], columns=list(zip(*csv_rows)))
    elapsed = time.perf_counter() - t0
    _report(3, "filtered purity matches tau^(-s) scaling",
            worst <= 1e-8 and elapsed < 60,
            f"max scaled dev {worst:.2e}, {elapsed:.1f} s, "
            f"CSV {len(csv_rows)} rows")


def test_criterion_04_duality():
    t0 = time.perf_counter()
    model = SpinModel(2)
    worst_z, worst_triv = 0.0, 0.0
    for row in gfd.duality_check(model, [-1.0, 0.0], 2000, seed=42):
        if row.trivial:
            worst_triv = max(worst_triv, abs(row.lhs_mean - row.rhs))
        else:
            worst_z = max(worst_z, abs(row.zscore))
    elapsed = time.perf_counter() - t0
    _report(4, "Haar mean of filtered spectrum matches s+1 dual",
            worst_z <= 4.0 and worst_triv <= 1e-10 and elapsed < 120,
            f"max |z| {worst_z:.2f}, trivial dev {worst_triv:.1e}, "
            f"{elapsed:.1f} s")


def test_criterion_05_haar_flatness():
    nsamples = 2000
    worst_z, worst_triv = 0.0, 0.0
    for model, seed in ((SpinModel(2), 3), (MultipartiteModel(2), 4)):
        rng = np.random.default_rng(seed)
        samples = _purity_samples(model, _haar_batch(model.dim, nsamples, rng))
        for k, lam in enumerate(model.labels()):
            mean = float(np.mean(samples[:, k]))
            want = gfd.haar_mean_purity(model, lam)
            if lam == model.trivial_label:
                worst_triv = max(worst_triv, abs(mean - want))
            else:
                se = float(np.std(samples[:, k], ddof=1)) / math.sqrt(nsamples)
                worst_z = max(worst_z, abs(mean - want) / se)
    _report(5, "Haar mean spectrum flat at d_lam / (d (d+1))",
            worst_z <= 4.0 and worst_triv <= 1e-12,
            f"max |z| {worst_z:.2f}, trivial dev {worst_triv:.1e}")


def test_criterion_06_tracing():
    model = SpinModel(5)
    grid = ps.default_grid(model)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        A = _rand_hermitian(model.dim, rng)
        B = _rand_hermitian(model.dim, rng)
        want = float(np.real(np.trace(A @ B)))
        for s in (-1.0, 0.0, 1.0):
            fa = ps.symbol_field(model, A, grid,
                                 ps.KernelSpec.cahill_glauber(s))
            fb = ps.symbol_field(model, B, grid,
                                 ps.KernelSpec.cahill_glauber(-s))
            got = float(grid.weights @ (fa.values.real * fb.values.real))
            worst = max(worst, abs(got - want))
    _report(6, "opposite-s fields trace to Tr[A B]",
            worst <= 1e-8, f"max dev {worst:.2e} over 20 pairs x 3 s")


def test_criterion_07_husimi_and_factorization():
    spec = ps.KernelSpec.cahill_glauber(-1.0)
    worst = 0.0
    for model in (SpinModel(2), MultipartiteModel(3), FermionicModel(3)):
        rng = np.random.default_rng(2)
        for _ in range(10):
            point = model.random_point(rng)
            D = ps.sw_kernel(model, point, spec)
            psi = model.coherent_state(point)
            worst = max(worst, float(np.linalg.norm(
                D - np.outer(psi, psi.conj()))))
    worst_kron = 0.0
    qubit = MultipartiteModel(1)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        model = MultipartiteModel(n)
        for s in (-1.0, 0.3, 1.0):
            kspec = ps.KernelSpec.cahill_glauber(s)
            pts = model.random_point(rng)
            D = ps.sw_kernel(model, pts, kspec)
            factors = [ps.sw_kernel(qubit, (pt,), kspec) for pt in pts]
            want = factors[0]
            for f in factors[1:]:
                want = np.kron(want, f)
            worst_kron = max(worst_kron, float(np.max(np.abs(D - want))))
    _report(7, "s = -1 kernel is the coherent projector; kernels factorize",
            worst <= 1e-10 and worst_kron <= 1e-12,
            f"projector dev {worst:.2e}, kron dev {worst_kron:.2e}")


def test_criterion_08_star_product():
    model = SpinModel(1)
    rng = np.random.default_rng(3)
    grid = ps.sphere_quadrature(model.S.twice)  # resolves twice the band
    out_pts = [model.random_point(rng) for _ in range(20)]
    spec0 = ps.KernelSpec.cahill_glauber(0.0)
    stack_out = ps.kernel_stack(model, out_pts, spec0)
    worst = 0.0
    for _ in range(10):
        A = _rand_hermitian(3, rng)
        B = _rand_hermitian(3, rng)
        fa = ps.symbol_field(model, A, grid, spec0)
        fb = ps.symbol_field(model, B, grid, spec0)
        got = ps.star_product(fa, fb, 0.0, out_pts)
        want = np.einsum("nab,ba->n", stack_out, A @ B)
        worst = max(worst, float(np.max(np.abs(got - want))))
    worst_fac = 0.0
    for s_triple in [(0.0, 0.0, 0.0), (1.0, -0.5, 0.5)]:
        pts = [model.random_point(rng) for _ in range(3)]
        direct = star_kernel(model, s_triple, *pts)
        fac = star_kernel_factored(model, s_triple, *pts)
        worst_fac = max(worst_fac, abs(direct - fac))
    _report(8, "twisted product reproduces operator product",
            worst <= 1e-6 and worst_fac <= 1e-10,
            f"product dev {worst:.2e}, coupling dev {worst_fac:.2e}")


def test_criterion_09_reconstruction():
    worst = 0.0
    for model in (SpinModel(2), MultipartiteModel(2)):
        rng = np.random.default_rng(4)
        grid = ps.default_grid(model)
        A = _rand_hermitian(model.dim, rng)
        for s in (-1.0, 0.0, 1.0):
            field = ps.symbol_field(model, A, grid,
                                    ps.KernelSpec.cahill_glauber(s))
            back = ps.reconstruct(field)
            worst = max(worst, float(np.linalg.norm(back - A)))
    _report(9, "dual-kernel reconstruction round trip",
            worst <= 1e-8, f"max HS dev {worst:.2e}")


def test_criterion_10_fermionic_odd_sectors():
    worst_closed = 0.0
    for n in range(1, 11):
        model = FermionicModel(n)
        for lam in model.labels():
            if lam % 2:
                worst_closed = max(worst_closed, abs(model.tau(lam)),
                                   abs(gfd.kernel_purity(model, lam, 1.0)))
    worst_num = 0.0
    for n in (1, 2, 3):
        model = FermionicModel(n)
        rng = np.random.default_rng(6)
        for s in (-1.0, 0.0, 1.0):
            D = ps.sw_kernel(model, model.random_point(rng),
                             ps.KernelSpec.cahill_glauber(s))
            spectrum = gfd.purity_spectrum(D, model)
            for lam in model.labels():
                if lam % 2:
                    worst_num = max(worst_num, abs(spectrum[lam]))
    _report(10, "fermionic odd sectors vanish exactly",
            worst_closed == 0.0 and worst_num == 0.0,
            f"closed form {worst_closed:.1e} (n <= 10), "
            f"numerical {worst_num:.1e} (n <= 3)")


def test_criterion_11_wigner_negativity():
    model = SpinModel(5)
    rho = np.outer(model.hw_state(), model.hw_state().conj())
    theta, phi = render.equirect_grid(64, 128)
    points = [(t, p) for t in theta for p in phi]
    wigner = np.real(np.einsum(
        "nab,ba->n",
        ps.kernel_stack(model, points, ps.KernelSpec.cahill_glauber(0.0)),
        rho))
    husimi = np.real(np.einsum(
        "nab,ba->n",
        ps.kernel_stack(model, points, ps.KernelSpec.cahill_glauber(-1.0)),
        rho))
    _report(11, "coherent-state symbol: s = 0 negative, s = -1 non-negative",
            wigner.min() < 0 and husimi.min() >= -1e-12,
            f"min Wigner {wigner.min():.2e}, min Husimi {husimi.min():.2e}")


def test_criterion_12_norm_bounds_and_flow():
    model = SpinModel(3)
    grid = ps.default_grid(model)
    rng = np.random.default_rng(8)
    margin = 0.0
    for _ in range(100):
        psi = model.haar_state(rng)
        rho = np.outer(psi, psi.conj())
        for s in (-1.0, 0.0, 1.0):
            field = ps.symbol_field(model, rho, grid,
                                    ps.KernelSpec.cahill_glauber(s))
            norm2 = float(grid.weights @ (field.values.real ** 2))
            lo, hi = gfd.norm_bounds(model, s)
            margin = max(margin, lo - norm2, norm2 - hi)
    # Log-derivative of each filtered sector purity in s is -ln tau.
    rho = np.outer(model.ghz_state(), model.ghz_state().conj())
    ds, worst_flow = 1e-3, 0.0
    quads = {}
    for step in (+ds, -ds):
        field = ps.symbol_field(model, rho, grid,
                                ps.KernelSpec.cahill_glauber(step))
        quads[step] = ps.phase_purity_quadrature(field)
    for lam in model.labels():
        up, dn = quads[+ds][lam], quads[-ds][lam]
        if up < 1e-12:
            continue  # sector absent from GHZ
        deriv = (math.log(up) - math.log(dn)) / (2 * ds)
        want = gfd.s_flow_generator(model, lam)
        worst_flow = max(worst_flow, abs(deriv - want) / abs(want))
    _report(12, "field norm bounded by extreme tau powers; s-flow rate",
            margin <= 1e-8 and worst_flow <= 1e-6,
            f"bound margin {margin:.2e}, flow rel dev {worst_flow:.2e}")


def test_criterion_13_markov_bound():
    model = SpinModel(2)
    nsamples = 2000
    rng = np.random.default_rng(9)
    samples = _purity_samples(model, _haar_batch(model.dim, nsamples, rng))
    worst_excess = -1.0
    for k, lam in enumerate(model.labels()):
        if lam == model.trivial_label:
            continue
        for a in (0.05, 0.1, 0.5):
            bound = gfd.markov_bound(model, lam, a)
            frac = float(np.mean(samples[:, k] >= a))
            sigma = math.sqrt(frac * (1 - frac) / nsamples + 1e-16)
            worst_excess = max(worst_excess,
                               frac - (min(1.0, bound) + 4 * sigma))
    _report(13, "Haar exceedance within the Markov tail bound",
            worst_excess <= 0.0, f"max excess {worst_excess:.2e}")


def test_criterion_14_coherent_fidelity():
    worst_coh, worst_ghz = 0.0, 0.0
    for S in (1, 2, 5):
        model = SpinModel(S)
        rng = np.random.default_rng(10 + S)
        psi = model.coherent_state(model.random_point(rng))
        worst_coh = max(worst_coh,
                        abs(gfd.coherent_fidelity(model, psi) - 1.0))
        worst_ghz = max(worst_ghz,
                        abs(gfd.coherent_fidelity(model, model.ghz_state())
                            - 0.5))
    _report(14, "max coherent overlap: 1 for free states, 1/2 for GHZ",
            worst_coh <= 1e-8 and worst_ghz <= 1e-4,
            f"coherent dev {worst_coh:.2e}, GHZ dev {worst_ghz:.2e}")


def test_criterion_15_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "sweyl.cli"]
    # The CLI subprocesses import the same sweyl as this test.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sweyl.__file__)))
    args = ["phasespace", "--qrt", "spin", "--spin-S", "2", "--state", "ghz",
            "--s", "0", "--grid", "24x48", "--projection", "robinson",
            "--seed", "5"]
    for sub in ("a", "b"):
        r = subprocess.run(base + args + ["--out", str(tmp_path / sub)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("field_ghz_s+0.csv", "field_ghz_s+0.ppm"))
    r = subprocess.run(base + ["verify", "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env)
    _report(15, "CLI byte-determinism and default verify",
            identical and r.returncode == 0,
            f"identical={identical}, verify exit {r.returncode}")
