"""The spin's CG products from one gather per block of diagonals.

``SpinModel.sector_purities`` and ``coefficients`` read every diagonal
of an operator stack through one gather of cached flat indices per block
of q.
They must agree bit for bit (signed zeros included) with the
one-diagonal-at-a-time route of ``tests/oracles.py``, at every block
split; ``operators`` keeps the bits of rows built afresh per q.  Guards
on the cost: the numpy calls of one call stay O(d) with no per-q
``np.diagonal``, and the gather buffers stay inside the memory bounds of
the large-S commands.  ``coherent_fidelity``, a scan and a compass search
over batches of ``coherent_states``, agrees with the point-by-point scan
and golden-section refinement of ``tests/oracles.py`` and builds no
single coherent state or point unitary.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sweyl
from sweyl import gfd, models
from sweyl.cli import _phasespace_bytes, main
from sweyl.models import MultipartiteModel, SpinModel

from oracles import (cg_coefficients, cg_operators, cg_sector_purities,
                     coherent_fidelity_pointwise)


def _bits(x):
    x = np.ascontiguousarray(x)
    return (x.view(float) if np.iscomplexobj(x) else x).view(np.uint64)


def _assert_same_bits(model, A):
    got, want = model.sector_purities(A), cg_sector_purities(model, A)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(model.coefficients(A)),
                          _bits(cg_coefficients(model, A)))


def _inputs(model, rng):
    """Single operators and stacks: complex, real, transposed (not
    contiguous), with signed zeros, and the mirror-symmetric hw, ghz and
    m= states."""
    d = model.dim
    S = model.S.twice / 2
    psis = [model.hw_state(), model.ghz_state(), model.named_state(f"m={S - 1}")
            if d > 2 else model.basis_state(-S)]
    rhos = np.stack([np.outer(p, p.conj()) for p in psis])
    A = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    Z = np.where(rng.random(A.shape) < 0.3, -0.0, A)
    out = [A[0], A[0].real, A[0].T, A[:1], A, np.swapaxes(A, -1, -2), Z,
           rhos, *rhos]
    if d <= 9:  # the duality chunk of a small spin
        out.append(rng.normal(size=(256, d, d))
                   + 1j * rng.normal(size=(256, d, d)))
    return out


@pytest.mark.parametrize("tS", [1, 2, 3, 8, 17, 40, 200])
def test_cg_products_match_per_diagonal_route_bit_for_bit(tS):
    model = SpinModel(tS / 2)
    for A in _inputs(model, np.random.default_rng(tS)):
        _assert_same_bits(model, A)


@pytest.mark.parametrize("tS", [3, 8, 17, 40])
@pytest.mark.parametrize("cap", [1, 2 ** 16, 2 ** 18])
def test_cg_products_bits_hold_when_blocks_split(monkeypatch, tS, cap):
    # A cap of 1 B gives one q per block; the others cut uneven blocks.
    monkeypatch.setattr(models, "TABLE_BYTES", cap)
    model = SpinModel(tS / 2)
    rng = np.random.default_rng(100 + tS)
    for A in _inputs(model, rng)[:8]:
        _assert_same_bits(model, A)


@pytest.mark.parametrize("tS", [1, 8, 40, 200])
def test_operators_keep_the_bits_of_fresh_rows(tS):
    model, d = SpinModel(tS / 2), tS + 1
    rng = np.random.default_rng(tS)
    for shape in [((2 * d - 1) * d,), (3, (2 * d - 1) * d)]:
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(_bits(model.operators(b)),
                              _bits(cg_operators(model, b)))


def _numpy_calls(monkeypatch, f) -> list[str]:
    """Names of the calls f makes into numpy: C functions and methods and
    numpy's Python-level functions as the profiler reports them, plus
    ``np.matmul``, a ufunc, which it does not report."""
    root = os.path.dirname(np.__file__)
    names = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        names.append("matmul")
        return matmul(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__self__", None) is not names:
            names.append(arg.__name__)
        elif event == "call" and frame.f_code.co_filename.startswith(root):
            names.append(frame.f_code.co_name)

    monkeypatch.setattr(np, "matmul", counted)
    sys.setprofile(profile)
    try:
        f()
    finally:
        sys.setprofile(None)
    return names


def test_sector_purities_numpy_calls_stay_linear_in_d(monkeypatch):
    # Two matmuls per diagonal and O(1) calls per block; the per-diagonal
    # route makes about 40 per q (np.diagonal, np.stack, copies, sums).
    model = SpinModel(20)
    d = model.dim
    A = np.random.default_rng(0).normal(size=(d, d)) + 0j
    model.sector_purities(A)  # the CG table and the index are built once
    bound = 3 * d + 30
    calls = _numpy_calls(monkeypatch, lambda: model.sector_purities(A))
    assert len(calls) <= bound
    assert "diagonal" not in calls
    oracle = _numpy_calls(monkeypatch, lambda: cg_sector_purities(model, A))
    assert len(oracle) > bound and "diagonal" in oracle


def _subprocess_peak(argv, out) -> int:
    """ru_maxrss growth in KiB of one CLI run over its import."""
    code = (
        "import resource, sys\n"
        "from sweyl.cli import main\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"code = main({argv!r} + ['--out', sys.argv[1]])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, peak - base)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sweyl.__file__)))
    res = subprocess.run([sys.executable, "-c", code, str(out)],
                         capture_output=True, text=True, check=True, env=env)
    code, growth = map(int, res.stdout.split())
    assert code == 0
    return growth


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_duality_spin_100_peak_stays_bounded(tmp_path):
    # 36.5 MiB of ru_maxrss over the import (73.2 MiB in all; 2-vCPU host,
    # one BLAS thread), with or without the gather; one unblocked gather
    # of the (12, 201, 201) sample stacks added 30 MiB.
    growth = _subprocess_peak(["duality", "--qrt", "spin", "--spin-S", "100",
                               "--samples", "500", "--seed", "1"], tmp_path)
    assert growth <= 40 * 1024


def test_phasespace_spin_100_stays_under_estimate(tmp_path):
    argv = ["phasespace", "--spin-S", "100", "--state", "hw", "--state",
            "haar", "--s", "-1", "--s", "0", "--grid", "64x128",
            "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= _phasespace_bytes(64, 128, SpinModel(100), 2, 201, 2)


@pytest.mark.parametrize("model, which", [
    (SpinModel(1), "m=0"), (SpinModel(2), "ghz"), (SpinModel(1.5), "haar"),
    (MultipartiteModel(1), "haar"), (MultipartiteModel(2), "haar"),
    # A ridge: shrinking every span each round falls 8e-7 short here.
    (SpinModel(5), "haar")],
    ids=repr)
def test_coherent_fidelity_batched_scan_matches_pointwise(model, which):
    psi = model.named_state(which, seed=3)
    assert abs(gfd.coherent_fidelity(model, psi)
               - coherent_fidelity_pointwise(model, psi)) <= 1e-12


@pytest.mark.parametrize("model", [
    SpinModel(2), MultipartiteModel(1), MultipartiteModel(2)], ids=repr)
def test_coherent_fidelity_reads_only_batches(monkeypatch, model):
    psi = model.named_state("haar", seed=1)
    want = gfd.coherent_fidelity(model, psi)

    def refuse(*args):
        raise AssertionError("pointwise coherent state or point unitary")

    monkeypatch.setattr(models.QrtModel, "coherent_state", refuse)
    for cls in (models.SpinModel, models.MultipartiteModel,
                models.FermionicModel):
        monkeypatch.setattr(cls, "point_unitary", refuse)
    assert gfd.coherent_fidelity(model, psi) == want
