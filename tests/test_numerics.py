"""Numpy numerics of the runtime package against scipy and mpmath oracles.

The package itself imports only numpy: Gauss-Legendre rules (Golub-Welsch
plus Newton), fermionic exponentials by parity-block ``eigh``, the SO(2n)
logarithm by ``eig`` and Haar SO(2n) by QR.  scipy, a test dependency,
is the reference here.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import sweyl
from sweyl import cli
from sweyl import phase_space as ps
from sweyl.models import FermionicModel, FermionicPoint

from oracles import fermionic_generators, fermionic_point_unitary

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_special = pytest.importorskip("scipy.special")


def test_import_loads_no_scipy_and_loads_numpy_random():
    code = ("import sys, sweyl.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy'))); "
            "print('numpy.random' in sys.modules)")
    src = os.path.dirname(os.path.dirname(sweyl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "True"


@pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 201, 401])
def test_gauss_legendre_integrates_monomials(n):
    x, w = ps.gauss_legendre(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(w * x ** k) - exact) <= 1e-14
    # Measured in ulps of 1, the scale of the interval: near x = 0 scipy's
    # own nodes sit up to ~30 ulps of the node from the mpmath roots.
    x_ref, _ = scipy_special.roots_legendre(n)
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(1.0))


def test_gauss_legendre_weights_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n = 201
    x, w = ps.gauss_legendre(n)
    with mpmath.workdps(40):
        for i in (0, 1, 2, 50, n // 2 - 1):
            root = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                   mpmath.mpf(x[i]))
            dp = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
            ref = 2 / ((1 - root ** 2) * dp ** 2)
            # Newton-polished: within 2 ulps of the node itself, also for
            # the small nodes where bare eigenvalues are off by dozens.
            assert abs(x[i] - float(root)) <= 2 * np.spacing(abs(float(root)))
            assert abs(w[i] / float(ref) - 1) <= 1e-12
    assert x[n // 2] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fermionic_point_unitary_matches_expm(n):
    model = FermionicModel(n)
    odd = np.array([bin(k).count("1") % 2 for k in range(model.dim)])
    cross = odd[:, None] != odd[None, :]
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        pt = model.random_point(rng)
        U = model.point_unitary(pt)
        ref = scipy_linalg.expm(fermionic_generators(model, pt.h)[0])
        assert np.max(np.abs(U - ref)) <= 1e-12
        assert np.max(np.abs(U.conj().T @ U - np.eye(model.dim))) <= 1e-12
        assert np.all(U[cross] == 0.0)


@pytest.mark.parametrize("n, count", [(1, 200), (2, 200), (3, 200),
                                      (4, 200), (5, 200), (6, 200),
                                      (7, 20), (8, 20)])
def test_fermionic_point_unitary_is_bit_equal_to_dense_products(n, count):
    # The generator from one ``operators`` call on the degree-2 word
    # coefficients has the bits of the sum of 2 h_mu nu c_mu c_nu over
    # dense Majorana products, so the unitary has them too; entries span
    # 1e-3 to 1e3, and some generators have zero entries.
    model = FermionicModel(n)
    rng = np.random.default_rng(300 + n)
    g = rng.normal(size=(count, 2 * n, 2 * n))
    g *= 10.0 ** rng.uniform(-3, 3, size=g.shape)
    g[: count // 4] *= rng.integers(0, 2, size=g[: count // 4].shape)
    g[0] = 0.0
    hs = (g - np.swapaxes(g, 1, 2)) / 2
    for h, gen in zip(hs, fermionic_generators(model, hs)):
        want = fermionic_point_unitary(model, gen)
        assert model.point_unitary(h).tobytes() == want.tobytes()


def _rotation(h):
    return scipy_linalg.expm(-4 * h)


def _plane(n, mu, nu, angle):
    h = np.zeros((2 * n, 2 * n))
    h[mu, nu], h[nu, mu] = angle, -angle
    return FermionicPoint(h)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fermionic_act_composes_rotations(n):
    model = FermionicModel(n)
    rng = np.random.default_rng(200 + n)
    ident = model.identity_point()
    pairs = [(model.random_group(rng), model.random_point(rng))
             for _ in range(5)]
    pt = model.random_point(rng)
    pairs += [(ident, ident), (ident, pt), (pt, ident),
              (_plane(n, 0, 1, 0.3), ident),
              (_plane(n, 0, 1, 0.3), _plane(n, 0, 1, 0.25)),
              (_plane(n, 0, 2 * n - 1, -0.6), pt)]
    for g, p in pairs:
        new = model.act(g, p)
        lhs = _rotation(new.h)
        assert np.max(np.abs(lhs - _rotation(p.h) @ _rotation(g.h))) <= 1e-12
    assert np.all(model.act(ident, ident).h == 0.0)


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_haar_rotation_is_special_orthogonal(dim):
    rng = np.random.default_rng(dim)
    dets = []
    for _ in range(20):
        Q = ps._haar_rotation(dim, rng)
        assert np.max(np.abs(Q.T @ Q - np.eye(dim))) <= 1e-12
        dets.append(np.linalg.det(Q))
    assert np.max(np.abs(np.array(dets) - 1.0)) <= 1e-12


def test_cli_numerical_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "cmd_purities", fail)
    assert cli.main(["purities", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
