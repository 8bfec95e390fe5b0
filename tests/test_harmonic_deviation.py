"""``verify``'s harmonic check as one float per model.

A spin's ``harmonic_deviation`` takes max |G - I| per q, from one
Legendre recursion over the grid's thetas and one ring's trig Gram
matrix, without the (d**2, N) table; a qubit's reads the Kronecker power
of one qubit's Gram matrix.  The Gram matrix of the whole weighted point
table (``oracles.harmonic_deviation_by_point_table``) is the oracle, on
the default grids and on grids that fail the check: an under-resolved
rule, one aliased in phi only, the under-resolved rule turned in phi,
and a ring whose weight is off by 1e-6.  The qubits' Kronecker route
meets the same oracle in ``test_product_grid``.
"""

import math

import numpy as np
import pytest

from sweyl import phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import SpinModel

from oracles import harmonic_deviation_by_point_table

QUAD_TOL = 1e-8  # ``verify``'s default


def theta_phi_grid(ntheta, nphi, shift=0.0):
    """Gauss-Legendre thetas x ``nphi`` equispaced phis turned by
    ``shift``, weights as in ``phase_space.sphere_quadrature``."""
    x, wx = ps.gauss_legendre(ntheta)
    phi = 2 * math.pi * np.arange(nphi) / nphi + shift
    points = np.stack(np.meshgrid(np.arccos(x), phi, indexing="ij"), axis=-1)
    return ps.Quadrature(points.reshape(-1, 1, 2),
                         np.repeat(wx / (2 * nphi), nphi))


def failing_grids(model):
    """(name, grid) of grids on which the check must fail."""
    d = model.dim
    under = ps.sphere_quadrature(model.band - 1)
    ntheta, nphi = len(np.unique(under.points[:, 0, 0])), 2 * d - 4
    w = np.array(ps.default_grid(model).weights)
    w[2 * d:4 * d] *= 1 + 1e-6  # the second theta ring
    return [
        ("under-resolved", under),
        # cos((d - 1) phi) and cos((d - 2) phi) alias only into each
        # other: every block q = q' is exact, only the cross terms fail.
        ("phi-aliased", theta_phi_grid(d, 2 * d - 3)),
        # Turned so that the sin row of q = 2S - 1 doubles and its cos
        # row vanishes.
        ("turned", theta_phi_grid(ntheta, nphi, math.pi / nphi)),
        ("ring-weight", ps.Quadrature(ps.default_grid(model).points, w)),
    ]


@pytest.mark.parametrize("twice_s", range(1, 41))
def test_spin_deviation_matches_the_point_table(twice_s):
    model = SpinModel(HalfInt(twice_s))
    grid = ps.default_grid(model)
    got = model.harmonic_deviation(grid)
    assert abs(got - harmonic_deviation_by_point_table(model, grid)) <= 1e-14
    assert got <= 1e-14


@pytest.mark.parametrize("twice_s", [2, 3, 8, 17, 24])
def test_spin_deviation_fails_where_the_point_table_does(twice_s):
    model = SpinModel(HalfInt(twice_s))
    for name, grid in failing_grids(model):
        got = model.harmonic_deviation(grid)
        want = harmonic_deviation_by_point_table(model, grid)
        assert got > QUAD_TOL and want > QUAD_TOL, name
        assert abs(got - want) <= 1e-14, name


def test_spin_deviation_refuses_rings_of_other_phis():
    model = SpinModel(3)
    grid = ps.default_grid(model)
    points = grid.points.copy()
    points[1, 0, 1] += 0.1  # one node off its ring's phis
    with pytest.raises(ValueError, match="one set of phis"):
        model.harmonic_deviation(ps.Quadrature(points, grid.weights))
    w = np.array(grid.weights)
    w[0] *= 2  # unequal weights on one ring
    with pytest.raises(ValueError, match="equal weights"):
        model.harmonic_deviation(ps.Quadrature(grid.points, w))
