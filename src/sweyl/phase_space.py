"""Phase-space kernels, symbols, quadrature and the twisted product.

The kernel family interpolates between the coherent-state projector
(s = -1), the Wigner-type self-dual kernel (s = 0) and its inverse
(s = +1).  In terms of the sector bases and harmonics,

    Delta(Omega, s) = sum_lam tau_lam**(-s/2) sum_j Y^lam_j(Omega) D^lam_j,

with harmonics ``Y^lam_j(Omega) = tau_lam**(-1/2) <Omega| D^lam_j |Omega>``
orthonormal under the normalized invariant measure.  All integrals here
use that normalized measure, so the harmonics are an orthonormal family
and reconstruction/tracing identities hold without extra volume factors;
the price is a ``d**((s-1)/2)`` factor in the standardization integral.

Nothing here tests a model's class: grids and band checks read the
geometry each model declares (``band``, ``nspheres``; see ``models``).
Every structured grid is one ``Quadrature``: an (N, nspheres, 2) array of
(theta, phi) per sphere and N weights, so a spin grid is (N, 1, 2) and an
n-qubit grid the product of n such rules (``product_quadrature``), which
keeps its one-sphere rule as ``factor``; a Monte-Carlo grid is a list of
fermionic points.

Every field, reconstruction and harmonic goes through one core, the
model's coefficient route (``models``): a kernel is ``Delta(Omega) =
sum_lam f_lam Pi_lam(U |hw><hw| U^H)`` with one filter factor f_lam per
sector (``sector_factors``), so the field of A is ``synthesis(f_lam c)``
of its coefficients ``c = coefficients(A)``, and ``kernel_sums``, the
weighted sum of kernels over nodes, is ``operators(f_lam
synthesis_adjoint(w))``.  ``fields`` and ``kernel_sums`` take a stack of
operators (or of node weights) and a column of factors per spec; the
functionals (``symbol_field``, ``reconstruct``, ``star_product``, ...)
act on one field or on a stack of columns with one such pass per call.
For a spin the synthesis is a spherical-harmonic transform,
O((n_theta d + N) d) per column; for qubits and fermions a sum over the
4**n Pauli words.  The functionals pass a grid's ``factor`` on: on a
product grid the qubit synthesis, its adjoint and the harmonics run one
qubit at a time, O(N) per qubit and column, and no (N, 4**n) word table
is formed; any other point set (random points, ``phasespace``'s
one-sphere marginal, a star product's output points) reads that table in
row chunks.  ``harmonic_matrix`` splits the model's point table
``harmonics``.  ``kernel_stack`` (``U D0 U^H``, with the center kernel's
diagonal ``center_diagonal``) is the tests' independent reference route.
At s > 0 any route keeps an error of about ``eps kappa**s`` of the
field's maximum (``kappa``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._frozen import Frozen
from .gfd import PuritySpectrum, filter_factors
from .models import FermionicModel, QrtModel, admit


# -- kernel specification -----------------------------------------------------

class KernelSpec(Frozen):
    """Which member of the kernel family to use.

    Either an ordering parameter ``s`` (the standard family) or a tuple of
    per-sector filter coefficients ``k_lam`` (generalized filters, where
    the symbol of A is ``sum_lam k_lam sum_j Y_j <D_j, A>``).  Immutable;
    equal (and hashing equal) when ``s`` and ``coeffs`` are.
    """

    __slots__ = ("s", "coeffs")

    def __init__(self, s: float | None = None, coeffs: tuple | None = None):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def cahill_glauber(cls, s: float) -> "KernelSpec":
        return cls(s=float(s), coeffs=None)

    @classmethod
    def generalized(cls, coeffs: dict) -> "KernelSpec":
        items = tuple(sorted(coeffs.items()))
        return cls(s=None, coeffs=items)

    @property
    def is_generalized(self) -> bool:
        return self.coeffs is not None

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def dual(self) -> "KernelSpec":
        """The spec pairing with this one in the tracing identity."""
        if not self.is_generalized:
            return KernelSpec.cahill_glauber(-self.s)
        zero = [lam for lam, k in self.coeffs if k == 0]
        if zero:
            raise ValueError(
                f"filter not invertible: zero coefficient on sectors {zero}")
        return KernelSpec.generalized({lam: 1 / k for lam, k in self.coeffs})

    def validate(self, model: QrtModel) -> None:
        if self.is_generalized:
            k0 = self.coeff_map().get(model.trivial_label, 0.0)
            if k0 <= 0:
                raise ValueError(
                    "generalized filter needs a positive coefficient "
                    "on the trivial sector")


# -- quadrature grids ---------------------------------------------------------

class Quadrature:
    """Nodes and weights of a phase-space integral, normalized measure.

    A structured grid holds an (N, nspheres, 2) float array of (theta,
    phi) per sphere, one row per node, and integrates exactly products of
    two functions band-limited at ``2 * band`` on each sphere (polynomial
    degree ``4 * band`` in cos(theta), azimuthal order ``4 * band``);
    a product grid keeps its one-sphere rule ``factor``, whose n-fold
    product it is.  A Monte-Carlo grid holds a list of ``FermionicPoint``s
    with equal weights and no band.  Its identities do not hold, not even
    in expectation: every point is a rotation in SO(2n), so each coherent
    state has one fermion parity, and on one parity no symbol tells
    Majorana weight k from weight 2n - k.  On such points the fermionic
    harmonics' Gram matrix is 1.02 from the identity at n = 2 and 1.05 at
    n = 3, and more points do not shrink the error (ROADMAP item 9).
    """

    __slots__ = ("points", "weights", "band", "factor")

    def __init__(self, points, weights: np.ndarray, band: float | None = None,
                 factor: Quadrature | None = None):
        self.points = points
        self.weights = weights
        self.band = band
        self.factor = factor


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence (n >= 1)."""
    p0, p1 = np.ones_like(x), x
    d0, d1 = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        d0, d1 = d1, d0 + (2 * k + 1) * p0
    return p1, d1


def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Golub & Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the Legendre recurrence.
    Three Newton steps on P_n polish them to about an ulp, and the weights
    are 2 / ((1 - x**2) P_n'(x)**2); both are symmetrized about 0.
    """
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    x = (x - x[::-1]) / 2
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x) * (1 + x) * dp ** 2)
    return x, (w + w[::-1]) / 2


def _sphere_shape(band: float) -> tuple[int, int]:
    """(ntheta, nphi) of the Gauss-Legendre x uniform-phi rule at a band."""
    return math.ceil(2 * band + 1), math.ceil(4 * band + 2)


def sphere_quadrature(band) -> Quadrature:
    """Tensor Gauss-Legendre x uniform-phi grid on one sphere, resolving
    harmonic content up to ``2 * band``: (N, 1, 2) points."""
    band = float(band)
    if band < 0:
        raise ValueError("band must be non-negative")
    ntheta, nphi = _sphere_shape(band)
    x, wx = gauss_legendre(ntheta)
    phi = 2 * math.pi * np.arange(nphi) / nphi
    points = np.stack(np.meshgrid(np.arccos(x), phi, indexing="ij"), axis=-1)
    w = np.repeat(wx / (2 * nphi), nphi)
    return Quadrature(points.reshape(-1, 1, 2), w, band)


def product_quadrature(nspheres: int, band=0.5) -> Quadrature:
    """Product grid over several spheres (multi-qubit phase space): node
    (i_1, ..., i_n) of the one-sphere rule, the last sphere fastest, with
    weight ``w_i1 ... w_in`` multiplied left to right.  The one-sphere
    rule stays on the grid as its ``factor``, so the qubit transforms run
    one sphere at a time."""
    base = sphere_quadrature(band)
    nodes = base.points[:, 0]  # sphere q's node index runs along axis q
    points = np.stack(np.broadcast_arrays(*(
        nodes.reshape((-1,) + (1,) * (nspheres - 1 - q) + (2,))
        for q in range(nspheres))), axis=-2).reshape(-1, nspheres, 2)
    weights = functools.reduce(np.multiply.outer, [base.weights] * nspheres)
    return Quadrature(points, weights.ravel(), base.band, factor=base)


def mc_group_quadrature(model: FermionicModel, nnodes: int,
                        seed: int) -> Quadrature:
    """Haar-random rotation points for Monte-Carlo fermionic integrals."""
    rng = np.random.default_rng(seed)
    points = [model.point_of_rotation(_haar_rotation(2 * model.n, rng))
              for _ in range(nnodes)]
    return Quadrature(points, np.full(nnodes, 1.0 / nnodes))


def _haar_rotation(dim: int, rng) -> np.ndarray:
    """Haar-random rotation in SO(dim): QR of a Gaussian matrix.

    Scaling each column of Q by the sign of R's diagonal makes Q Haar on
    O(dim) (Mezzadri, Notices AMS 54, 592 (2007)); flipping one column
    when det Q = -1 carries that measure onto SO(dim).
    """
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def default_grid_size(model: QrtModel) -> int:
    """Node count of ``default_grid(model)``, without building it."""
    if model.band is None:
        return 0
    return math.prod(_sphere_shape(model.band)) ** model.nspheres


def default_grid(model: QrtModel) -> Quadrature:
    """Structured quadrature adapted to the model's band limit."""
    if model.band is None:
        raise ValueError(
            "no structured quadrature for this model; use mc_group_quadrature")
    if model.nspheres == 1:  # the rule itself, not a copy of it
        return sphere_quadrature(model.band)
    return product_quadrature(model.nspheres, model.band)


def _check_band(model: QrtModel, grid, factor: int = 1) -> None:
    """Refuse a structured grid that under-resolves ``factor`` times the
    model's band limit (1 for fields, 2 for products of two fields)."""
    if grid.band is None or model.band is None:
        return  # Monte-Carlo grid or model: no band to check
    if grid.band < factor * model.band - 1e-9:
        raise ValueError(
            f"grid band {grid.band} under-resolves {factor} x the band "
            f"limit {model.band} of {model!r}")


# -- kernels and symbols ------------------------------------------------------

def sw_kernel(model: QrtModel, point, spec, unitary=None) -> np.ndarray:
    """Kernel at a phase point, the conjugated center kernel U c U^H: (d,
    d) for one spec, or a (W, d, d) stack for a tuple of W specs, all from
    one ``point_unitary`` (or the point's ``unitary`` when the caller holds
    it) and one ``hw_sector_diagonals`` read."""
    one = np.ndim(spec) == 0
    U = model.point_unitary(point) if unitary is None else unitary
    table = model.hw_sector_diagonals()
    c = np.stack([sector_factors(model, sp) @ table
                  for sp in ((spec,) if one else spec)])
    D = (U * c[:, None]) @ U.conj().T
    return D[0] if one else D


def kernel_stack(model: QrtModel, points, spec: KernelSpec) -> np.ndarray:
    """(N, d, d) stack of kernels at the given points: U_n D0 U_n^H.

    The tests' reference for the coefficient route, with which it shares
    only ``sector_factors``.  Three complex (N, d, d) stacks are live at
    once, which ``models.admit`` weighs first.
    """
    admit(f"kernel stack of {len(points)} nodes at d={model.dim}",
          3 * len(points) * model.dim ** 2 * 16)
    c = center_diagonal(model, spec)
    U = model.point_unitaries(points)
    UD = U * c
    np.conjugate(U, out=U)  # U^H without a fourth stack
    return UD @ U.transpose(0, 2, 1)


def symbol(model: QrtModel, A: np.ndarray, point, spec: KernelSpec) -> complex:
    """Phase-space symbol F_A(point) = Tr[Delta(point) A]."""
    return complex(np.einsum("ab,ba->", sw_kernel(model, point, spec),
                             np.asarray(A)))


def sector_factors(model: QrtModel, spec: KernelSpec) -> np.ndarray:
    """(L,) filter factor f_lam of each sector in ``labels()`` order: the
    kernel is ``sum_lam f_lam Pi_lam(U|hw><hw|U^H)``, and f_lam the factor
    of ``sum_j <D_j> D_j`` in the center kernel."""
    spec.validate(model)
    if not spec.is_generalized:
        return filter_factors(model, (spec.s + 1) / 2)
    k, f = spec.coeff_map(), filter_factors(model, 0.5)
    return np.where(f > 0, [k.get(lam, 0.0) for lam in model.labels()] * f,
                    0.0)


def center_diagonal(model: QrtModel, spec: KernelSpec) -> np.ndarray:
    """Diagonal of the center kernel ``sum_lam f_lam Pi_lam(|hw><hw|)``:
    one real d-vector."""
    return sector_factors(model, spec) @ model.hw_sector_diagonals()


def kappa(model: QrtModel) -> float:
    """``tau_min**(-1/2)`` over tau > 0: a field at s > 0 keeps an error of
    about ``eps kappa**s`` of its maximum."""
    return min(t for t in model.taus.tolist() if t > 0) ** -0.5


def s_limit(model: QrtModel, bound: float) -> float:
    """The s at which ``eps kappa**s`` reaches ``bound``: fields at s up to
    it keep their rounding error under ``bound`` of their maximum."""
    return math.log(bound / np.finfo(float).eps) / math.log(kappa(model))


def check_kappa(model: QrtModel, svals) -> None:
    """ValueError naming kappa for an s > 0 with ``eps kappa**s > 1e-8``."""
    limit = s_limit(model, 1e-8)
    for s in svals:
        if s > limit:
            raise ValueError(f"--s {s:g} at kappa = {kappa(model):.3g} leaves "
                             "an error eps * kappa**s over 1e-8 of the "
                             "field's maximum")


def fields(model: QrtModel, A: np.ndarray, points, factors: np.ndarray,
           factor: Quadrature | None = None) -> np.ndarray:
    """Symbols ``Tr[Delta_n A]`` at the points of one (d, d) operator, (N,
    W), or of each operator of a (K, d, d) stack, (N, K, W): column w is
    the kernel of column w of the (L, W) per-sector factors (``factors``
    stacked over W specs).  The synthesis of the filtered coefficients
    ``f_lam c``, one pass for all K W columns; ``factor`` is the
    one-sphere rule of a product grid's ``points``, else None."""
    A = np.asarray(A)
    c = model.coefficients(A.reshape((-1,) + A.shape[-2:]))
    f = np.asarray(factors)[model.coefficient_sectors()].T  # (W, ncoef)
    table = model.synthesis((c[:, None] * f).reshape(-1, c.shape[-1]), points,
                            factor=factor)
    table = table.reshape(len(table), len(c), len(f))
    return table if A.ndim == 3 else table[:, 0]


def kernel_sums(model: QrtModel, points, weights: np.ndarray,
                factors: np.ndarray,
                factor: Quadrature | None = None) -> np.ndarray:
    """(K, d, d) sums ``sum_n weights[n, k] Delta_n`` for (N, K) node
    weights, the kernel of column k built from column k of the (L, K)
    per-sector factors: the adjoint of ``fields``, one pass for all K."""
    b = model.synthesis_adjoint(np.asarray(weights), points, factor=factor)
    f = np.asarray(factors)[model.coefficient_sectors()].T
    return model.operators(b * f)


class SymbolField:
    """Symbols on a quadrature grid: one field, (N,) ``values`` of one
    ``spec``, or a stack, (N, C) ``values`` and a tuple of C specs."""

    __slots__ = ("model", "grid", "spec", "values")

    def __init__(self, model: QrtModel, grid, spec: KernelSpec | tuple,
                 values: np.ndarray):
        self.model = model
        self.grid = grid
        self.spec = spec
        self.values = values

    @property
    def specs(self) -> tuple:
        return tuple(self.spec) if np.ndim(self.values) == 2 else (self.spec,)


def factor_columns(model: QrtModel, specs) -> np.ndarray:
    """(L, C) per-sector factors, column c those of ``specs[c]``."""
    return np.stack([sector_factors(model, spec) for spec in specs], axis=1)


def symbol_field(model: QrtModel, A: np.ndarray, grid, spec) -> SymbolField:
    """Symbols on every grid node of one (d, d) A under one spec, or of
    the K W columns of a (K, d, d) stack and/or W specs, op-major (column
    ``k W + w`` is operator k under spec w): one ``fields`` pass."""
    A, one = np.asarray(A), np.ndim(spec) == 0
    specs = (spec,) if one else tuple(spec)
    values = fields(model, A, grid.points, factor_columns(model, specs),
                    grid.factor)
    if A.ndim == 2 and one:
        return SymbolField(model, grid, spec, values[:, 0])
    return SymbolField(model, grid, specs * (A.size // model.dim ** 2),
                       values.reshape(len(values), -1))


# -- harmonics ----------------------------------------------------------------

def harmonic_matrix(model: QrtModel, points) -> dict:
    """Sector harmonics at many points: label -> (d_lam, N) real array
    whose row j is ``Y^lam_j = tau_lam**(-1/2) <Omega| D_j |Omega>``, the
    model's ``harmonics`` split by sector.  Sectors without phase-space
    image (tau = 0) are omitted.
    """
    kept = [lam for lam, t in zip(model.labels(), model.taus) if t]
    rows = np.cumsum([model.irrep_dim(lam) for lam in kept])[:-1]
    return dict(zip(kept, np.split(model.harmonics(points), rows)))


# -- quadrature functionals ---------------------------------------------------

def phase_purity_quadrature(field: SymbolField) -> PuritySpectrum:
    """Sector purities of a sampled field, (L,), or of a stack's columns,
    (C, L), via quadrature inner products.

    The components ``sum_n w_n Y^lam_j(Omega_n) F_n`` on the harmonics are
    the coordinates in the orthonormal sector bases of the field read at
    s = 0 and reconstructed (dual factors tau**(-1/2)), so the purities
    are the model's ``sector_purities`` of that operator.
    """
    s0, model = KernelSpec.cahill_glauber(0.0), field.model
    at0 = (s0,) * len(field.specs) if np.ndim(field.values) == 2 else s0
    back = reconstruct(SymbolField(model, field.grid, at0, field.values))
    return PuritySpectrum(model.labels(), model.sector_purities(back))


def reconstruct(field: SymbolField) -> np.ndarray:
    """Integrate the field against the dual kernel to recover the operator,
    (d, d), or each column of a stack, (C, d, d).

    Exact for structured grids resolving the model band limit; sectors with
    no phase-space image (fermionic odd sectors) are irrecoverably absent.
    The quadrature sums ``sum_n weight_n F_n Delta_n(-s)`` of all columns
    are one ``kernel_sums`` pass.
    """
    model, grid = field.model, field.grid
    _check_band(model, grid)
    w = np.asarray(grid.weights)[:, None]
    back = kernel_sums(model, grid.points, w * np.reshape(field.values, (
        len(w), -1)), factor_columns(model, [f.dual() for f in field.specs]),
        grid.factor)
    return back if np.ndim(field.values) == 2 else back[0]


def convert_field(field: SymbolField, s_target: float, out_grid) -> SymbolField:
    """Resample a field or a stack at a new ordering parameter via the
    two-point kernel.

    The two-point kernel is ``Tr[Delta(m, s_target) Delta(n, -s_source)]``,
    so the quadrature sum over n factors through the reconstructed
    operator: the result is its symbol at ``s_target`` on ``out_grid``.
    """
    spec_t = KernelSpec.cahill_glauber(s_target)
    return symbol_field(field.model, reconstruct(field), out_grid, spec_t)


# -- twisted product ----------------------------------------------------------

def star_product(field_a: SymbolField, field_b: SymbolField, s_out,
                 out_points) -> np.ndarray:
    """Twisted product of two fields at the requested points, (m,), or of
    two stacks of C columns column by column, (m, C), at ``s_out`` (one
    float, or one per column).

    Double quadrature of the three-point kernel against both fields; their
    one grid must resolve twice the model band limit (products of two
    band-limited operators reach twice the band).  The kernel is a trace of
    three kernels, so the double sum factors as
    ``Tr[Delta_m (sum_i wa_i Delta_i)(sum_j wb_j Delta_j)]``: O((N + m) d**3)
    instead of O(m N**2 d**3).  The inner sums are one ``reconstruct`` of
    both fields' 2C columns.
    """
    model, grid, s_out = field_a.model, field_a.grid, np.atleast_1d(s_out)
    ncol, specs = len(field_a.specs), field_a.specs + field_b.specs
    if field_b.model is not model or field_b.grid is not grid or len(
            specs) != 2 * ncol or len(s_out) not in (1, ncol):
        raise ValueError("fields of one model and grid, as many columns "
                         "each and one s_out or one per column are needed")
    _check_band(model, grid, factor=2)
    if any(spec.is_generalized for spec in specs):
        raise ValueError("twisted product needs standard-family fields")
    back = reconstruct(SymbolField(model, grid, specs, np.hstack([np.reshape(
        f.values, (len(grid.weights), -1)) for f in (field_a, field_b)])))
    out = factor_columns(model, [KernelSpec.cahill_glauber(s) for s in s_out])
    stars = fields(model, back[:ncol] @ back[ncol:], out_points, out)
    stars = stars[:, np.arange(ncol), np.arange(ncol) % len(s_out)]
    return stars if np.ndim(field_a.values) == 2 else stars[:, 0]
