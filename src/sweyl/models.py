"""The three resource-theory models: spin, multi-qubit local, fermionic.

Each model fixes a Hilbert space, a compact symmetry group, an orthogonal
decomposition of operator space into irreducible blocks with Hermitian
orthonormal bases, a highest-weight reference state and a coherent-state
family parametrized by phase points.  Irrep blocks are materialized as
dense matrices for small systems; closed-form sector data (dimensions,
characteristic weights tau) is available at any supported size.

Conventions
-----------
* Spin model: basis |S, m> with m descending, so J_z = diag(S, ..., -S)
  and the highest-weight state is the first basis vector.
* Multi-qubit model: sectors are 0/1 support patterns; the sector basis is
  the set of Pauli words on the support divided by sqrt(2^n).
* Fermionic model: sectors are Majorana degrees 0..2n; basis elements are
  ascending-ordered Majorana products times i^(lam(lam-1)/2) over sqrt(2^n),
  which makes them Hermitian.  Odd sectors carry no weight-zero element.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, logm

from .clebsch import HalfInt, cg_hw_zero, clebsch_gordan
from .paulis import PauliString, majorana, majorana_product

_DENSE_QUBIT_CAP = 4  # dense irrep blocks and unitaries for qubit models
_LABEL_CAP = 10       # label/tau/dimension queries for qubit models


@dataclass
class IrrepBlock:
    """One irreducible sector of operator space.

    Attributes
    ----------
    label : sector label (int for spin/fermionic, 0/1 tuple for multi-qubit)
    dim : number of basis elements d_lambda
    basis : (d_lambda, d, d) stack of Hermitian orthonormal matrices
    weight_zero : indices of basis elements with a highest-weight diagonal
        matrix element (the symmetric-subgroup-invariant directions)
    hw_overlap : (d_lambda,) real vector of <hw| D_j |hw>
    """

    label: object
    dim: int
    basis: np.ndarray
    weight_zero: tuple[int, ...]
    hw_overlap: np.ndarray = field(default=None)

    def project(self, A: np.ndarray) -> np.ndarray:
        """Component of A inside this sector: sum_j <D_j, A> D_j."""
        coeffs = np.einsum("jab,ab->j", self.basis.conj(), A)
        return np.einsum("j,jab->ab", coeffs, self.basis)


class QrtModel:
    """Shared plumbing for the three concrete models."""

    kind: str
    dim: int

    def __init__(self):
        self._block_cache: dict = {}
        self._center_cache: dict = {}

    # subclasses implement: labels, irrep_dim, tau, _build_block, hw_state,
    # point_unitary, group_unitary, random_point, random_group, act,
    # identity_point, and state constructors.  point_unitaries may be
    # overridden with a batched evaluation equal to the per-point one.

    def labels(self):
        raise NotImplementedError

    @property
    def trivial_label(self):
        raise NotImplementedError

    def irrep_block(self, label) -> IrrepBlock:
        block = self._block_cache.get(label)
        if block is None:
            block = self._build_block(label)
            block.hw_overlap = np.real(
                np.einsum("jab,a,b->j", block.basis,
                          self.hw_state().conj(), self.hw_state()))
            self._block_cache[label] = block
        return block

    def blocks(self):
        return [self.irrep_block(lam) for lam in self.labels()]

    def tau_from_hw(self, label) -> float:
        """Characteristic weight via the highest-weight purity route."""
        block = self.irrep_block(label)
        return float(np.sum(block.hw_overlap ** 2)) / block.dim

    def coherent_state(self, point) -> np.ndarray:
        return self.point_unitary(point) @ self.hw_state()

    def point_unitaries(self, points) -> np.ndarray:
        """(N, d, d) stack of ``point_unitary`` over many points."""
        return np.array([self.point_unitary(p) for p in points])

    def coherent_states(self, points) -> np.ndarray:
        """(N, d) stack of ``coherent_state`` over many points."""
        return self.point_unitaries(points) @ self.hw_state()

    def haar_state(self, rng) -> np.ndarray:
        rng = np.random.default_rng(rng)
        vec = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        return vec / np.linalg.norm(vec)

    def named_state(self, which: str, seed=None) -> np.ndarray:
        """Resolve a state selector: hw | ghz | haar | m=<value>."""
        if which == "hw":
            return self.hw_state()
        if which == "ghz":
            return self.ghz_state()
        if which == "haar":
            return self.haar_state(seed)
        if which.startswith("m="):
            return self.basis_state(which[2:])
        raise ValueError(f"unknown state selector {which!r}")


# -- spin model --------------------------------------------------------------

class SpinModel(QrtModel):
    """Single spin S under global SU(2) rotations.

    Phase points are (theta, phi) on the sphere; group elements are
    z-y-z Euler triples (alpha, beta, gamma).
    """

    kind = "spin"

    def __init__(self, S):
        super().__init__()
        self.S = HalfInt.of(S)
        if self.S.twice < 1:
            raise ValueError("need S >= 1/2")
        self.dim = self.S.twice + 1
        self._ops = None
        self._jy_eig = None

    def __repr__(self):
        return f"SpinModel(S={self.S})"

    def labels(self):
        return list(range(self.S.twice + 1))

    @property
    def trivial_label(self):
        return 0

    def irrep_dim(self, lam: int) -> int:
        return 2 * lam + 1

    def tau(self, lam: int) -> float:
        return cg_hw_zero(self.S, lam) ** 2 / (2 * lam + 1)

    def spin_operators(self):
        """(Jx, Jy, Jz) dense, with the m-descending basis convention."""
        if self._ops is None:
            tS = self.S.twice
            m = np.array([(tS - 2 * i) / 2 for i in range(self.dim)])
            Jz = np.diag(m).astype(complex)
            Jp = np.zeros((self.dim, self.dim), dtype=complex)
            S = tS / 2
            for i in range(1, self.dim):
                mm = m[i]  # raise m -> m + 1, row i-1, column i
                Jp[i - 1, i] = math.sqrt(S * (S + 1) - mm * (mm + 1))
            Jm = Jp.conj().T
            Jx = (Jp + Jm) / 2
            Jy = (Jp - Jm) / (2j)
            self._ops = (Jx, Jy, Jz)
        return self._ops

    def tensor_operator(self, lam: int, j: int) -> np.ndarray:
        """Irreducible tensor operator T^lam_j (not Hermitian for j != 0)."""
        tS = self.S.twice
        T = np.zeros((self.dim, self.dim), dtype=complex)
        for i_ket in range(self.dim):
            tm = tS - 2 * i_ket
            tmp = tm - 2 * j  # 2m' with m' = m - j
            if abs(tmp) > tS:
                continue
            i_bra = (tS - tmp) // 2
            c = clebsch_gordan(
                HalfInt(tS), HalfInt(tm), HalfInt(tS), HalfInt(-tmp),
                HalfInt(2 * lam), HalfInt(2 * j))
            sign = -1 if ((tS - tmp) // 2) % 2 else 1
            T[i_ket, i_bra] = sign * c
        return T

    def _build_block(self, lam: int) -> IrrepBlock:
        if not 0 <= lam <= self.S.twice:
            raise ValueError(f"sector {lam} outside 0..2S")
        ops = [self.tensor_operator(lam, 0)]
        for j in range(1, lam + 1):
            T = self.tensor_operator(lam, j)
            Td = T.conj().T
            ops.append((T + Td) / math.sqrt(2))
            ops.append(1j * (Td - T) / math.sqrt(2))
        return IrrepBlock(lam, 2 * lam + 1, np.array(ops), (0,))

    def hw_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def basis_state(self, m) -> np.ndarray:
        tm = HalfInt.of(m).twice
        if abs(tm) > self.S.twice or (self.S.twice - tm) % 2:
            raise ValueError(f"m={m} invalid for S={self.S}")
        psi = np.zeros(self.dim, dtype=complex)
        psi[(self.S.twice - tm) // 2] = 1.0
        return psi

    def ghz_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return psi

    # group / phase-space geometry

    def _jy_eigh(self):
        if self._jy_eig is None:
            _, Jy, _ = self.spin_operators()
            self._jy_eig = np.linalg.eigh(Jy)
        return self._jy_eig

    def _rot_y(self, theta: float) -> np.ndarray:
        w, V = self._jy_eigh()
        return (V * np.exp(-1j * theta * w)) @ V.conj().T

    def _rot_z_diag(self, angle) -> np.ndarray:
        """exp(-i angle m) over the basis; broadcasts over array angles."""
        tS = self.S.twice
        m = np.array([(tS - 2 * i) / 2 for i in range(self.dim)])
        return np.exp(-1j * angle * m)

    def point_unitary(self, point) -> np.ndarray:
        theta, phi = point
        return self._rot_z_diag(phi)[:, None] * self._rot_y(theta)

    def point_unitaries(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        w, V = self._jy_eigh()
        rot_y = (V * np.exp(-1j * pts[:, :1, None] * w)) @ V.conj().T
        return self._rot_z_diag(pts[:, 1:])[:, :, None] * rot_y

    def group_unitary(self, g) -> np.ndarray:
        alpha, beta, gamma = g
        U = self._rot_z_diag(alpha)[:, None] * self._rot_y(beta)
        return U * self._rot_z_diag(gamma)[None, :]

    def identity_point(self):
        return (0.0, 0.0)

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        return (math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))

    def random_group(self, rng):
        rng = np.random.default_rng(rng)
        return (rng.uniform(0, 2 * math.pi),
                math.acos(rng.uniform(-1, 1)),
                rng.uniform(0, 2 * math.pi))

    def point_of_state(self, psi: np.ndarray):
        """Sphere coordinates of a coherent state via its Bloch vector."""
        Jx, Jy, Jz = self.spin_operators()
        S = self.S.twice / 2
        nx = np.real(psi.conj() @ Jx @ psi) / S
        ny = np.real(psi.conj() @ Jy @ psi) / S
        nz = np.real(psi.conj() @ Jz @ psi) / S
        theta = math.acos(min(1.0, max(-1.0, nz)))
        phi = math.atan2(ny, nx) % (2 * math.pi) if abs(nz) < 1 - 1e-14 else 0.0
        return (theta, phi)

    def act(self, g, point):
        """Image of a phase point under a group element."""
        psi = self.group_unitary(g) @ self.coherent_state(point)
        return self.point_of_state(psi)


# -- multi-qubit model --------------------------------------------------------

class MultipartiteModel(QrtModel):
    """n qubits under local SU(2) x ... x SU(2) rotations.

    Phase points are n-tuples of (theta, phi); group elements are n-tuples
    of Euler triples.  Sector labels are 0/1 support patterns.
    """

    kind = "multipartite"

    def __init__(self, n: int):
        super().__init__()
        if not 1 <= n <= _LABEL_CAP:
            raise ValueError(f"need 1 <= n <= {_LABEL_CAP}")
        self.n = n
        self.dim = 2 ** n
        self._qubit = SpinModel(HalfInt(1))  # single-qubit geometry helper

    def __repr__(self):
        return f"MultipartiteModel(n={self.n})"

    def labels(self):
        labs = list(itertools.product((0, 1), repeat=self.n))
        labs.sort(key=lambda t: (sum(t), t))
        return labs

    @property
    def trivial_label(self):
        return (0,) * self.n

    def irrep_dim(self, lam) -> int:
        return 3 ** sum(lam)

    def tau(self, lam) -> float:
        return 1.0 / (3 ** sum(lam) * 2 ** self.n)

    def sector_strings(self, lam) -> list[PauliString]:
        """All Pauli words with the given support pattern."""
        support = [q for q, bit in enumerate(lam) if bit]
        words = []
        for letters in itertools.product("XYZ", repeat=len(support)):
            label = ["I"] * self.n
            for q, ch in zip(support, letters):
                label[q] = ch
            words.append(PauliString.from_label("".join(label)))
        return words

    def _build_block(self, lam) -> IrrepBlock:
        if self.n > _DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense sector bases capped at n <= {_DENSE_QUBIT_CAP}")
        lam = tuple(lam)
        words = self.sector_strings(lam)
        norm = math.sqrt(self.dim)
        basis = np.array([w.to_dense() / norm for w in words])
        w_all_z = len(words) - 1  # itertools order puts Z...Z last
        return IrrepBlock(lam, len(words), basis, (w_all_z,) if sum(lam) else (0,))

    def hw_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def basis_state(self, index) -> np.ndarray:
        k = int(index)
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        psi = np.zeros(self.dim, dtype=complex)
        psi[k] = 1.0
        return psi

    def ghz_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return psi

    def point_unitary(self, point) -> np.ndarray:
        if len(point) != self.n:
            raise ValueError("need one (theta, phi) pair per qubit")
        mats = [self._qubit.point_unitary(p) for p in point]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def point_unitaries(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3 or pts.shape[1:] != (self.n, 2):
            raise ValueError("need one (theta, phi) pair per qubit")
        out = self._qubit.point_unitaries(pts[:, 0])
        for k in range(1, self.n):
            m = self._qubit.point_unitaries(pts[:, k])
            nodes, a, _ = out.shape
            # Batched np.kron: entry (i*2+k, j*2+l) is out[i, j] * m[k, l].
            out = (out[:, :, None, :, None] * m[:, None, :, None, :]).reshape(
                nodes, 2 * a, 2 * a)
        return out

    def group_unitary(self, g) -> np.ndarray:
        mats = [self._qubit.group_unitary(gk) for gk in g]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def identity_point(self):
        return ((0.0, 0.0),) * self.n

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        return tuple(self._qubit.random_point(rng) for _ in range(self.n))

    def random_group(self, rng):
        rng = np.random.default_rng(rng)
        return tuple(self._qubit.random_group(rng) for _ in range(self.n))

    def act(self, g, point):
        out = []
        for gk, pk in zip(g, point):
            psi = self._qubit.group_unitary(gk) @ self._qubit.coherent_state(pk)
            out.append(self._qubit.point_of_state(psi))
        return tuple(out)


# -- fermionic model ----------------------------------------------------------

@dataclass(frozen=True)
class FermionicPoint:
    """Phase point of the fermionic model: a real antisymmetric generator."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
            raise ValueError("generator must be square of even size 2n")
        if np.max(np.abs(h + h.T)) > 1e-12:
            raise ValueError("generator must be antisymmetric")
        object.__setattr__(self, "h", h)


class FermionicModel(QrtModel):
    """n fermionic modes under Gaussian (matchgate) rotations.

    Sector label lam = 0..2n counts Majorana factors.  Phase points are
    real antisymmetric 2n x 2n generators h, entering through
    ``T = exp(sum_{mu != nu} h_{mu nu} c_mu c_nu)``.
    """

    kind = "fermionic"

    def __init__(self, n: int):
        super().__init__()
        if not 1 <= n <= _LABEL_CAP:
            raise ValueError(f"need 1 <= n <= {_LABEL_CAP}")
        self.n = n
        self.dim = 2 ** n
        self._majorana_dense = None

    def __repr__(self):
        return f"FermionicModel(n={self.n})"

    def labels(self):
        return list(range(2 * self.n + 1))

    @property
    def trivial_label(self):
        return 0

    def irrep_dim(self, lam: int) -> int:
        return math.comb(2 * self.n, lam)

    def tau(self, lam: int) -> float:
        if lam % 2:
            return 0.0
        return math.comb(self.n, lam // 2) / (
            math.comb(2 * self.n, lam) * self.dim)

    def sector_strings(self, lam: int) -> list[PauliString]:
        """Hermitian basis words: phased ascending Majorana products."""
        extra = (lam * (lam - 1) // 2) % 4
        out = []
        for combo in itertools.combinations(range(1, 2 * self.n + 1), lam):
            ps = majorana_product(combo, self.n)
            out.append(PauliString(ps.n, ps.x, ps.z, ps.phase + extra))
        return out

    @staticmethod
    def _is_paired(combo) -> bool:
        s = set(combo)
        return all((2 * k - 1 in s) == (2 * k in s)
                   for k in range(1, max(combo) // 2 + 2)) if combo else True

    def _build_block(self, lam: int) -> IrrepBlock:
        if self.n > _DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense sector bases capped at n <= {_DENSE_QUBIT_CAP}")
        if not 0 <= lam <= 2 * self.n:
            raise ValueError(f"sector {lam} outside 0..2n")
        combos = list(itertools.combinations(range(1, 2 * self.n + 1), lam))
        words = self.sector_strings(lam)
        norm = math.sqrt(self.dim)
        basis = np.array([w.to_dense() / norm for w in words])
        if lam % 2 == 0:
            wz = tuple(i for i, c in enumerate(combos) if self._is_paired(c))
        else:
            wz = ()
        return IrrepBlock(lam, len(combos), basis, wz)

    def majorana_dense(self):
        if self._majorana_dense is None:
            self._majorana_dense = [
                majorana(mu, self.n).to_dense()
                for mu in range(1, 2 * self.n + 1)
            ]
        return self._majorana_dense

    def hw_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def basis_state(self, index) -> np.ndarray:
        k = int(index)
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        psi = np.zeros(self.dim, dtype=complex)
        psi[k] = 1.0
        return psi

    def ghz_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return psi

    def point_unitary(self, point) -> np.ndarray:
        h = point.h if isinstance(point, FermionicPoint) else np.asarray(point)
        if h.shape != (2 * self.n, 2 * self.n):
            raise ValueError("generator has wrong shape")
        cs = self.majorana_dense()
        gen = np.zeros((self.dim, self.dim), dtype=complex)
        for mu in range(2 * self.n):
            for nu in range(mu + 1, 2 * self.n):
                if h[mu, nu] != 0:
                    gen += 2 * h[mu, nu] * (cs[mu] @ cs[nu])
        return expm(gen)

    group_unitary = point_unitary

    def identity_point(self):
        return FermionicPoint(np.zeros((2 * self.n, 2 * self.n)))

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        g = rng.normal(size=(2 * self.n, 2 * self.n))
        return FermionicPoint((g - g.T) / (2 * math.sqrt(2 * self.n)))

    random_group = random_point

    def act(self, g, point):
        """Compose rotations through SO(2n) and return the new generator.

        Majorana conjugation ``T c_mu T^dag = sum_nu R_{mu nu} c_nu`` sends
        products to reversed rotation products, so the composed rotation of
        ``T(g) T(point)`` is ``R(point) R(g)``.  The recovered generator
        reproduces the composed unitary up to a scalar phase, which cancels
        in every covariant quantity (kernels, overlaps, purities).
        """
        hg = g.h if isinstance(g, FermionicPoint) else np.asarray(g)
        hp = point.h if isinstance(point, FermionicPoint) else np.asarray(point)
        R = expm(-4 * hp) @ expm(-4 * hg)
        h = -np.real(logm(R)) / 4
        return FermionicPoint((h - h.T) / 2)
