"""Bit-packed Pauli strings, real-weighted Pauli sums and Majorana operators.

A string is stored as an x-mask, a z-mask and a power of i, representing
``i**phase * prod_q X_q**x_q Z_q**z_q``.  Bit q of a mask addresses qubit q,
and qubit 0 is the leftmost tensor factor of the dense matrix.  The
canonical phase of a mask pair is ``popcount(x & z) mod 4`` (one factor of
i per Y), which makes every canonical string Hermitian; PauliSum keys all
carry the canonical phase so that Hermitian operators have real weights,
and every sum merges its terms through ``PauliSum.add_string``.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen

_DENSE_CAP = 12  # qubits; dense matrices are a debugging/small-n tool

_PHASE = (1, 1j, -1, -1j)


class PauliString(Frozen):
    """``i**phase * X^x Z^z`` on ``n`` qubits, masks bit-packed; immutable,
    equal (and hashing equal) when ``n``, ``x``, ``z`` and ``phase`` are."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int = 0):
        if n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("mask exceeds qubit count")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "x", x)
        init(self, "z", z)
        init(self, "phase", phase % 4)  # power of i, mod 4

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a label like ``"XIZ"``, ``"-YZ"`` or ``"iXX"``."""
        body = label
        phase = 0
        if body.startswith("-i"):
            phase, body = 3, body[2:]
        elif body.startswith("-"):
            phase, body = 2, body[1:]
        elif body.startswith("i"):
            phase, body = 1, body[1:]
        x = z = 0
        for q, ch in enumerate(body):
            if ch == "X":
                x |= 1 << q
            elif ch == "Y":
                x |= 1 << q
                z |= 1 << q
                phase += 1  # Y = i XZ
            elif ch == "Z":
                z |= 1 << q
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(body), x, z, phase % 4)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        if not 0 <= qubit < n:
            raise ValueError("qubit index out of range")
        label = "".join(letter if q == qubit else "I" for q in range(n))
        return cls.from_label(label)

    # -- structure ---------------------------------------------------------

    @property
    def canonical_phase(self) -> int:
        return (self.x & self.z).bit_count() % 4

    def canonical(self) -> tuple["PauliString", complex]:
        """Split into (Hermitian canonical string, residual scalar)."""
        k0 = self.canonical_phase
        return (
            PauliString(self.n, self.x, self.z, k0),
            _PHASE[(self.phase - k0) % 4],
        )

    def is_hermitian(self) -> bool:
        return (self.phase - self.canonical_phase) % 2 == 0

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2 == 0

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def dagger(self) -> "PauliString":
        return PauliString(
            self.n, self.x, self.z,
            -self.phase + 2 * (self.x & self.z).bit_count(),
        )

    def to_dense(self) -> np.ndarray:
        return words_dense(self.n, self.x, self.z, self.phase)[0]

    def __str__(self) -> str:
        letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        body = "".join(
            letters[((self.x >> q) & 1, (self.z >> q) & 1)]
            for q in range(self.n)
        )
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[
            (self.phase - self.canonical_phase) % 4
        ]
        return prefix + body


class PauliSum:
    """Complex linear combination of canonical (Hermitian) Pauli strings."""

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = dict(terms or {})

    @classmethod
    def from_string(cls, ps: PauliString, coeff: complex = 1.0) -> "PauliSum":
        out = cls(ps.n)
        out.add_string(ps, coeff)
        return out

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls.from_string(PauliString.identity(n), coeff)

    def add_string(self, ps: PauliString, coeff: complex = 1.0) -> None:
        canon, residual = ps.canonical()
        key = (canon.x, canon.z)
        val = self.terms.get(key, 0j) + coeff * residual
        if val == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    def strings(self):
        """Iterate (canonical PauliString, coefficient) pairs."""
        for (x, z), coeff in self.terms.items():
            k0 = (x & z).bit_count() % 4
            yield PauliString(self.n, x, z, k0), coeff

    def copy(self) -> "PauliSum":
        return PauliSum(self.n, self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        out = self.copy()
        for ps, coeff in other.strings():
            out.add_string(ps, coeff)
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "PauliSum":
        if factor == 0:
            return PauliSum(self.n)
        return PauliSum(self.n, {k: factor * v for k, v in self.terms.items()})

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        out = PauliSum(self.n)
        for pa, ca in self.strings():
            for pb, cb in other.strings():
                out.add_string(pa * pb, ca * cb)
        return out

    def dagger(self) -> "PauliSum":
        # Keys are Hermitian strings, so adjoint conjugates the weights.
        return PauliSum(self.n, {k: v.conjugate() for k, v in self.terms.items()})

    def trace(self) -> complex:
        return self.terms.get((0, 0), 0j) * (2 ** self.n)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(v.imag) <= tol for v in self.terms.values())

    def to_dense(self) -> np.ndarray:
        xs = np.array([x for x, _ in self.terms], dtype=np.int64)
        zs = np.array([z for _, z in self.terms], dtype=np.int64)
        rows, vals = _word_columns(self.n, xs, zs, np.bitwise_count(xs & zs))
        coeffs = np.array(list(self.terms.values()), dtype=complex)
        out = np.zeros((2 ** self.n, 2 ** self.n), dtype=complex)
        cols = np.broadcast_to(np.arange(2 ** self.n), rows.shape)
        np.add.at(out, (rows, cols), coeffs[:, None] * vals)
        return out


def _word_columns(n: int, xs, zs, phases):
    """Rows and values of the words ``i**phase X^x Z^z``: column k of word
    m has its one entry ``vals[m, k] = i**phase (-1)**popcount(k & zbar)``
    at row ``rows[m, k] = k ^ xbar``, where xbar and zbar are the masks with
    their n bits reversed (qubit 0 is the leading factor, the top bit of
    the basis index k)."""
    if n > _DENSE_CAP:
        raise ValueError(f"dense conversion capped at {_DENSE_CAP} qubits")
    xs, zs = (np.asarray(m, dtype=np.int64).reshape(-1, 1) for m in (xs, zs))
    xbar, zbar = np.zeros_like(xs), np.zeros_like(zs)
    for q in range(n):
        xbar |= ((xs >> q) & 1) << (n - 1 - q)
        zbar |= ((zs >> q) & 1) << (n - 1 - q)
    k = np.arange(2 ** n)
    # bitwise_count gives uint8: cast before forming 1 - 2 * parity.
    sign = 1 - 2 * (np.bitwise_count(k & zbar).astype(np.int64) & 1)
    phase = np.asarray(_PHASE)[np.asarray(phases, dtype=np.int64) % 4]
    return k ^ xbar, phase.reshape(-1, 1) * sign


def words_dense(n: int, xs, zs, phases) -> np.ndarray:
    """(m, 2**n, 2**n) dense matrices of the words ``i**phase X^x Z^z``,
    one per entry of the mask and phase arrays (scalars give m = 1).

    Entry ``[k ^ xbar, k] = i**phase (-1)**popcount(k & zbar)``, with xbar
    and zbar the bit-reversed masks; the rest is zero.
    """
    rows, vals = _word_columns(n, xs, zs, phases)
    out = np.zeros((len(rows), 2 ** n, 2 ** n), dtype=complex)
    out[np.arange(len(rows))[:, None], rows, np.arange(2 ** n)] = vals
    return out


def word_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) masks of the 4**n words in ``pauli_transform`` order: word w
    has the digit ``x_q + 2 z_q`` of qubit q at place 4**(n-1-q)."""
    w = np.arange(4 ** n, dtype=np.int64)
    x, z = np.zeros_like(w), np.zeros_like(w)
    for q in range(n):
        digit = w >> (2 * (n - 1 - q))
        x |= (digit & 1) << q
        z |= ((digit >> 1) & 1) << q
    return x, z


# The map of one digit's four entries in both transforms: output k is
# ``q[i] + sign q[j]``.
_FORWARD = ((0, 3, 1), (1, 2, 1), (0, 3, -1), (1, 2, -1))
_INVERSE = ((0, 2, 1), (1, 3, -1), (1, 3, 1), (0, 2, -1))


def _digit_passes(T: np.ndarray, n: int, mix) -> np.ndarray:
    """n passes of ``mix`` over the base-4 digits of the row index of the
    (4**n, m) array T, the m operators inner: each pass maps the leading
    digit and writes it back as the trailing one, so every pass reads whole
    quarters and writes runs of m, and the digits end back in order."""
    out, rest, m = np.empty_like(T), len(T) // 4, T.shape[1]
    for _ in range(n):
        q = T.reshape(4, rest, m)
        dst = out.reshape(rest, 4, m)
        for k, (i, j, sign) in enumerate(mix):
            (np.add if sign > 0 else np.subtract)(q[i], q[j], out=dst[:, k])
        T, out = out, T
    return T


def _interleaved_axes(n: int) -> list[int]:
    """Axes of a (m, 2, ..., 2) operator stack in the order (r_0, c_0, r_1,
    c_1, ..., m): row and column bit of each qubit side by side, stack last."""
    return [1 + a for q in range(n) for a in (q, n + q)] + [0]


def pauli_transform(A: np.ndarray) -> np.ndarray:
    """``Tr(X^x Z^z A)`` for all 4**n words, of one (2**n, 2**n) operator or
    a (..., 2**n, 2**n) stack; returns (..., 4**n), words in ``word_masks``
    order.

    Each qubit's row bit r and column bit c are interleaved into one base-4
    digit ``2 r + c`` of the entry index, ``(a, b, c, d)`` for rc = 00, 01,
    10, 11; the map ``(a, b, c, d) -> (a + d, b + c, a - d, b - c)`` on
    every digit gives the traces against I, X, Z and XZ (Hantzko,
    Binkowski & Gupta, arXiv:2310.13421), in n passes of 4**n additions
    per operator.
    """
    A = np.asarray(A)
    n = A.shape[-1].bit_length() - 1
    if A.shape[-2:] != (2 ** n, 2 ** n):
        raise ValueError(f"need a 2**n x 2**n operator, got {A.shape[-2:]}")
    lead = A.shape[:-2]
    m = math.prod(lead)
    T = np.empty((4 ** n, m), dtype=np.result_type(A, 1.0))
    T.reshape((2,) * (2 * n) + (m,))[...] = A.reshape(
        (m,) + (2,) * (2 * n)).transpose(_interleaved_axes(n))
    T = _digit_passes(T, n, _FORWARD).T
    return np.ascontiguousarray(T).reshape(lead + (4 ** n,))


def pauli_operators(b: np.ndarray) -> np.ndarray:
    """``sum_w b[..., w] X^x Z^z`` over the 4**n words in ``word_masks``
    order: the transpose of ``pauli_transform``, (..., 4**n) to (..., 2**n,
    2**n).  Per digit the words I, X, Z and XZ put ``(a + c, b - d, b + d,
    a - c)`` at rc = 00, 01, 10, 11."""
    b = np.asarray(b)
    n = (b.shape[-1].bit_length() - 1) // 2
    lead = b.shape[:-1]
    m = math.prod(lead)
    T = np.array(b.reshape(m, 4 ** n).T, dtype=complex, order="C")
    T = _digit_passes(T, n, _INVERSE)
    axes = np.argsort(_interleaved_axes(n))
    return T.reshape((2,) * (2 * n) + (m,)).transpose(axes).reshape(
        lead + (2 ** n, 2 ** n))


def trace_inner(a: PauliSum, b: PauliSum) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dagger b] from coefficients."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    acc = 0j
    for key, va in a.terms.items():
        vb = b.terms.get(key)
        if vb is not None:
            acc += va.conjugate() * vb
    return acc * (2 ** a.n)


def rotate_qubit(op, qubit: int, axis: str, angle: float):
    """Conjugate by ``exp(-i * angle * P_qubit / 2)`` for P in {X, Y, Z}.

    Accepts a PauliString (returns a PauliSum) or a PauliSum.
    """
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    if isinstance(op, PauliString):
        op = PauliSum.from_string(op)
    gen = PauliString.single(op.n, qubit, axis)
    out = PauliSum(op.n)
    c, s = np.cos(angle), np.sin(angle)
    for ps, coeff in op.strings():
        if ps.commutes(gen):
            out.add_string(ps, coeff)
        else:
            # R T R^dag = cos(angle) T - i sin(angle) (P T) for {P, T} = 0.
            out.add_string(ps, coeff * c)
            out.add_string(gen * ps, coeff * s * -1j)
    return out


# -- Majorana operators ----------------------------------------------------

def majorana(mu: int, n: int) -> PauliString:
    """Majorana operator c_mu, 1-indexed, under the Jordan-Wigner map.

    ``c_{2k-1} = Z^(k-1) X I^(n-k)`` and ``c_{2k} = Z^(k-1) Y I^(n-k)``.
    """
    if not 1 <= mu <= 2 * n:
        raise ValueError(f"need 1 <= mu <= 2n, got mu={mu}, n={n}")
    k = (mu + 1) // 2  # mode, 1-indexed
    x = 1 << (k - 1)
    z = (1 << (k - 1)) - 1
    if mu % 2 == 0:
        z |= 1 << (k - 1)
    ps = PauliString(n, x, z, 0)
    return PauliString(n, x, z, ps.canonical_phase)
