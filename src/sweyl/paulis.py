"""Bit-packed Pauli words, their dense matrices and the fast Pauli transform.

A word ``i**phase * prod_q X_q**x_q Z_q**z_q`` is an x-mask, a z-mask and a
power of i; bit q of a mask addresses qubit q, and qubit 0 is the leftmost
tensor factor of the dense matrix.  The qubit and fermion models read their
sector coefficients from ``pauli_transform`` on the masks of ``word_masks``;
the fermionic model's ``sector_words`` is the one Jordan-Wigner
construction.  ``PauliString``, one word as a record, stays for the
benchmark tracer, which wraps its ``to_dense``.
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

    def to_dense(self) -> np.ndarray:
        return words_dense(self.n, self.x, self.z, self.phase)[0]


def words_dense(n: int, xs, zs, phases) -> np.ndarray:
    """(m, 2**n, 2**n) dense matrices of the words ``i**phase X^x Z^z``,
    one per entry of the mask and phase arrays (scalars give m = 1).

    Column k of word m has its one entry ``i**phase (-1)**popcount(k &
    zbar)`` at row ``k ^ xbar``, where xbar and zbar are the masks with
    their n bits reversed (qubit 0 is the leading factor, the top bit of
    the basis index k).
    """
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
    out = np.zeros((len(xs), 2 ** n, 2 ** n), dtype=complex)
    out[np.arange(len(xs))[:, None], k ^ xbar, k] = phase.reshape(-1, 1) * sign
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

