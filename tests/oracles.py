"""Reference routes kept for the tests: slow, direct and independent of
the fast paths they check."""

import itertools

import numpy as np

from sweyl.models import MultipartiteModel
from sweyl.paulis import PauliString, majorana_product


def dense_block_purities(model, A) -> dict:
    """Label -> P_lam(A) = sum_j |<D_j, A>|^2 over the model's dense sector
    blocks, for one (d, d) operator or a (..., d, d) stack."""
    out = {}
    for block in model.blocks():
        coeffs = np.einsum("jab,...ab->...j", block.basis.conj(), A)
        out[block.label] = np.sum(np.abs(coeffs) ** 2, axis=-1)
    return out


def product_sector_words(model, lam) -> list[tuple[int, int, int]]:
    """(x, z, phase) of one qubit or fermion sector's basis words, built
    one word at a time: Pauli labels over the support in
    ``itertools.product`` order, or phased ascending Majorana products."""
    if isinstance(model, MultipartiteModel):
        support = [q for q, bit in enumerate(lam) if bit]
        words = []
        for letters in itertools.product("XYZ", repeat=len(support)):
            label = ["I"] * model.n
            for q, ch in zip(support, letters):
                label[q] = ch
            words.append(PauliString.from_label("".join(label)))
    else:
        extra = lam * (lam - 1) // 2
        words = []
        for combo in itertools.combinations(range(1, 2 * model.n + 1), lam):
            w = majorana_product(combo, model.n)
            words.append(PauliString(w.n, w.x, w.z, w.phase + extra))
    return [(w.x, w.z, w.phase) for w in words]
