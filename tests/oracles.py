"""Reference routes kept for the tests: slow, direct and independent of
the fast paths they check."""

import numpy as np


def dense_block_purities(model, A) -> dict:
    """Label -> P_lam(A) = sum_j |<D_j, A>|^2 over the model's dense sector
    blocks, for one (d, d) operator or a (..., d, d) stack."""
    out = {}
    for block in model.blocks():
        coeffs = np.einsum("jab,...ab->...j", block.basis.conj(), A)
        out[block.label] = np.sum(np.abs(coeffs) ** 2, axis=-1)
    return out
