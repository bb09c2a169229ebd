"""Oracles for the block-circulant matrices of fkdv.circulant.

The package never forms a 2N x 2N matrix; the tests build one here to check
the FFT symbol operations and the operator identities against plain linear
algebra.  The plain symbol forms below pin those operations bit for bit.
"""

from __future__ import annotations

import numpy as np


def block_circulant_dense(blocks: np.ndarray) -> np.ndarray:
    """Materialise the dense 2N x 2N matrix from its (N, 2, 2) offset blocks."""
    n = blocks.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dense = blocks[(j - i) % n]          # (N, N, 2, 2): test node, trial node
    return dense.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


# The symbol operations as first written, on (N, 2, 2) symbols: (N, 2) FFTs
# along axis 0 and einsum("rab,rb->ra").  fkdv.circulant stores its symbols
# as (2, 2, N); the bit-for-bit tests compare through symbol.transpose(2, 0, 1)
# against these, so the frequency-last layout stays pinned to their bits.


def plain_symbol(blocks: np.ndarray) -> np.ndarray:
    """Each entry's ifft as a column of an (N, 2, 2) array, then scaled by N."""
    symbol = np.empty(blocks.shape, dtype=complex)
    for a in range(2):
        for b in range(2):
            symbol[:, a, b] = np.fft.ifft(blocks[:, a, b])
    return symbol * blocks.shape[0]


def plain_inverse(symbol: np.ndarray) -> np.ndarray:
    """Per-frequency 2x2 inverse of an (N, 2, 2) symbol by the adjugate."""
    a, b = symbol[:, 0, 0], symbol[:, 0, 1]
    c, d = symbol[:, 1, 0], symbol[:, 1, 1]
    det = a * d - b * c
    inv = np.empty_like(symbol)
    inv[:, 0, 0] = d / det
    inv[:, 0, 1] = -b / det
    inv[:, 1, 0] = -c / det
    inv[:, 1, 1] = a / det
    return inv


def plain_apply(symbol: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """An (N, 2, 2) symbol applied through allocating (N, 2) FFTs."""
    n = symbol.shape[0]
    chat = np.fft.fft(coeffs.reshape(n, 2), axis=0)
    yhat = np.einsum("rab,rb->ra", symbol, chat)
    np.fft.ifft(yhat, axis=0, out=chat)
    return chat.real.reshape(-1).copy()
