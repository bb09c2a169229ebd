"""Block-circulant linear algebra on the periodic node lattice.

Every Galerkin matrix in this package couples the two degrees of freedom
(value, scaled slope) of node i to those of node j through a 2x2 block that
depends only on the offset (j - i) mod N.  Such matrices are stored as an
``(N, 2, 2)`` array of offset blocks; the FFT over the node index
block-diagonalises them into N independent 2x2 complex systems, applied
by apply_symbol and inverted by invert_symbol.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_symbol",
    "apply_symbol",
    "invert_symbol",
    "block_circulant_dense",
]


def block_symbol(blocks: np.ndarray) -> np.ndarray:
    """Frequency symbol B_hat(r) = sum_m B_m exp(+2i pi m r / N).

    ``blocks[m]`` is the 2x2 coupling of test node i to trial node i+m.
    """
    n = blocks.shape[0]
    return np.fft.ifft(blocks, axis=0) * n


def apply_symbol(symbol: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply the block-circulant operator with the given symbol to coeffs."""
    n = symbol.shape[0]
    chat = np.fft.fft(coeffs.reshape(n, 2), axis=0)
    yhat = np.einsum("rab,rb->ra", symbol, chat)
    return np.fft.ifft(yhat, axis=0).real.reshape(-1)


def invert_symbol(symbol: np.ndarray) -> np.ndarray:
    """Per-frequency inverse of a (N, 2, 2) symbol, by the 2x2 adjugate.

    Applying the result with apply_symbol solves the block-circulant system.
    """
    a = symbol[:, 0, 0]
    b = symbol[:, 0, 1]
    c = symbol[:, 1, 0]
    d = symbol[:, 1, 1]
    det = a * d - b * c
    inv = np.empty_like(symbol)
    inv[:, 0, 0] = d / det
    inv[:, 0, 1] = -b / det
    inv[:, 1, 0] = -c / det
    inv[:, 1, 1] = a / det
    return inv


def block_circulant_dense(blocks: np.ndarray) -> np.ndarray:
    """Materialise the dense 2N x 2N matrix from its offset blocks."""
    n = blocks.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dense = blocks[(j - i) % n]          # (N, N, 2, 2): test node, trial node
    return dense.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
