"""Block-circulant linear algebra on the periodic node lattice.

Every Galerkin matrix in this package couples the two degrees of freedom
(value, scaled slope) of node i to those of node j through a 2x2 block that
depends only on the offset (j - i) mod N.  Such matrices are stored as an
``(N, 2, 2)`` array of offset blocks; the FFT over the node index
block-diagonalises them into N independent 2x2 complex systems.  Their
symbols are stored frequency-last, as a ``(2, 2, N)`` array whose entry
(a, b) is one contiguous row, and applied to a ``(2, N)`` complex buffer by
apply_symbol and inverted by _invert_symbol_inplace.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_symbol",
    "apply_symbol",
    "PRODUCT_BLOCK",
]


def block_symbol(blocks: np.ndarray) -> np.ndarray:
    """Frequency symbol B_hat(r) = sum_m B_m exp(+2i pi m r / N), (2, 2, N).

    ``blocks[m]`` is the 2x2 coupling of test node i to trial node i+m.  Each
    of the four entries is transformed straight into its own row of the
    result, which is then scaled in place, so no complex copy of the whole
    block array is made.
    """
    n = blocks.shape[0]
    symbol = np.empty((2, 2, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            np.fft.ifft(blocks[:, a, b], out=symbol[a, b])
    symbol *= n
    return symbol


PRODUCT_BLOCK = 2048    # K of apply_symbol's product block: 64 KiB


def apply_symbol(symbol: np.ndarray, coeffs: np.ndarray,
                 out: np.ndarray | None = None,
                 buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Apply the block-circulant operator with the given symbol to coeffs.

    The result goes into ``out``, a contiguous real array of coeffs' size
    that may be coeffs itself, or into a new one, so it keeps no complex FFT
    buffer alive.  ``buffers`` are a complex (2, N) array, into which coeffs
    is cast and transformed in place, and a complex (2, K) one, through which
    the product goes back into the first, K frequencies at a time (each
    frequency is einsum's at any K); without them both are made, with
    K = min(N, PRODUCT_BLOCK).
    """
    n = symbol.shape[-1]
    out = np.empty(2 * n) if out is None else out
    chat, block = buffers or (np.empty((2, n), complex),
                              np.empty((2, min(n, PRODUCT_BLOCK)), complex))
    k = block.shape[-1]
    chat.T[...] = coeffs.reshape(n, 2)
    np.fft.fft(chat, axis=-1, out=chat)
    for lo in range(0, n, k):
        part, cols = chat[:, lo:lo + k], block[:, :n - lo]
        np.einsum("abr,br->ar", symbol[:, :, lo:lo + k], part, out=cols)
        part[...] = cols
    np.fft.ifft(chat, axis=-1, out=chat)
    out[0::2], out[1::2] = chat.real
    return out


def _invert_symbol_inplace(symbol: np.ndarray) -> np.ndarray:
    """Per-frequency inverse of a (2, 2, N) symbol, by the 2x2 adjugate.

    The quotients are written over ``symbol``, which is returned, so no
    second (2, 2, N) array is made.  Applying the result with apply_symbol
    solves the block-circulant system.
    """
    (a, b), (c, d) = symbol
    det = a * d - b * c
    d_quot = d / det
    np.divide(a, det, out=d)
    a[...] = d_quot
    for off in (b, c):
        np.negative(off, out=off)
        np.divide(off, det, out=off)
    return symbol
