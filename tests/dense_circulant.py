"""Dense oracle for the block-circulant matrices of fkdv.circulant.

The package never forms a 2N x 2N matrix; the tests build one here to check
the FFT symbol operations and the operator identities against plain linear
algebra.
"""

from __future__ import annotations

import numpy as np


def block_circulant_dense(blocks: np.ndarray) -> np.ndarray:
    """Materialise the dense 2N x 2N matrix from its (N, 2, 2) offset blocks."""
    n = blocks.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dense = blocks[(j - i) % n]          # (N, N, 2, 2): test node, trial node
    return dense.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
