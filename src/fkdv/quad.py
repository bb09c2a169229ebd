"""Gauss-Legendre rule on [0, 1] and geometric panel edges."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the npts-point Gauss-Legendre rule on [0, 1]."""
    if npts < 1:
        raise ValueError(f"need at least one quadrature point, got {npts}")
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def geometric_edges(start: float, stop: float) -> np.ndarray:
    """Panel edges from start to stop, each panel at most twice the last.

    Panels grow geometrically away from ``start``; used to resolve kernels
    that vary fastest near the start of the interval.
    """
    if not (stop > start > 0.0):
        raise ValueError("need 0 < start < stop")
    n = max(1, int(np.ceil(np.log(stop / start) / np.log(2.0))))
    return start * (stop / start) ** (np.arange(n + 1) / n)
