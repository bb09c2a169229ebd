"""Closed-form spatial derivatives of the fkdv.solutions profiles.

The tests use them for PDE-residual checks and as slope data for
hermite_interpolate; no solver path needs them.
"""

from __future__ import annotations

import math

import numpy as np

from fkdv.solutions import _KDV_WIDTH, kdv_two_soliton


def bo_soliton_dx(x, t, c: float = 0.25, L: float = 15.0):
    """Spatial derivative of bo_soliton."""
    delta = math.pi / (c * L)
    if delta > 1.0:
        raise ValueError(f"invalid parameters: pi/(cL) = {delta} > 1")
    gamma = math.sqrt(1.0 - delta * delta)
    phase = c * delta * (np.asarray(x, dtype=float) - c * t)
    denom = 1.0 - gamma * np.cos(phase)
    out = -2.0 * c * c * delta ** 3 * gamma * np.sin(phase) / denom ** 2
    return out if np.ndim(x) else float(out)


def kdv_one_soliton_dx(x, t):
    """Spatial derivative of kdv_one_soliton."""
    xi = _KDV_WIDTH * (np.asarray(x, dtype=float) - 3.0 * t)
    out = -18.0 * _KDV_WIDTH * np.tanh(xi) / np.cosh(xi) ** 2
    return out if np.ndim(x) else float(out)


def kdv_two_soliton_dx(x, t, a: float = 0.5, b: float = 1.0):
    """Spatial derivative of kdv_two_soliton by fourth-order differencing.

    Step 1e-3 balances the h^4 truncation against roundoff; both are below
    1e-11 on the unit-scale profile, ample for slope degrees of freedom.
    """
    h = 1e-3
    xs = np.asarray(x, dtype=float)
    vals = (kdv_two_soliton(xs - 2.0 * h, t, a, b)
            - 8.0 * kdv_two_soliton(xs - h, t, a, b)
            + 8.0 * kdv_two_soliton(xs + h, t, a, b)
            - kdv_two_soliton(xs + 2.0 * h, t, a, b)) / (12.0 * h)
    return vals if np.ndim(x) else float(vals)


def smooth_sin_data_dx(x):
    out = 0.5 * np.cos(np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


def triangle_data_dx(x):
    xs = np.asarray(x, dtype=float)
    out = np.where((xs >= -1.0) & (xs < 1.0), 0.5, 0.0)
    return out if np.ndim(x) else float(out)
