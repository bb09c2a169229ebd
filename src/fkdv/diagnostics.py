"""Error and conserved-quantity measurements behind the convergence tables.

All norms and integrals here follow the node-sampling convention of the
tables (periodic trapezoid on the x_j), except the cubic term of the
Hamiltonian, which needs element quadrature to be exact for the cubic
finite element space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import GAUSS_WEIGHTS, FemFunction, gauss_values

__all__ = [
    "DiagnosticsRow",
    "trapezoid_on_nodes",
    "mass_ratio",
    "momentum_ratio",
    "hamiltonian_ratio",
    "relative_error",
    "convergence_rate",
]


@dataclass(frozen=True)
class DiagnosticsRow:
    """One table row: element count, relative error, conserved ratios, rate."""

    n_elems: int
    E: float
    C1: float
    C2: float
    C3: float
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.E < 0.0:
            raise ValueError("relative error cannot be negative")
        if self.C2 < 0.0:
            raise ValueError("momentum ratio cannot be negative")


def trapezoid_on_nodes(values, dx: float) -> float:
    """Periodic trapezoid rule: on a circle it collapses to dx * sum."""
    return float(dx * np.sum(np.asarray(values, dtype=float)))


def _node_l2(values, dx: float) -> float:
    return math.sqrt(trapezoid_on_nodes(np.asarray(values) ** 2, dx))


def mass_ratio(u: FemFunction, u0: FemFunction) -> float:
    """C1: ratio of trapezoid masses; NaN when u0 has no usable mass.

    Zero-mean data (odd profiles) make the denominator pure roundoff; the
    ratio is then meaningless and flagged rather than raised, so sweeps over
    such data still produce rows.
    """
    dx = u.grid.dx
    denom = trapezoid_on_nodes(u0.node_values, dx)
    scale = _node_l2(u0.node_values, dx) * math.sqrt(u0.grid.width)
    if abs(denom) < 1e-10 * max(scale, 1e-300):
        return math.nan
    return trapezoid_on_nodes(u.node_values, dx) / denom


def momentum_ratio(u: FemFunction, u0: FemFunction) -> float:
    """C2: ratio of node-sampled L2 norms."""
    denom = _node_l2(u0.node_values, u0.grid.dx)
    if denom == 0.0:
        raise ValueError("momentum ratio undefined for zero initial data")
    return _node_l2(u.node_values, u.grid.dx) / denom


def _cubic_integral(u: FemFunction) -> float:
    """int u^3 dx by the element Gauss rule; exact for piecewise cubics."""
    return float(u.grid.dx * np.sum(gauss_values(u.coeffs) ** 3 @ GAUSS_WEIGHTS))


def _hamiltonian(u: FemFunction, ops) -> float:
    c = u.coeffs
    return float(c @ ops.apply_gram(c)) - _cubic_integral(u) / 3.0


def hamiltonian_ratio(u: FemFunction, u0: FemFunction, ops) -> float:
    """C3: ratio of int((D^{alpha/2}u)^2 - u^3/3) against the initial state.

    ops is the OperatorMatrices bundle of the grid; its Gram symbol supplies
    the quadratic term.
    """
    num, denom = _hamiltonian(u, ops), _hamiltonian(u0, ops)
    if abs(denom) < 1e-12 * max(abs(num) + abs(denom), 1e-300):
        return math.nan
    return num / denom


def relative_error(u: FemFunction, reference) -> float:
    """E: node-sampled relative L2 distance to the reference profile.

    reference is a callable on x or an array of node values.
    """
    nodes = u.grid.nodes()
    ref = np.asarray(reference(nodes) if callable(reference) else reference,
                     dtype=float)
    if ref.shape != nodes.shape:
        raise ValueError(f"reference has shape {ref.shape}, expected {nodes.shape}")
    denom = _node_l2(ref, u.grid.dx)
    if denom == 0.0:
        raise ValueError("relative error undefined against a zero reference")
    return _node_l2(u.node_values - ref, u.grid.dx) / denom


def convergence_rate(e1: float, n1: int, e2: float, n2: int) -> float:
    """Observed order between two rows: (ln e1 - ln e2) / (ln n2 - ln n1)."""
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("convergence rate needs positive errors")
    if n1 == n2:
        raise ValueError("convergence rate needs distinct element counts")
    return (math.log(e1) - math.log(e2)) / (math.log(n2) - math.log(n1))
