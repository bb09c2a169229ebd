"""Periodic cubic Hermite finite element space on a uniform grid.

The trial space is spanned by translates of two C^1 shape functions: a value
shape f with f(0) = 1, f'(0) = 0 and a slope shape g with g(0) = 0,
g'(0) = 1, both supported on two elements.  Node j carries the pair of
degrees of freedom (u(x_j), dx * u'(x_j)); the slope is scaled by the mesh
width so both coefficients share the units of u.

This module owns the element: one coefficient table of the four
element-local shapes, one Gauss rule for element integrals, and the
gather/scatter pair between coefficient vectors and per-element dofs.  Every
other view of the shapes (node-centred f and g, derivatives, Gauss-point
tables, the element mass) is derived from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .circulant import apply_symbol, block_symbol, invert_symbol
from .quad import gauss_rule

__all__ = [
    "Grid",
    "FemFunction",
    "element_shapes",
    "node_shape_tables",
    "element_dofs",
    "scatter",
    "GAUSS_POINTS",
    "GAUSS_WEIGHTS",
    "ELEMENT_MASS",
    "gauss_values",
    "element_loads",
    "hermite_interpolate",
    "l2_project",
    "mass_offset_blocks",
]

# Ascending coefficients in xi of the element-local shapes on xi in [0, 1]:
# H00 (value at the left node), H10 (scaled slope, left), H01 (value, right),
# H11 (scaled slope, right).  Rows match the element dofs of element_dofs.
_HERMITE = np.array([
    [1.0, 0.0, -3.0, 2.0],
    [0.0, 1.0, -2.0, 1.0],
    [0.0, 0.0, 3.0, -2.0],
    [0.0, 0.0, -1.0, 1.0],
])


def element_shapes(xi, order: int) -> np.ndarray:
    """The four element shapes (or their xi-derivatives) at xi: (4,) + xi.shape."""
    return polyval(np.asarray(xi, dtype=float), polyder(_HERMITE, order, axis=1).T)


def node_shape_tables(order: int) -> np.ndarray:
    """Node-centred f and g as (2, 2, 4 - order) piece coefficients.

    Axis 1 holds the piece on the element left of the node (e = -1) and the
    piece on the element right of it (e = 0): f = (H01, H00), g = (H11, H10).
    """
    return polyder(_HERMITE, order, axis=1)[[[2, 0], [3, 1]]]


def element_dofs(coeffs: np.ndarray) -> np.ndarray:
    """Per-element dofs (E, 4): value and slope at the left, then right node."""
    nodal = coeffs.reshape(-1, 2)
    out = np.empty((nodal.shape[0], 4), dtype=nodal.dtype)
    out[:, :2], out[:-1, 2:], out[-1, 2:] = nodal, nodal[1:], nodal[0]
    return out


def scatter(contrib: np.ndarray) -> np.ndarray:
    """Adjoint of element_dofs: sum (E, 4) element contributions onto nodes."""
    out = np.empty((contrib.shape[0], 2), dtype=contrib.dtype)
    np.add(contrib[1:, :2], contrib[:-1, 2:], out=out[1:])
    np.add(contrib[0, :2], contrib[-1, 2:], out=out[0])
    return out.reshape(-1)


# The element integral rule on [0, 1]: 8 Gauss points integrate every product
# of up to five element polynomials (degree <= 15) exactly.
GAUSS_POINTS, GAUSS_WEIGHTS = gauss_rule(8)
_GAUSS_SHAPES = element_shapes(GAUSS_POINTS, 0)                   # (4, 8)
# The shapes and their xi-derivatives times the weights, (8, 4) each: a row of
# integrand samples times one of these integrates it against every shape.
_GAUSS_TESTS = tuple((element_shapes(GAUSS_POINTS, order) * GAUSS_WEIGHTS).T
                     for order in (0, 1))
ELEMENT_MASS = _GAUSS_SHAPES @ _GAUSS_TESTS[0]                   # int H_p H_q


def gauss_values(coeffs: np.ndarray) -> np.ndarray:
    """Values (E, 8) of the expanded function at each element's Gauss points."""
    return element_dofs(coeffs) @ _GAUSS_SHAPES


def element_loads(values: np.ndarray, order: int) -> np.ndarray:
    """int values * d^order H_p / dxi^order dxi per element, as (E, 4).

    values (E, 8) samples the integrand at each element's Gauss points.
    """
    return values @ _GAUSS_TESTS[order]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n_elems elements on [left, right]."""

    left: float
    right: float
    n_elems: int

    def __post_init__(self) -> None:
        if not self.right > self.left:
            raise ValueError(f"empty domain [{self.left}, {self.right}]")
        if self.n_elems < 4:
            raise ValueError(f"need at least 4 elements, got {self.n_elems}")

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def dx(self) -> float:
        return self.width / self.n_elems

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_elems

    def nodes(self) -> np.ndarray:
        return self.left + self.dx * np.arange(self.n_elems)

    def locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Element index and local coordinate xi in [0, 1) for points x."""
        t = (np.asarray(x, dtype=float) - self.left) / self.dx
        t = t % self.n_elems
        elem = np.minimum(t.astype(int), self.n_elems - 1)
        return elem, t - elem


class FemFunction:
    """Element of the Hermite space: a grid plus a coefficient vector.

    coeffs[2j] is the nodal value at x_j and coeffs[2j+1] the scaled slope
    dx * u'(x_j).
    """

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_dofs,):
            raise ValueError(
                f"expected {grid.n_dofs} coefficients, got {coeffs.shape}")
        self.grid = grid
        self.coeffs = coeffs

    @property
    def node_values(self) -> np.ndarray:
        return self.coeffs[0::2]

    @property
    def node_slopes(self) -> np.ndarray:
        """Unscaled nodal derivatives u'(x_j)."""
        return self.coeffs[1::2] / self.grid.dx

    def _evaluate(self, x, order: int):
        grid = self.grid
        elem, xi = grid.locate(x)
        nxt = (elem + 1) % grid.n_elems
        c = self.coeffs
        s = element_shapes(xi, order)
        out = (c[2 * elem] * s[0] + c[2 * elem + 1] * s[1]
               + c[2 * nxt] * s[2] + c[2 * nxt + 1] * s[3]) / grid.dx ** order
        return out if np.ndim(x) else float(out)

    def __call__(self, x):
        return self._evaluate(x, 0)

    def deriv(self, x):
        return self._evaluate(x, 1)

    def second_deriv(self, x):
        """Second derivative (piecewise linear, discontinuous at nodes)."""
        return self._evaluate(x, 2)

    def sup_norm(self) -> float:
        """Max of |u| over 17 equispaced samples per element (close upper bound)."""
        xi = np.linspace(0.0, 1.0, 17)
        x = (self.grid.nodes()[:, None] + xi[None, :] * self.grid.dx).ravel()
        return float(np.max(np.abs(self(x))))

    def copy(self) -> "FemFunction":
        return FemFunction(self.grid, self.coeffs.copy())

    def __add__(self, other: "FemFunction") -> "FemFunction":
        return FemFunction(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "FemFunction") -> "FemFunction":
        return FemFunction(self.grid, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: float) -> "FemFunction":
        return FemFunction(self.grid, float(scalar) * self.coeffs)


def hermite_interpolate(grid: Grid,
                        func: Callable,
                        deriv: Callable) -> FemFunction:
    """Interpolant matching nodal values and derivatives of ``func``."""
    x = grid.nodes()
    coeffs = np.empty(grid.n_dofs)
    coeffs[0::2] = func(x)
    coeffs[1::2] = grid.dx * np.asarray(deriv(x), dtype=float)
    return FemFunction(grid, coeffs)


def mass_offset_blocks(grid: Grid) -> np.ndarray:
    """Offset blocks of the mass matrix <v_j, v_i>."""
    n, dx = grid.n_elems, grid.dx
    blocks = np.zeros((n, 2, 2))
    blocks[0] = dx * (ELEMENT_MASS[:2, :2] + ELEMENT_MASS[2:, 2:])
    blocks[1] = dx * ELEMENT_MASS[:2, 2:]        # test at node 0, trial at node 1
    blocks[n - 1] = dx * ELEMENT_MASS[2:, :2]    # test at node 0, trial at node -1
    return blocks


def load_vector(grid: Grid, func: Callable) -> np.ndarray:
    """Loads <func, v_i> by the element Gauss rule."""
    x = grid.nodes()[:, None] + GAUSS_POINTS[None, :] * grid.dx
    fvals = np.asarray(func(x), dtype=float) * grid.dx
    return scatter(element_loads(fvals, 0))


def l2_project(grid: Grid, func: Callable) -> FemFunction:
    """L2 projection of ``func`` onto the Hermite space."""
    inverse = invert_symbol(block_symbol(mass_offset_blocks(grid)))
    return FemFunction(grid, apply_symbol(inverse, load_vector(grid, func)))
