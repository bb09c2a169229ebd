"""Periodic cubic Hermite finite element space on a uniform grid.

The trial space is spanned by translates of two C^1 shape functions: a value
shape f with f(0) = 1, f'(0) = 0 and a slope shape g with g(0) = 0,
g'(0) = 1, both supported on two elements.  Node j carries the pair of
degrees of freedom (u(x_j), dx * u'(x_j)); the slope is scaled by the mesh
width so both coefficients share the units of u.

This module owns the element: one coefficient table of the four
element-local shapes, the Gauss rule of every integral in the package, the
mass (its bands, its offset blocks and its norm) and the block rule by which
every product and sum over the mesh is cut.  Every other view of the shapes
(node-centred f and g, derivatives, Gauss-point tables, the element mass) is
derived from that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .circulant import _invert_symbol_inplace, apply_symbol, block_symbol

__all__ = [
    "Grid",
    "FemFunction",
    "element_shapes",
    "node_shape_tables",
    "gauss_rule",
    "GAUSS_POINTS",
    "GAUSS_WEIGHTS",
    "ELEMENT_MASS",
    "gauss_values",
    "blocked_dot",
    "cube_integral",
    "nonlinear_load",
    "hermite_interpolate",
    "l2_project",
    "mass_bands",
    "mass_offset_blocks",
    "mass_norm",
]

# Ascending coefficients in xi of the element-local shapes on xi in [0, 1]:
# H00 (value at the left node), H10 (scaled slope, left), H01 (value, right),
# H11 (scaled slope, right).  Rows match an element's dofs: the (value,
# slope) pair of its left node, then that of its right node.
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


def _node_pairs(array: np.ndarray) -> np.ndarray:
    """array viewed as complex128 items, one (value, slope) pair each.

    The last axis pairs up floats, so it must be contiguous: a strided
    input is copied first.  A contiguous view at any float offset works,
    since complex128 needs only float alignment.
    """
    return np.ascontiguousarray(array, dtype=float).view(complex)


@lru_cache(maxsize=None)
def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the npts-point Gauss-Legendre rule on [0, 1]."""
    if npts < 1:
        raise ValueError(f"need at least one quadrature point, got {npts}")
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# The element integral rule on [0, 1]: 8 Gauss points integrate every product
# of up to five element polynomials (degree <= 15) exactly.
GAUSS_POINTS, GAUSS_WEIGHTS = gauss_rule(8)
_GAUSS_SHAPES = element_shapes(GAUSS_POINTS, 0)                   # (4, 8)
# The shapes and their xi-derivatives times the weights, (8, 4) each: a row of
# integrand samples times one of these integrates it against every shape.
# Stored C-contiguous: BLAS forms the same products and sums either way, and
# a transposed operand takes a slower kernel for short products.
_GAUSS_TESTS = tuple(
    np.ascontiguousarray((element_shapes(GAUSS_POINTS, order) * GAUSS_WEIGHTS).T)
    for order in (0, 1))
ELEMENT_MASS = _GAUSS_SHAPES @ _GAUSS_TESTS[0]                   # int H_p H_q


# Elements per block of every product and sum over the mesh, small enough for
# BLAS to keep on the calling thread: no worker thread wakes and touches its
# buffers, and no sum rounds by the thread count.  A tail of fewer than
# _MIN_BLOCK elements joins the block before it: BLAS may take another kernel
# for a product of a few rows, which rounds otherwise.
_BLOCK = 4096
_MIN_BLOCK = 16


def _element_blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) element ranges of the block rule, in order, covering 0..n."""
    cuts = [0, *range(_BLOCK, n - _MIN_BLOCK + 1, _BLOCK), n]
    return list(zip(cuts, cuts[1:]))


def gauss_values(coeffs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Values (hi - lo, 8) of the expanded function at the Gauss points of
    elements lo..hi-1: one element block's share of the mesh."""
    nodal = _node_pairs(coeffs)
    d = np.empty((hi - lo, 2), dtype=complex)          # left, right node pairs
    d[:, 0], d[:-1, 1], d[-1, 1] = nodal[lo:hi], nodal[lo + 1:hi], nodal[hi % len(nodal)]
    return d.view(float) @ _GAUSS_SHAPES


def blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot of two arrays of 2 floats per element: one BLAS dot per element
    block, summed in block order, so it is alike at any BLAS thread count."""
    if a.size < 2 * (_BLOCK + _MIN_BLOCK):    # one block: the step's norms are
        return float(np.vdot(a, b))           # this small and this frequent
    a, b = a.reshape(-1), b.reshape(-1)
    return sum(float(np.dot(a[2 * lo:2 * hi], b[2 * lo:2 * hi]))
               for lo, hi in _element_blocks(a.size // 2))


def cube_integral(u: FemFunction) -> float:
    """int u^3 dx by the element Gauss rule; exact for piecewise cubics.  Each
    element block is evaluated, cubed and summed in turn, in block order, as
    blocked_dot sums."""
    c, total = np.ascontiguousarray(u.coeffs), 0    # a strided vector is copied once
    for lo, hi in _element_blocks(c.size // 2):
        v = gauss_values(c, lo, hi)
        total += np.sum((v * v * v) @ GAUSS_WEIGHTS)   # v ** 3 takes numpy's slow pow
    return float(u.grid.dx * total)


def _scatter_blocks(n: int, block_loads, out: np.ndarray) -> np.ndarray:
    """Sum into out the element loads that block_loads(lo, hi) gives for each
    element block, as (hi - lo, 2) complex node pairs (left node, right node)
    in a reusable buffer: a complex add is a node's two float adds."""
    nodal = out.view(complex)
    for lo, hi in _element_blocks(n):
        p = block_loads(lo, hi)
        np.add(p[1:, 0], p[:-1, 1], out=nodal[lo + 1:hi])
        if lo:
            nodal[lo] = p[0, 0] + right
        else:
            first = p[0, 0]
        right = p[-1, 1]
    nodal[0] = first + right
    return out


def nonlinear_load(a: np.ndarray, b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """q_i = <((a + b)/2)^2, d/dx v_i> for coefficient vectors a and b.

    Exact for the degree-6 integrand; the 1/dx of the test derivative cancels
    the element jacobian.  Gather, Gauss values, square, loads and scatter
    run per element block in small buffers, so no (E, 8) array is formed.
    The result goes into ``out`` (a contiguous float array) if given.
    """
    if a.shape != b.shape:
        raise ValueError(f"coefficient vectors differ in shape: {a.shape}, {b.shape}")
    a_pairs, b_pairs = _node_pairs(a), _node_pairs(b)
    n = a_pairs.shape[0]
    rows = max(hi - lo for lo, hi in _element_blocks(n))
    half = np.empty(rows + 1, dtype=complex)
    pairs = np.empty((rows, 2), dtype=complex)
    values = np.empty((rows, GAUSS_POINTS.size))

    def block_loads(lo, hi):
        m = hi - lo
        h, p, v = half[:m + 1], pairs[:m], values[:m]
        # Half-sums at nodes lo..hi, where node n is node 0.
        np.add(a_pairs[lo:hi], b_pairs[lo:hi], out=h[:m])
        h[m] = a_pairs[hi % n] + b_pairs[hi % n]
        h *= 0.5
        # p holds the element dofs, then the element loads.
        p[:, 0], p[:, 1] = h[:m], h[1:]
        np.matmul(p.view(float), _GAUSS_SHAPES, out=v)
        np.square(v, out=v)
        np.matmul(v, _GAUSS_TESTS[1], out=p.view(float))
        return p

    return _scatter_blocks(n, block_loads, np.empty(2 * n) if out is None else out)


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

    def second_deriv(self, x):
        """Second derivative (piecewise linear, discontinuous at nodes)."""
        return self._evaluate(x, 2)

    def sup_norm(self) -> float:
        """Max of |u| over 17 equispaced samples per element (close lower
        bound), taken one sample column of N points at a time."""
        nodes, dx = self.grid.nodes(), self.grid.dx
        return float(np.max([np.max(np.abs(self(nodes + t * dx)))
                             for t in np.linspace(0.0, 1.0, 17)]))


def hermite_interpolate(grid: Grid,
                        func: Callable,
                        deriv: Callable) -> FemFunction:
    """Interpolant matching nodal values and derivatives of ``func``."""
    x = grid.nodes()
    coeffs = np.empty(grid.n_dofs)
    coeffs[0::2] = func(x)
    coeffs[1::2] = grid.dx * np.asarray(deriv(x), dtype=float)
    return FemFunction(grid, coeffs)


def mass_bands(grid: Grid) -> np.ndarray:
    """The mass blocks B_0 and B_1 at node offsets 0 and 1, (2, 2, 2)."""
    return grid.dx * np.stack([ELEMENT_MASS[:2, :2] + ELEMENT_MASS[2:, 2:],
                               ELEMENT_MASS[:2, 2:]])  # test at node 0, trial at 1


def mass_offset_blocks(grid: Grid) -> np.ndarray:
    """Offset blocks of the mass matrix <v_j, v_i>: the bands and B_-1."""
    blocks = np.zeros((grid.n_elems, 2, 2))
    blocks[:2] = mass_bands(grid)
    blocks[-1] = grid.dx * ELEMENT_MASS[2:, :2]    # test at node 0, trial at node -1
    return blocks


def mass_norm(coeffs: np.ndarray, bands: np.ndarray,
              scratch: np.ndarray | None = None) -> float:
    """True L2 norm of the expanded function, sqrt(c^T M c), without FFTs.

    M couples only neighbouring nodes (bands, from mass_bands), so with node
    pairs c_j, c^T M c = sum_j c_j.B_0 c_j + 2 sum_j c_j.B_1 c_{j+1}.
    The two banded products take turns in ``scratch``, a contiguous real
    array of coeffs' size that is not coeffs; without it one is made.  Both
    sums are blocked_dot's, so the norm is alike at any thread count.
    """
    nodal = coeffs.reshape(-1, 2)
    product = (np.empty(nodal.shape) if scratch is None
               else scratch.reshape(nodal.shape))
    diag = blocked_dot(np.matmul(nodal, bands[0], out=product), nodal)
    right = np.matmul(nodal, bands[1], out=product)
    square = diag + 2.0 * (blocked_dot(right[:-1], nodal[1:]) + right[-1] @ nodal[0])
    return math.sqrt(max(float(square), 0.0))


def load_vector(grid: Grid, func: Callable) -> np.ndarray:
    """Loads <func, v_i> by the element Gauss rule, with func sampled at one
    element block's Gauss points at a time, so no (E, 8) array is made."""
    nodes, offsets = grid.nodes(), GAUSS_POINTS * grid.dx

    def block_loads(lo, hi):
        samples = np.asarray(func(nodes[lo:hi, None] + offsets), dtype=float)
        return _node_pairs((samples * grid.dx) @ _GAUSS_TESTS[0])

    return _scatter_blocks(grid.n_elems, block_loads, np.empty(grid.n_dofs))


def l2_project(grid: Grid, func: Callable) -> FemFunction:
    """L2 projection of ``func`` onto the Hermite space."""
    inverse = _invert_symbol_inplace(block_symbol(mass_offset_blocks(grid)))
    return FemFunction(grid, apply_symbol(inverse, load_vector(grid, func)))
