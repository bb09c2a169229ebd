"""Cubic Hermite space: shape functions, evaluation, interpolation, projection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from fkdv.fem import (
    ELEMENT_MASS,
    FemFunction,
    Grid,
    element_shapes,
    gauss_rule,
    gauss_values,
    hermite_interpolate,
    l2_project,
    node_shape_tables,
    nonlinear_load,
)


def _random_function(grid: Grid, seed: int = 0) -> FemFunction:
    rng = np.random.default_rng(seed)
    return FemFunction(grid, rng.standard_normal(grid.n_dofs))


def _slope(u: FemFunction, x):
    """u'(x) from the xi-derivatives of the element shapes."""
    grid = u.grid
    elem, xi = grid.locate(x)
    nxt = (elem + 1) % grid.n_elems
    c, s = u.coeffs, element_shapes(xi, 1)
    out = (c[2 * elem] * s[0] + c[2 * elem + 1] * s[1]
           + c[2 * nxt] * s[2] + c[2 * nxt + 1] * s[3]) / grid.dx
    return out if np.ndim(x) else float(out)


F, G = 0, 1     # rows of node_shape_tables: value shape f, slope shape g


def _node_shape(shape: int, order: int, y: float) -> float:
    """f or g (or a derivative) at offset y in [-1, 1] elements from its node."""
    left, right = node_shape_tables(order)[shape]
    return polyval(1.0 + y, left) if y < 0.0 else polyval(y, right)


def test_shape_values_at_midpoint():
    assert _node_shape(F, 0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert _node_shape(G, 0, 0.5) == pytest.approx(0.125, abs=1e-15)


def _piece_ends(shape: int, order: int) -> list[float]:
    """The shape (or derivative) at y = -1, 0 (left piece), 0 (right piece), 1."""
    left, right = node_shape_tables(order)[shape]
    return [*polyval([0.0, 1.0], left), *polyval([0.0, 1.0], right)]


def test_shape_endpoint_values():
    # Each element shape carries exactly one of the four element dofs, so f
    # is 1 and g is 0 at their node from either side, and both vanish at
    # the ends of their support.
    ends = np.array([0.0, 1.0])
    assert np.array_equal(element_shapes(ends, 0), [[1, 0], [0, 0], [0, 1], [0, 0]])
    assert _piece_ends(F, 0) == [0.0, 1.0, 1.0, 0.0]
    assert _piece_ends(G, 0) == [0.0, 0.0, 0.0, 0.0]


def test_shape_endpoint_derivatives():
    # These identities are what makes the assembled space C^1: each shape
    # carries exactly one nodal dof (value or slope) and kills the rest.
    ends = np.array([0.0, 1.0])
    assert np.array_equal(element_shapes(ends, 1), [[0, 0], [1, 0], [0, 0], [0, 1]])
    assert _piece_ends(F, 1) == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert _piece_ends(G, 1) == pytest.approx([0.0, 1.0, 1.0, 0.0], abs=1e-12)


@given(st.floats(-1.0, 1.0))
def test_shapes_even_and_odd(y: float):
    assert _node_shape(F, 0, y) == pytest.approx(_node_shape(F, 0, -y), abs=1e-12)
    assert _node_shape(G, 0, y) == pytest.approx(-_node_shape(G, 0, -y), abs=1e-12)


def test_partition_of_unity():
    grid = Grid(0.0, 2.0 * np.pi, 16)
    coeffs = np.zeros(grid.n_dofs)
    coeffs[0::2] = 1.0
    one = FemFunction(grid, coeffs)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 2.0 * np.pi, size=100)
    assert np.max(np.abs(one(x) - 1.0)) < 1e-12
    assert np.max(np.abs(_slope(one, x))) < 1e-12


def test_periodic_evaluation_wraps():
    grid = Grid(-3.0, 5.0, 8)
    u = _random_function(grid, seed=3)
    x = np.linspace(-3.0, 5.0, 41)[:-1]
    assert u(x + grid.width) == pytest.approx(u(x), abs=1e-10)
    assert u(x - grid.width) == pytest.approx(u(x), abs=1e-10)


def test_value_and_slope_dofs_at_nodes():
    grid = Grid(0.0, 1.0, 8)
    u = _random_function(grid, seed=1)
    nodes = grid.nodes()
    assert u(nodes) == pytest.approx(u.coeffs[0::2], abs=1e-14)
    # u'(x_j) = c_{2j+1} / dx: the slope dofs are stored pre-scaled by dx.
    assert _slope(u, nodes) == pytest.approx(u.coeffs[1::2] / grid.dx, abs=1e-12)


def test_evaluate_projected_sine():
    grid = Grid(0.0, 2.0 * np.pi, 64)
    u = l2_project(grid, np.sin)
    assert u(np.pi / 4.0) == pytest.approx(np.sin(np.pi / 4.0), abs=1e-6)
    assert _slope(u, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_interpolation_fourth_order():
    xs = np.linspace(0.0, 2.0 * np.pi, 2049)[:-1]
    errs = []
    for n in (8, 16, 32, 64):
        u = hermite_interpolate(Grid(0.0, 2.0 * np.pi, n), np.sin, np.cos)
        errs.append(np.sqrt(np.mean((u(xs) - np.sin(xs)) ** 2)))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes > 3.7)
    assert np.all(slopes < 4.3)


def test_projection_reproduces_space_members():
    grid = Grid(0.0, 2.0 * np.pi, 12)
    u = _random_function(grid, seed=5)
    again = l2_project(grid, u)
    assert again.coeffs == pytest.approx(u.coeffs, abs=1e-10)


def test_projection_reproduces_basis_function():
    grid = Grid(-1.0, 1.0, 8)
    coeffs = np.zeros(grid.n_dofs)
    coeffs[7] = 1.0
    basis = FemFunction(grid, coeffs)
    again = l2_project(grid, basis)
    assert again.coeffs == pytest.approx(coeffs, abs=1e-12)


def test_projection_of_zero_is_zero():
    grid = Grid(0.0, 1.0, 8)
    u = l2_project(grid, lambda x: np.zeros_like(x))
    assert np.all(u.coeffs == 0.0)


def test_projection_does_not_inflate_l2_norm():
    # L2 projection is an orthogonal projection, so the discrete norm of
    # P(0.5 sin) cannot exceed ||0.5 sin|| = 0.5 sqrt(pi) on [0, 2 pi].
    grid = Grid(0.0, 2.0 * np.pi, 512)
    u = l2_project(grid, lambda x: 0.5 * np.sin(x))
    node_l2 = np.sqrt(grid.dx * np.sum(u.node_values**2))
    assert node_l2 <= 0.5 * np.sqrt(np.pi) * (1.0 + 1e-8)
    assert node_l2 == pytest.approx(0.5 * np.sqrt(np.pi), rel=1e-6)


def test_second_deriv_of_interpolated_cubic_is_exact():
    grid = Grid(0.0, 4.0, 4)
    u = hermite_interpolate(grid, lambda x: x * (x - 4.0) * (x - 2.0),
                            lambda x: 3.0 * x * x - 12.0 * x + 8.0)
    x = np.array([0.3, 1.7, 2.9])
    assert u.second_deriv(x) == pytest.approx(6.0 * x - 12.0, abs=1e-10)


def test_sup_norm_close_lower_bound():
    grid = Grid(0.0, 2.0 * np.pi, 64)
    u = hermite_interpolate(grid, np.sin, np.cos)
    assert u.sup_norm() == pytest.approx(1.0, abs=1e-3)
    # A max over samples can only fall short of the true max: 1025 samples per
    # element include the 17 exactly, since both steps are powers of two.
    fine = grid.nodes()[:, None] + np.linspace(0.0, 1.0, 1025) * grid.dx
    assert u.sup_norm() <= np.max(np.abs(u(fine.ravel())))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        FemFunction(Grid(0.0, 1.0, 4), np.zeros(7))


def test_locate_covers_domain():
    grid = Grid(-2.0, 3.0, 10)
    elem, xi = grid.locate(np.array([-2.0, 0.99, 2.999, -1.75]))
    assert elem.tolist() == [0, 5, 9, 0]
    assert np.all(xi >= 0.0)
    assert np.all(xi < 1.0)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_interpolation_is_projection_fixed_point(seed: int):
    # Interpolate never beats projection in L2, but both must agree on
    # members of the space itself.
    grid = Grid(0.0, 1.0, 4)
    rng = np.random.default_rng(seed)
    u = FemFunction(grid, rng.uniform(-1.0, 1.0, grid.n_dofs))
    v = hermite_interpolate(grid, u, lambda x: _slope(u, x))
    assert v.coeffs == pytest.approx(u.coeffs, abs=1e-12)


# ---------------------------------------------------------------------------
# the element table and the nonlinear load


def test_element_mass_matches_exact_rationals():
    # int_0^1 H_p H_q dxi for (value-left, slope-left, value-right,
    # slope-right), computed by hand; the table-derived mass may differ
    # only in the last bit.
    exact = np.array([
        [13 / 35, 11 / 210, 9 / 70, -13 / 420],
        [11 / 210, 1 / 105, 13 / 420, -1 / 140],
        [9 / 70, 13 / 420, 13 / 35, -11 / 210],
        [-13 / 420, -1 / 140, -11 / 210, 1 / 105],
    ])
    assert np.max(np.abs(ELEMENT_MASS - exact)) <= 2e-16


def _index_array_load(w: FemFunction, un: FemFunction, grid: Grid) -> np.ndarray:
    # The load as first written: explicit polynomials at the Gauss points,
    # index-array gather and np.add.at scatter.
    xi, wts = gauss_rule(8)
    values = np.stack([1.0 - 3.0 * xi ** 2 + 2.0 * xi ** 3,
                       xi * (1.0 - xi) ** 2,
                       3.0 * xi ** 2 - 2.0 * xi ** 3,
                       xi ** 3 - xi ** 2])
    derivs = np.stack([-6.0 * xi + 6.0 * xi ** 2,
                       1.0 - 4.0 * xi + 3.0 * xi ** 2,
                       6.0 * xi - 6.0 * xi ** 2,
                       3.0 * xi ** 2 - 2.0 * xi]) * wts
    idx = (2 * np.arange(grid.n_elems)[:, None] + np.arange(4)) % grid.n_dofs
    avg = 0.5 * (w.coeffs + un.coeffs)
    contrib = ((avg[idx] @ values) ** 2) @ derivs.T
    out = np.zeros(grid.n_dofs)
    np.add.at(out, idx, contrib)
    return out


@pytest.mark.parametrize("n", [4, 8, 64, 512])
def test_nonlinear_load_matches_index_array_formula(n: int):
    grid = Grid(-1.0, 2.0, n)
    w = _random_function(grid, seed=n)
    un = _random_function(grid, seed=n + 1)
    want = _index_array_load(w, un, grid)
    got = nonlinear_load(w.coeffs, un.coeffs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_strided_and_offset_coefficients_gather_as_contiguous():
    # Node pairs move as complex128 items, which need a contiguous last axis:
    # a strided vector is copied first, and a view at an odd float offset
    # (aligned for complex128, which needs only float alignment) is read as is.
    grid = Grid(-1.0, 2.0, 64)
    rng = np.random.default_rng(7)
    c, d = rng.standard_normal((2, grid.n_dofs))
    big = np.zeros(2 * grid.n_dofs)
    big[::2] = c
    buf = np.zeros(grid.n_dofs + 2)
    buf[1:1 + grid.n_dofs] = c
    for view in (big[::2], buf[1:1 + grid.n_dofs]):
        for lo, hi in [(0, grid.n_elems), (3, 40), (50, grid.n_elems)]:
            assert np.array_equal(gauss_values(view, lo, hi), gauss_values(c, lo, hi))
        assert np.array_equal(nonlinear_load(view, d), nonlinear_load(c, d))
        assert np.array_equal(nonlinear_load(d, view), nonlinear_load(d, c))
