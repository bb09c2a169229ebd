"""The hot paths against the plain formulas they replaced, bit for bit.

The element gather and scatter, the nonlinear load and the far-field
multipoles are written out below as they were first written: reshaped float
gathers, one (E, 8) array of Gauss values and np.vander.  The circulant
symbol, inverse and apply are dense_circulant's (N, 2, 2) forms, with an
FFT that allocates its output.  The fast forms must round exactly as
these do, since a 1-ulp change can move the benchmark tables past their
gates.  The element counts 4097, 4099 and 8195 leave a 1- or 3-element tail
after the 4096-element blocks of the element products; a product of one row
takes another BLAS kernel and rounds otherwise, unless the tail joins the
block before it.  The mesh-wide dot is np.dot up to one block, and the sum
of the blocks' dots in order beyond it.  The sup norm and C3's cubic term
evaluate one sample column or one element block at a time; their oracles
evaluate all 17 * N samples and the whole (E, 8) array at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from fkdv import assembly
from fkdv.assembly import (_DERIV_TABLES, _EXPLICIT_IMAGE_SHELLS, _MULTIPOLE_ORDER,
                           _NEAR_OFFSET, _VALUE_TABLES, _add_far_field, _kernel_binom,
                           _pair_moments, assemble_operators, frac_constant)
from fkdv.circulant import _invert_symbol_inplace, apply_symbol, block_symbol
from fkdv.fem import (GAUSS_POINTS, GAUSS_WEIGHTS, FemFunction, Grid, _element_blocks,
                      blocked_dot, cube_integral, element_shapes, gauss_values, l2_project,
                      load_vector, mass_norm, nonlinear_load)
from fkdv.solutions import builtin_experiments, get_experiment
from fkdv.stepper import MAX_PICARD_ITERS, SchemeConfig, _StepOperator, _step_symbols, run
from dense_circulant import plain_apply, plain_inverse, plain_symbol

SIZES = [4, 7, 1000, 4097, 4099, 8195]

_SHAPES = element_shapes(GAUSS_POINTS, 0)                       # (4, 8)
_VALUE_TESTS = (element_shapes(GAUSS_POINTS, 0) * GAUSS_WEIGHTS).T   # (8, 4)
_SLOPE_TESTS = (element_shapes(GAUSS_POINTS, 1) * GAUSS_WEIGHTS).T   # (8, 4)


def _plain_element_dofs(coeffs: np.ndarray) -> np.ndarray:
    nodal = coeffs.reshape(-1, 2)
    out = np.empty((nodal.shape[0], 4))
    out[:, :2], out[:-1, 2:], out[-1, 2:] = nodal, nodal[1:], nodal[0]
    return out


def _plain_scatter(contrib: np.ndarray) -> np.ndarray:
    out = np.empty((contrib.shape[0], 2))
    np.add(contrib[1:, :2], contrib[:-1, 2:], out=out[1:])
    np.add(contrib[0, :2], contrib[-1, 2:], out=out[0])
    return out.reshape(-1)


def _plain_load(w: np.ndarray, un: np.ndarray) -> np.ndarray:
    values = _plain_element_dofs(0.5 * (w + un)) @ _SHAPES
    return _plain_scatter((values ** 2) @ _SLOPE_TESTS)


def _plain_blocks(n: int) -> list[tuple[int, int]]:
    """Element blocks as the load first cut them: 4096 elements each, and a
    tail of fewer than 16 joined to the block before it."""
    starts = list(range(0, n, 4096))
    if len(starts) > 1 and n - starts[-1] < 16:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _plain_load_vector(grid: Grid, func) -> np.ndarray:
    """func sampled one Gauss point at a time into one (E, 8) array, whose
    element product is taken per block."""
    nodes = grid.nodes()
    fvals = np.empty((grid.n_elems, GAUSS_POINTS.size))
    for k, xi in enumerate(GAUSS_POINTS):
        fvals[:, k] = np.asarray(func(nodes + xi * grid.dx), dtype=float) * grid.dx
    return _plain_scatter(np.concatenate(
        [fvals[lo:hi] @ _VALUE_TESTS for lo, hi in _plain_blocks(grid.n_elems)]))


def _plain_far_field(blocks, beta, h, pair_mom, binom, shells):
    n, chunk = blocks.shape[0], assembly._FAR_CHUNK
    table = -frac_constant(beta) * binom[:, None] * pair_mom.reshape(len(binom), 4)
    for s in range(-shells, shells):
        for lo in range(0, n, chunk):
            j = np.arange(lo, min(lo + chunk, n)) + s * n
            j = j[np.abs(j) > _NEAR_OFFSET]
            dist = np.abs(j) * h
            powers = np.vander(np.sign(j) / dist, len(binom), increasing=True)
            far = (powers @ table) * (dist ** (-1.0 - beta))[:, None]
            blocks[j - s * n] += far.reshape(-1, 2, 2)


@pytest.mark.parametrize("n", SIZES)
def test_gather_scatter_and_load_match_plain_formulas(n: int):
    grid = Grid(-1.0, 2.0, n)
    rng = np.random.default_rng(n)
    w, un = rng.standard_normal((2, grid.n_dofs))
    assert np.array_equal(nonlinear_load(w, un), _plain_load(w, un))


@pytest.mark.parametrize("n", [4111, 4112, 8207, 8208])
def test_load_in_the_step_operators_buffers_matches_plain_formula(n: int):
    # The operator's buffers hold its largest element block: all 4111
    # elements, or 4096 beside a 16-element tail, or 4111 after 4096, or two
    # of 4096 and a tail.  One set serves call after call, so each call must
    # leave nothing behind that the next one reads, for contiguous, strided
    # and odd-offset inputs alike.
    grid = Grid(-1.0, 2.0, n)
    buffers = _StepOperator(grid, 0.01, *_step_symbols(assemble_operators(grid, 1.5),
                                                       0.01)).load
    c, d, e = np.random.default_rng(n).standard_normal((3, grid.n_dofs))
    strided = np.zeros(2 * grid.n_dofs)
    strided[::2] = c
    offset = np.zeros(grid.n_dofs + 2)
    offset[1:-1] = c
    out = np.empty(grid.n_dofs)
    for a, b in [(c, d), (e, c), (strided[::2], d), (d, offset[1:-1]), (d, d)]:
        want = _plain_load(np.asarray(a), b)
        assert np.array_equal(nonlinear_load(a, b, None, buffers), want)
        assert nonlinear_load(a, b, out, buffers) is out
        assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [4, 15, 16, 4095, 4096, 4097, 4111, 4112, 8207, 8208, 65536])
def test_element_blocks_keep_the_first_cut(n: int):
    assert list(_element_blocks(n)) == _plain_blocks(n)


@pytest.mark.parametrize("n", SIZES)
def test_blocked_element_products_match_per_block_formulas(n: int):
    # Every element product runs per block; within a block it is the plain
    # product, and func is sampled at each point as it was one column at a time.
    coeffs = np.random.default_rng(n).standard_normal(2 * n)
    dofs = _plain_element_dofs(coeffs)
    for lo, hi in _plain_blocks(n):
        assert np.array_equal(gauss_values(coeffs, lo, hi), dofs[lo:hi] @ _SHAPES)
    for spec in builtin_experiments():
        grid = Grid(spec.domain[0], spec.domain[1], n)
        assert np.array_equal(load_vector(grid, spec.initial),
                              _plain_load_vector(grid, spec.initial)), spec.name


def _plain_sup_norm(u: FemFunction) -> float:
    xi = np.linspace(0.0, 1.0, 17)
    x = (u.grid.nodes()[:, None] + xi[None, :] * u.grid.dx).ravel()
    return float(np.max(np.abs(u(x))))


def _plain_cubic_integral(u: FemFunction) -> float:
    """The whole (E, 8) array of Gauss values, cubed, summed per block."""
    dofs, blocks = _plain_element_dofs(u.coeffs), _plain_blocks(u.grid.n_elems)
    v = np.concatenate([dofs[lo:hi] @ _SHAPES for lo, hi in blocks])
    v = v * v * v
    return float(u.grid.dx * sum(np.sum(v[lo:hi] @ GAUSS_WEIGHTS) for lo, hi in blocks))


@pytest.mark.parametrize("n", [4, 7, 1024, 4111, 4113, 16384])
def test_sup_norm_is_the_max_over_all_samples_at_once(n: int):
    for spec in builtin_experiments():
        u0 = l2_project(Grid(spec.domain[0], spec.domain[1], n), spec.initial)
        assert u0.sup_norm() == _plain_sup_norm(u0), spec.name


@pytest.mark.parametrize("n", [64, 4111, 4113, 8195, 65536])
def test_cubic_integral_is_the_whole_array_sum(n: int):
    u = FemFunction(Grid(-1.0, 2.0, n), np.random.default_rng(n).standard_normal(2 * n))
    assert cube_integral(u) == _plain_cubic_integral(u)


@pytest.mark.parametrize("n", [4, 7, 1000, 4096, 4111])
def test_blocked_dot_is_the_whole_dot_up_to_one_block(n: int):
    a, b = np.random.default_rng(n).standard_normal((2, n, 2))
    assert blocked_dot(a, b) == np.dot(a.reshape(-1), b.reshape(-1))
    assert blocked_dot(a[:-1], b[1:]) == np.vdot(a[:-1], b[1:])


@pytest.mark.parametrize("n", [4097, 4099, 4112, 8195, 65536])
def test_blocked_dot_sums_per_block_dots_in_order(n: int):
    a, b = np.random.default_rng(n).standard_normal((2, 2 * n))
    total = 0.0
    for lo, hi in _plain_blocks(n):
        total += np.dot(a[2 * lo:2 * hi], b[2 * lo:2 * hi])
    assert blocked_dot(a, b) == total
    # Each block's dot is a whole-vector dot of its own, so the sum stays
    # within rounding of the extended-precision sum.
    exact = np.sum(a.astype(np.longdouble) * b)
    assert abs(blocked_dot(a, b) - exact) <= 1e-13 * np.sum(np.abs(a * b))


@pytest.mark.parametrize("n", SIZES)
def test_symbol_and_inverse_match_per_entry_forms(n: int):
    blocks = np.random.default_rng(n).standard_normal((n, 2, 2))
    symbol = block_symbol(blocks)
    want = plain_symbol(blocks)
    assert np.array_equal(symbol.transpose(2, 0, 1), want)
    assert np.array_equal(_invert_symbol_inplace(symbol).transpose(2, 0, 1),
                          plain_inverse(want))


@pytest.mark.parametrize("n", SIZES + [16384, 65536])
def test_apply_matches_allocating_apply(n: int):
    rng = np.random.default_rng(n)
    symbol = rng.standard_normal((2, 2, n)) + 1j * rng.standard_normal((2, 2, n))
    coeffs = rng.standard_normal(2 * n)
    want = plain_apply(np.ascontiguousarray(symbol.transpose(2, 0, 1)), coeffs)
    assert np.array_equal(apply_symbol(symbol, coeffs), want)
    out = np.empty(2 * n)
    buffers = (np.empty((2, n), dtype=complex), np.empty((2, n), dtype=complex))
    assert apply_symbol(symbol, coeffs, out, buffers) is out
    assert np.array_equal(out, want)
    # The product goes back a block of frequencies at a time, as in a step;
    # no block size, a ragged last block included, moves a bit.
    for cols in (1, 3, 2048):
        buffers = (buffers[0], np.empty((2, min(n, cols)), dtype=complex))
        assert np.array_equal(apply_symbol(symbol, coeffs, out, buffers), want)


# 2 * 2048 + 5 and 16389 offsets fill three and nine batches per shell.
@pytest.mark.parametrize("n", SIZES + [2 * assembly._FAR_CHUNK + 5, (1 << 14) + 5])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_far_field_matches_vander(n: int, alpha: float):
    h = 20.0 / n
    binom = _kernel_binom(alpha, _MULTIPOLE_ORDER)
    pair_mom = _pair_moments(_VALUE_TABLES, _DERIV_TABLES / h, h, _MULTIPOLE_ORDER)
    base = np.random.default_rng(n).standard_normal((n, 2, 2))
    got, want = base.copy(), base.copy()
    _add_far_field(got, alpha, h, pair_mom, binom, _EXPLICIT_IMAGE_SHELLS)
    _plain_far_field(want, alpha, h, pair_mom, binom, _EXPLICIT_IMAGE_SHELLS)
    assert np.array_equal(got, want)


def _plain_run(u0: FemFunction, ops, dt: float, steps: int, tol_factor: float):
    """The Picard loop with the plain load and apply: (states, iterations)."""
    operator = _StepOperator(ops.grid, dt, *_step_symbols(ops, dt))
    a_inv, b_symbol = (np.ascontiguousarray(s.transpose(2, 0, 1))
                       for s in (operator.a_inv, operator.b_symbol))
    u, norm_u = u0.coeffs, mass_norm(u0.coeffs, operator.bands)
    states, iters = [u], []
    for _ in range(steps):
        tol = tol_factor * u0.grid.dx * norm_u
        b0 = plain_apply(b_symbol, u)
        w = u
        for k in range(1, MAX_PICARD_ITERS + 1):
            q = _plain_load(w, u)
            q *= 0.5 * dt
            q += b0
            w_new = plain_apply(a_inv, q)
            res = mass_norm(w_new - w, operator.bands)
            w = w_new
            if res <= tol:
                break
        u, norm_u = w, mass_norm(w, operator.bands)
        states.append(u)
        iters.append(k)
    return states, iters


@pytest.mark.parametrize("n", SIZES)
def test_three_step_run_matches_plain_loop(n: int):
    spec = get_experiment("frac-triangle")
    grid = Grid(spec.domain[0], spec.domain[1], n)
    ops = assemble_operators(grid, spec.alpha)
    u0 = l2_project(grid, spec.initial)
    cfg = SchemeConfig(dt_value=0.01)
    traj = run(u0, 0.0, 0.03, ops, cfg)
    assert traj.n_steps == 3
    states, iters = _plain_run(u0, ops, traj.dt, 3, cfg.tol_factor)
    assert [r.iters for r in traj.reports] == iters
    assert np.array_equal(traj.final.coeffs, states[-1])
    # Single-step runs of the same dt give each intermediate state.
    u = u0
    for want in states[1:]:
        u = run(u, 0.0, traj.dt, ops, SchemeConfig(dt_value=traj.dt)).final
        assert np.array_equal(u.coeffs, want)
