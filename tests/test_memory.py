"""What a large solve holds: owned iterates and traced peaks per layer.

Sizes are counted in symbols: one complex (N, 2, 2) array, 64 * N bytes.
tracemalloc counts the allocations themselves, so these bounds do not move
with the machine as a resident-set size does; they do follow the temporaries
that numpy's einsum, FFT and casts make.  They were measured with numpy
2.4.6, where the tightest, _StepOperator at 3.00 and l2_project at 2.99
against 3.25, have a margin of 0.25 symbol; a step peaks at 2.19 against
2.75.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fkdv.assembly import assemble_operators
from fkdv.circulant import apply_symbol, block_symbol
from fkdv.fem import Grid, l2_project
from fkdv.solutions import triangle_data
from fkdv.stepper import SchemeConfig, _StepOperator, _Workspace, run


def _owns(coeffs: np.ndarray) -> bool:
    return (coeffs.dtype == np.float64 and coeffs.flags.c_contiguous
            and coeffs.base is None)


def test_iterates_own_their_coefficients(grid64, ops64):
    # A real view of a complex FFT buffer would hold twice its own size.
    coeffs = np.random.default_rng(0).standard_normal(grid64.n_dofs)
    assert _owns(apply_symbol(block_symbol(ops64.mass_blocks), coeffs))
    u0 = l2_project(grid64, np.sin)
    op = _StepOperator(ops64, 0.01)
    assert _owns(apply_symbol(op.a_inv, apply_symbol(op.b_symbol, u0.coeffs)))
    cfg = SchemeConfig(dt_value=0.01)
    traj = run(u0, 0.0, 0.05, ops64, cfg, times=[0.0, 0.02, 0.05])
    assert len(traj.profiles) == 3
    assert all(_owns(u.coeffs) for u in [traj.final, *traj.profiles.values()])


def _traced(fn, symbol_bytes: int):
    """(result, peak, held): traced peak and retained growth in symbols."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, (peak - base) / symbol_bytes, (held - base) / symbol_bytes


def test_traced_peaks_per_layer():
    # The frac-triangle grid at the tri-coarse step; a symbol is 1 MiB here.
    n = 16384
    symbol = 64 * n
    grid = Grid(-10.0, 10.0, n)
    ops = assemble_operators(grid, 1.5)
    cfg = SchemeConfig(dt_value=0.01)

    u0, peak, _ = _traced(lambda: l2_project(grid, triangle_data), symbol)
    assert peak <= 3.25
    # Two symbols are kept; forming them holds at most three at once.
    operator, peak, held = _traced(lambda: _StepOperator(ops, 0.01), symbol)
    assert peak <= 3.25
    assert held == pytest.approx(2.0, abs=0.01)
    norm = ops.l2_norm(u0.coeffs)
    (u1, report, _), peak, held = _traced(
        lambda: operator.step(u0, norm, cfg, 1, _Workspace(grid)), symbol)
    assert report.iters > 1
    assert peak <= 2.75
    # The new state holds its own 16 * N bytes, a quarter symbol.
    assert held < 0.3
    assert _owns(u1.coeffs)
