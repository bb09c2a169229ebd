"""Table diagnostics: trapezoid integrals, conserved ratios, errors, rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fkdv.diagnostics import (
    DiagnosticsRow,
    convergence_rate,
    hamiltonian_ratio,
    mass_ratio,
    momentum_ratio,
    relative_error,
    trapezoid_on_nodes,
)
from fkdv.fem import FemFunction, Grid, l2_project


# ---------------------------------------------------------------------------
# trapezoid rule


def test_trapezoid_constant():
    grid = Grid(0.0, 2.0 * np.pi, 64)
    got = trapezoid_on_nodes(np.ones(64), grid.dx)
    assert got == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_trapezoid_sine_squared():
    grid = Grid(0.0, 2.0 * np.pi, 128)
    x = grid.nodes()
    got = trapezoid_on_nodes(np.sin(x) ** 2, grid.dx)
    assert got == pytest.approx(np.pi, abs=1e-10)


def test_trapezoid_trigonometric_exactness_below_nyquist():
    # The periodic trapezoid rule integrates every mode below N exactly, so
    # squares of modes up to N/4 stay well inside the exact band.
    n = 64
    grid = Grid(0.0, 2.0 * np.pi, n)
    x = grid.nodes()
    for m in range(1, n // 4 + 1):
        assert trapezoid_on_nodes(np.sin(m * x), grid.dx) == pytest.approx(
            0.0, abs=1e-12)
        assert trapezoid_on_nodes(np.sin(m * x) ** 2, grid.dx) == pytest.approx(
            np.pi, abs=1e-10)


# ---------------------------------------------------------------------------
# conserved-quantity ratios


def test_ratios_are_one_for_identical_states(grid64):
    u = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    assert mass_ratio(u, u) == pytest.approx(1.0, abs=1e-14)
    assert momentum_ratio(u, u) == pytest.approx(1.0, abs=1e-14)
    assert hamiltonian_ratio(u, u, 1.5) == pytest.approx(
        1.0, abs=1e-14)


def test_mass_ratio_flags_zero_mean_data(grid64):
    u0 = l2_project(grid64, lambda x: 0.5 * np.sin(x))
    assert math.isnan(mass_ratio(u0, u0))


def test_momentum_ratio_rejects_zero_initial_data(grid64):
    zero = FemFunction(grid64, np.zeros(grid64.n_dofs))
    with pytest.raises(ValueError):
        momentum_ratio(zero, zero)


def test_scale_invariance_of_linear_ratios(grid64):
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    u = l2_project(grid64, lambda x: 1.2 + 0.3 * np.sin(2.0 * x))
    c1, c2 = mass_ratio(u, u0), momentum_ratio(u, u0)
    c3 = hamiltonian_ratio(u, u0, 1.5)
    u3, u03 = (FemFunction(grid64, 3.0 * v.coeffs) for v in (u, u0))
    assert mass_ratio(u3, u03) == pytest.approx(c1, rel=1e-12)
    assert momentum_ratio(u3, u03) == pytest.approx(c2, rel=1e-12)
    # The Hamiltonian mixes quadratic and cubic terms, so its ratio is not
    # homogeneous in the amplitude.
    assert hamiltonian_ratio(u3, u03, 1.5) != pytest.approx(
        c3, rel=1e-6)


# ---------------------------------------------------------------------------
# relative error


def test_relative_error_of_exact_state_is_zero(grid64):
    u = l2_project(grid64, np.sin)
    assert relative_error(u, u.node_values) == 0.0


def test_relative_error_validation(grid64):
    u = l2_project(grid64, np.sin)
    with pytest.raises(ValueError):
        relative_error(u, np.zeros(grid64.n_elems))
    with pytest.raises(ValueError):
        relative_error(u, np.ones(grid64.n_elems + 1))


def test_relative_error_matches_hand_computation():
    grid = Grid(0.0, 2.0 * np.pi, 16)
    u = l2_project(grid, np.sin)
    ref = np.cos(grid.nodes())
    diff = np.sqrt(grid.dx * np.sum((u.node_values - ref) ** 2))
    denom = np.sqrt(grid.dx * np.sum(ref**2))
    assert relative_error(u, ref) == pytest.approx(diff / denom, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence rates


def test_rate_of_clean_second_order():
    assert convergence_rate(4.0e-3, 100, 1.0e-3, 200) == pytest.approx(2.0)


def test_rate_on_table_pairs():
    assert convergence_rate(0.0044, 256, 0.0011, 512) == pytest.approx(
        2.0, abs=0.05)
    assert convergence_rate(0.0211, 64, 0.0056, 128) == pytest.approx(
        1.91, abs=0.05)


@given(st.floats(0.5, 4.0), st.floats(1e-6, 1.0))
def test_rate_recovers_power_law(p: float, e0: float):
    e1 = e0 * 2.0**p
    assert convergence_rate(e1, 128, e0, 256) == pytest.approx(p, rel=1e-9)


def test_rate_validation():
    with pytest.raises(ValueError):
        convergence_rate(0.0, 64, 1e-3, 128)
    with pytest.raises(ValueError):
        convergence_rate(1e-3, 64, -1e-3, 128)
    with pytest.raises(ValueError):
        convergence_rate(1e-3, 64, 1e-4, 64)


# ---------------------------------------------------------------------------
# row container


def test_row_accepts_valid_values():
    row = DiagnosticsRow(n_elems=128, E=0.0056, C1=1.0, C2=1.0,
                         C3=float("nan"), rate=1.91)
    assert row.rate == 1.91
    assert DiagnosticsRow(64, 0.1, 1.0, 1.0, 1.0).rate is None


def test_row_rejects_negative_error_and_momentum():
    with pytest.raises(ValueError):
        DiagnosticsRow(64, -0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DiagnosticsRow(64, 0.1, 1.0, -1.0, 1.0)
