"""Crank-Nicolson stepping: dt rules, fixed-point solve, conservation, blending."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from fkdv.assembly import assemble_operators
from fkdv.circulant import apply_symbol
from fkdv.fem import FemFunction, Grid, hermite_interpolate, l2_project
from fkdv.solutions import bo_soliton, kdv_one_soliton
import fkdv.stepper
from fkdv.stepper import (
    FixedPointDivergence,
    SchemeConfig,
    StepReport,
    Trajectory,
    choose_dt,
    fixed_point_step,
    interpolate_in_time,
    nonlinear_load,
    run,
)
from solution_derivatives import bo_soliton_dx, kdv_one_soliton_dx


def _m_norm(coeffs: np.ndarray, mass_symbol: np.ndarray) -> float:
    return math.sqrt(float(coeffs @ apply_symbol(mass_symbol, coeffs)))


# ---------------------------------------------------------------------------
# configuration and dt rules


def test_scheme_config_validation():
    with pytest.raises(TypeError):      # the order comes with the operators
        SchemeConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(dt_rule="adaptive")
    with pytest.raises(ValueError):
        SchemeConfig(dt_rule="explicit")
    with pytest.raises(ValueError):
        SchemeConfig(dt_rule="proportional")
    with pytest.raises(ValueError):
        SchemeConfig(tol_factor=0.0)


def test_courant_dt_from_soliton_peak():
    grid = Grid(-15.0, 15.0, 256)
    u0 = hermite_interpolate(grid, lambda x: kdv_one_soliton(x, 0.0),
                             lambda x: kdv_one_soliton_dx(x, 0.0))
    dt = choose_dt(u0, grid, SchemeConfig())
    # The soliton peaks at exactly 9 on a node, so dt = dx / 9.
    assert dt == pytest.approx(grid.dx / 9.0, rel=1e-12)


def test_explicit_dt_step_count(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01)
    traj = run(u0, 0.0, 1.0, ops64, cfg)
    assert traj.n_steps == 100
    assert traj.dt == pytest.approx(0.01)
    assert traj.t_final == pytest.approx(1.0)


def test_proportional_dt_rule(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="proportional", dt_factor=0.5)
    dt = choose_dt(u0, grid64, cfg)
    assert dt == pytest.approx(0.5 * grid64.dx)


def test_choose_dt_snaps_down_to_divide_span(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.3)
    dt = choose_dt(u0, grid64, cfg, 0.0, 1.0)
    assert dt == pytest.approx(0.25)


def test_choose_dt_sign_mismatch_raises(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.1)
    with pytest.raises(ValueError):
        choose_dt(u0, grid64, cfg, 0.0, -1.0)
    zero = l2_project(grid64, lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        choose_dt(zero, grid64, SchemeConfig())


# ---------------------------------------------------------------------------
# nonlinear load


def test_nonlinear_load_zero_and_constant(grid64):
    zero = FemFunction(grid64, np.zeros(grid64.n_dofs))
    assert np.all(nonlinear_load(zero, zero, grid64) == 0.0)
    coeffs = np.zeros(grid64.n_dofs)
    coeffs[0::2] = 3.0
    const = FemFunction(grid64, coeffs)
    q = nonlinear_load(const, const, grid64)
    assert np.max(np.abs(q)) < 1e-13


def test_nonlinear_load_conservation_orthogonality(grid64):
    u = l2_project(grid64, np.sin)
    q = nonlinear_load(u, u, grid64)
    scale = np.linalg.norm(q)
    ones = np.zeros(grid64.n_dofs)
    ones[0::2] = 1.0
    # <q, 1> = 0 drives exact mass conservation; <q(u,u), u> = 0 is the
    # cancellation behind L2 conservation up to the stopping tolerance.
    assert abs(float(ones @ q)) < 1e-12 * scale
    assert abs(float(u.coeffs @ q)) < 1e-8 * scale


def test_nonlinear_load_grid_mismatch():
    g1 = Grid(0.0, 1.0, 8)
    g2 = Grid(0.0, 1.0, 16)
    u = FemFunction(g1, np.zeros(g1.n_dofs))
    v = FemFunction(g2, np.zeros(g2.n_dofs))
    with pytest.raises(ValueError):
        nonlinear_load(u, v, g1)


# ---------------------------------------------------------------------------
# single steps


def test_zero_state_steps_to_zero_in_one_iteration(grid64, ops64):
    zero = FemFunction(grid64, np.zeros(grid64.n_dofs))
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01)
    w, report = fixed_point_step(zero, ops64, 0.01, cfg)
    assert np.all(w.coeffs == 0.0)
    assert report.iters == 1
    assert report.contraction == 0.0


def test_fixed_point_step_needs_positive_dt(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01)
    # Only a zero or non-finite step is rejected; dt < 0 steps back in time.
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fixed_point_step(u0, ops64, bad, cfg)


def test_divergence_reports_context(grid64, ops64):
    # The corrections grow until they overflow; the iteration must stop at
    # the first non-finite residual instead of iterating on NaN.
    big = l2_project(grid64, lambda x: 9.0 * np.sin(x))
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.5)
    with pytest.raises(FixedPointDivergence) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")      # the overflow is not reported
        fixed_point_step(big, ops64, 0.5, cfg)
    assert exc.value.iters < fkdv.stepper.MAX_PICARD_ITERS
    assert not math.isfinite(exc.value.residual)
    # The last finite ratios show the growth.
    assert 1.0 < exc.value.contraction < math.inf
    assert f"after {exc.value.iters} iterations" in str(exc.value)
    assert "observed contraction" in str(exc.value)
    assert "reduce dt" in str(exc.value)


def test_iteration_cap_reports_observed_contraction(grid64, ops64, monkeypatch):
    monkeypatch.setattr(fkdv.stepper, "MAX_PICARD_ITERS", 2)
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01,
                       tol_factor=1e-14)
    with pytest.raises(FixedPointDivergence) as exc:
        fixed_point_step(u0, ops64, 0.01, cfg)
    assert exc.value.iters == 2
    assert 0.0 < exc.value.residual < math.inf
    assert 0.0 < exc.value.contraction < 1.0


def test_final_residual_below_tolerance(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.02)
    traj = run(u0, 0.0, 0.1, ops64, cfg, snapshot_stride=1)
    for n, report in enumerate(traj.reports):
        prev = traj.state(n).coeffs
        tol = cfg.tol_factor * grid64.dx * _m_norm(prev, ops64.mass_symbol)
        assert report.final_residual <= tol


def test_residuals_decrease_within_contraction_regime(grid64, ops64):
    # A small dt and a tolerance far below the first correction force
    # several iterations; each must shrink the residual.
    dt = 0.003 * grid64.dx**1.5
    u0 = l2_project(grid64, lambda x: 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_rule="explicit", dt_value=dt,
                       tol_factor=1e-8)
    traj = run(u0, 0.0, 5 * dt, ops64, cfg)
    for report in traj.reports:
        assert report.iters >= 3
        assert 0.0 < report.contraction < 1.0


# ---------------------------------------------------------------------------
# full runs


def test_run_with_zero_span_returns_initial(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig()
    traj = run(u0, 3.0, 3.0, ops64, cfg)
    assert traj.n_steps == 0
    assert traj.final is u0
    assert traj.t_final == 3.0


def test_run_rejects_foreign_operators(grid64):
    other = Grid(0.0, 2.0 * np.pi, 32)
    ops32 = assemble_operators(other, 1.5)
    u0 = l2_project(grid64, np.sin)
    with pytest.raises(ValueError):
        run(u0, 0.0, 1.0, ops32, SchemeConfig())


def test_cayley_map_is_isometry():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    ops = assemble_operators(grid, 1.5)
    u0 = l2_project(grid, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01,
                       nonlinear=False)
    traj = run(u0, 0.0, 0.2, ops, cfg)
    n0 = _m_norm(u0.coeffs, ops.mass_symbol)
    nf = _m_norm(traj.final.coeffs, ops.mass_symbol)
    assert abs(nf - n0) / n0 < 1e-12


def test_cayley_map_reverses():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    ops = assemble_operators(grid, 1.5)
    u0 = l2_project(grid, np.sin)
    fwd = SchemeConfig(dt_rule="explicit", dt_value=0.01,
                       nonlinear=False)
    back = SchemeConfig(dt_rule="explicit", dt_value=-0.01,
                        nonlinear=False)
    there = run(u0, 0.0, 0.1, ops, fwd)
    again = run(there.final, 0.1, 0.0, ops, back)
    err = np.linalg.norm(again.final.coeffs - u0.coeffs)
    assert err / np.linalg.norm(u0.coeffs) < 1e-10
    # The standalone step accepts dt < 0 and undoes a step of +dt.
    w, _ = fixed_point_step(u0, ops, 0.01, fwd)
    w, _ = fixed_point_step(w, ops, -0.01, back)
    assert ops.l2_norm(w.coeffs - u0.coeffs) <= 1e-12


def test_soliton_run_iteration_budget():
    grid = Grid(-15.0, 15.0, 256)
    ops = assemble_operators(grid, 1.0)
    u0 = hermite_interpolate(grid, lambda x: bo_soliton(x, 0.0),
                             lambda x: bo_soliton_dx(x, 0.0))
    traj = run(u0, 0.0, 2.0, ops, SchemeConfig())
    assert max(r.iters for r in traj.reports) <= 10


def test_mass_drift_is_roundoff(grid64, ops64):
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.02)
    traj = run(u0, 0.0, 0.2, ops64, cfg)
    scale = grid64.dx * float(np.sum(np.abs(u0.node_values)))
    for report in traj.reports:
        assert report.mass_drift < 1e-12 * max(scale, 1.0)


def test_l2_drift_compares_successive_states(grid64, ops64):
    # run hands each state's M-norm on to the next step instead of taking it
    # again; the drifts must equal the norms recomputed from the states.
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.05)
    traj = run(u0, 0.0, 0.5, ops64, cfg, snapshot_stride=1)
    norms = [ops64.l2_norm(traj.state(n).coeffs) for n in range(traj.n_steps + 1)]
    drifts = [abs(b - a) for a, b in zip(norms, norms[1:])]
    assert [r.l2_drift for r in traj.reports] == drifts
    assert max(drifts) > 0.0


def test_default_snapshot_policy_keeps_ten_states(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_rule="explicit", dt_value=0.01)
    traj = run(u0, 0.0, 0.9, ops64, cfg)
    indices = [idx for idx, _ in traj.snapshots]
    assert indices[0] == 0
    assert indices[-1] == traj.n_steps
    assert len(indices) == 10
    with pytest.raises(ValueError):
        traj.state(17)


# ---------------------------------------------------------------------------
# time interpolation


def _toy_trajectory(n_states: int) -> Trajectory:
    grid = Grid(0.0, 1.0, 8)
    rng = np.random.default_rng(42)
    states = [FemFunction(grid, rng.standard_normal(grid.n_dofs))
              for _ in range(n_states)]
    blank = StepReport(iters=1, final_residual=0.0, l2_drift=0.0,
                       mass_drift=0.0, contraction=0.0)
    return Trajectory(grid, SchemeConfig(), 0.1, 0.0,
                      list(enumerate(states)), [blank] * (n_states - 1))


def test_interpolate_at_half_steps():
    traj = _toy_trajectory(5)
    u2, u3 = traj.state(2), traj.state(3)
    got = interpolate_in_time(traj, 0.25)  # t_{2+1/2}
    want = 0.5 * (u2.coeffs + u3.coeffs)
    assert got.coeffs == pytest.approx(want, abs=1e-14)


def test_interpolate_at_interior_step():
    traj = _toy_trajectory(5)
    got = interpolate_in_time(traj, 0.2)  # t_2
    want = (traj.state(1).coeffs + 2.0 * traj.state(2).coeffs
            + traj.state(3).coeffs) / 4.0
    assert got.coeffs == pytest.approx(want, abs=1e-14)


def test_interpolate_constant_trajectory():
    grid = Grid(0.0, 1.0, 8)
    u = FemFunction(grid, np.linspace(0.0, 1.0, grid.n_dofs))
    blank = StepReport(iters=1, final_residual=0.0, l2_drift=0.0,
                       mass_drift=0.0, contraction=0.0)
    traj = Trajectory(grid, SchemeConfig(), 0.1, 0.0,
                      [(i, u) for i in range(4)], [blank] * 3)
    for t in (0.0, 0.07, 0.15, 0.3):
        assert interpolate_in_time(traj, t).coeffs == pytest.approx(
            u.coeffs, abs=1e-14)


def test_interpolate_endpoints_and_range():
    traj = _toy_trajectory(4)
    assert interpolate_in_time(traj, 0.0).coeffs == pytest.approx(
        traj.state(0).coeffs, abs=1e-14)
    assert interpolate_in_time(traj, 0.3).coeffs == pytest.approx(
        traj.state(3).coeffs, abs=1e-14)
    with pytest.raises(ValueError):
        interpolate_in_time(traj, 0.31)
    with pytest.raises(ValueError):
        interpolate_in_time(traj, -0.01)
