"""Crank-Nicolson stepping: dt rules, fixed-point solve, conservation, blending."""

from __future__ import annotations

import math
import warnings
import weakref

import numpy as np
import pytest

from fkdv.assembly import assemble_operators
from fkdv.circulant import apply_symbol, block_symbol
from fkdv.fem import (GAUSS_POINTS, GAUSS_WEIGHTS, FemFunction, Grid, element_shapes,
                      hermite_interpolate, l2_project, mass_bands, mass_norm,
                      mass_offset_blocks, nonlinear_load)
from fkdv.solutions import bo_soliton, get_experiment, kdv_one_soliton
import fkdv.assembly
import fkdv.stepper
from fkdv.stepper import (
    FixedPointDivergence,
    SchemeConfig,
    choose_dt,
    run,
)
from dense_circulant import plain_apply, plain_inverse, plain_symbol
from solution_derivatives import bo_soliton_dx, kdv_one_soliton_dx


def _m_norm(coeffs: np.ndarray, ops) -> float:
    """sqrt(c^T M c) through the mass symbol, apart from fem.mass_norm."""
    mass = block_symbol(mass_offset_blocks(ops.grid))
    return math.sqrt(float(coeffs @ apply_symbol(mass, coeffs)))


def _cayley_steps(coeffs: np.ndarray, ops, dt: float, steps: int) -> np.ndarray:
    """steps linear Crank-Nicolson (Cayley) steps: the step's two symbols
    without the quadratic load, c <- (M - dt/2 D)^-1 (M + dt/2 D) c."""
    a_inv, b_symbol = fkdv.stepper._step_symbols(ops, dt)
    for _ in range(steps):
        coeffs = apply_symbol(a_inv, apply_symbol(b_symbol, coeffs))
    return coeffs


def _one_step(u: FemFunction, ops, dt: float, **settings):
    """One explicit step of size dt from t = 0: (state, report)."""
    cfg = SchemeConfig(dt_value=dt, **settings)
    traj = run(u, 0.0, dt, ops, cfg)
    assert traj.n_steps == 1
    return traj.final, traj.reports[0]


def _chain(u0: FemFunction, ops, dt: float, steps: int) -> list[FemFunction]:
    """u^0 ... u^steps from single-step runs of size dt.  With the dt of a
    run under the default tolerance, these are that run's states bit for bit."""
    states = [u0]
    for _ in range(steps):
        states.append(_one_step(states[-1], ops, dt)[0])
    return states


@pytest.fixture
def held_steps(monkeypatch):
    """For each run, the steps n whose state u^n it still held as it built
    its Trajectory."""
    made: dict[int, weakref.ref] = {}
    held: list[set[int]] = []
    step, trajectory = fkdv.stepper._StepOperator.step, fkdv.stepper.Trajectory

    def tracked(self, un, norm_un, cfg, n):
        out = step(self, un, norm_un, cfg, n)
        made[n] = weakref.ref(out[0])
        return out

    def built(*args):
        held.append({n for n, ref in made.items() if ref() is not None})
        made.clear()
        return trajectory(*args)

    monkeypatch.setattr(fkdv.stepper._StepOperator, "step", tracked)
    monkeypatch.setattr(fkdv.stepper, "Trajectory", built)
    return held


# ---------------------------------------------------------------------------
# configuration and dt rules


def test_scheme_config_validation():
    with pytest.raises(TypeError):      # the order comes with the operators
        SchemeConfig(alpha=1.5)
    with pytest.raises(TypeError):      # the step rule follows the value given
        SchemeConfig(dt_rule="explicit", dt_value=0.1)
    with pytest.raises(ValueError):     # a step size and a factor of dx
        SchemeConfig(dt_value=0.1, dt_factor=0.5)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SchemeConfig(dt_factor=bad)
    with pytest.raises(ValueError):
        SchemeConfig(tol_factor=0.0)


def test_fixed_point_step_needs_positive_dt(grid64, ops64):
    # A step size enters only through SchemeConfig, so the guard sits there.
    # Only a zero or non-finite step is rejected; dt < 0 steps back in time.
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SchemeConfig(dt_value=bad)
    u0 = l2_project(grid64, np.sin)
    back, report = _one_step(u0, ops64, -0.01)
    assert np.all(np.isfinite(back.coeffs))
    assert report.iters < fkdv.stepper.MAX_PICARD_ITERS


def test_courant_dt_from_soliton_peak():
    grid = Grid(-15.0, 15.0, 256)
    u0 = hermite_interpolate(grid, lambda x: kdv_one_soliton(x, 0.0),
                             lambda x: kdv_one_soliton_dx(x, 0.0))
    # The soliton peaks at exactly 9 on a node, so dt = dx / 9, which
    # divides a span of 100 such steps.
    dt = choose_dt(u0, SchemeConfig(), 0.0, 100 * grid.dx / 9.0)
    assert dt == pytest.approx(grid.dx / 9.0, rel=1e-12)


def test_explicit_dt_step_count(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.01)
    traj = run(u0, 0.0, 1.0, ops64, cfg)
    assert traj.n_steps == 100
    assert traj.dt == pytest.approx(0.01)
    assert traj.n_steps * traj.dt == pytest.approx(1.0)


def test_proportional_dt_rule(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_factor=0.5)
    dt = choose_dt(u0, cfg, 0.0, 10 * grid64.dx)
    assert dt == pytest.approx(0.5 * grid64.dx)


def test_choose_dt_snaps_down_to_divide_span(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.3)
    dt = choose_dt(u0, cfg, 0.0, 1.0)
    assert dt == pytest.approx(0.25)


def test_choose_dt_sign_mismatch_raises(grid64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.1)
    with pytest.raises(ValueError):
        choose_dt(u0, cfg, 0.0, -1.0)
    zero = l2_project(grid64, lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        choose_dt(zero, SchemeConfig(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# nonlinear load


def test_nonlinear_load_zero_and_constant(grid64):
    zero = np.zeros(grid64.n_dofs)
    assert np.all(nonlinear_load(zero, zero) == 0.0)
    const = np.zeros(grid64.n_dofs)
    const[0::2] = 3.0
    q = nonlinear_load(const, const)
    assert np.max(np.abs(q)) < 1e-13


def test_nonlinear_load_conservation_orthogonality(grid64):
    u = l2_project(grid64, np.sin)
    q = nonlinear_load(u.coeffs, u.coeffs)
    scale = np.linalg.norm(q)
    ones = np.zeros(grid64.n_dofs)
    ones[0::2] = 1.0
    # <q, 1> = 0 drives exact mass conservation; <q(u,u), u> = 0 is the
    # cancellation behind L2 conservation up to the stopping tolerance.
    assert abs(float(ones @ q)) < 1e-12 * scale
    assert abs(float(u.coeffs @ q)) < 1e-8 * scale


def test_nonlinear_load_length_mismatch():
    with pytest.raises(ValueError):
        nonlinear_load(np.zeros(16), np.zeros(32))
    with pytest.raises(ValueError):
        nonlinear_load(np.zeros(32), np.zeros(16))


# ---------------------------------------------------------------------------
# single steps


def test_zero_state_steps_to_zero_in_one_iteration(grid64, ops64):
    zero = FemFunction(grid64, np.zeros(grid64.n_dofs))
    w, report = _one_step(zero, ops64, 0.01)
    assert np.all(w.coeffs == 0.0)
    assert report.iters == 1
    assert report.contraction == 0.0


def test_divergence_reports_context(grid64, ops64):
    # The corrections grow until they overflow; the iteration must stop at
    # the first non-finite residual instead of iterating on NaN.
    big = l2_project(grid64, lambda x: 9.0 * np.sin(x))
    with pytest.raises(FixedPointDivergence) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")      # the overflow is not reported
        _one_step(big, ops64, 0.5)
    assert exc.value.step == 1
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
    with pytest.raises(FixedPointDivergence) as exc:
        _one_step(u0, ops64, 0.01, tol_factor=1e-14)
    assert exc.value.iters == 2
    assert 0.0 < exc.value.residual < math.inf
    assert 0.0 < exc.value.contraction < 1.0


def test_final_residual_below_tolerance(grid64, ops64):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.02)
    traj = run(u0, 0.0, 0.1, ops64, cfg)
    states = _chain(u0, ops64, traj.dt, traj.n_steps)
    for prev, report in zip(states[:-1], traj.reports, strict=True):
        tol = cfg.tol_factor * grid64.dx * _m_norm(prev.coeffs, ops64)
        assert report.final_residual <= tol


def test_residuals_decrease_within_contraction_regime(grid64, ops64):
    # A small dt and a tolerance far below the first correction force
    # several iterations; each must shrink the residual.
    dt = 0.003 * grid64.dx**1.5
    u0 = l2_project(grid64, lambda x: 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_value=dt,
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
    traj = run(u0, 3.0, 3.0, ops64, cfg, times=[3.0])
    assert traj.n_steps == 0 and traj.dt == 0.0
    assert traj.final is u0
    assert traj.profiles == {3.0: u0}
    with pytest.raises(ValueError, match="outside"):
        run(u0, 3.0, 3.0, ops64, cfg, times=[3.0 + 1e-12])


def test_run_rejects_foreign_operators(grid64):
    other = Grid(0.0, 2.0 * np.pi, 32)
    ops32 = assemble_operators(other, 1.5)
    u0 = l2_project(grid64, np.sin)
    with pytest.raises(ValueError):
        run(u0, 0.0, 1.0, ops32, SchemeConfig())


def test_runs_on_one_record_assemble_nothing(grid64, monkeypatch):
    # A run only reads its record: a second run on it assembles nothing,
    # repeats the first to the bit and leaves the blocks as they were.
    ops = assemble_operators(grid64, 1.5)
    blocks = ops.disp_blocks.copy()
    calls = []
    monkeypatch.setattr(fkdv.assembly, "assemble_offset_blocks",
                        lambda *args, **kwargs: calls.append(args))
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.01)
    first, second = (run(u0, 0.0, 0.05, ops, cfg).final.coeffs for _ in range(2))
    assert calls == []
    assert np.array_equal(first, second)
    assert np.array_equal(ops.disp_blocks, blocks)


def test_cayley_map_is_isometry():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    ops = assemble_operators(grid, 1.5)
    u0 = l2_project(grid, np.sin)
    final = _cayley_steps(u0.coeffs, ops, 0.01, 20)
    n0 = _m_norm(u0.coeffs, ops)
    nf = _m_norm(final, ops)
    assert abs(nf - n0) / n0 < 1e-12


def test_cayley_map_reverses():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    ops = assemble_operators(grid, 1.5)
    u0 = l2_project(grid, np.sin)
    there = _cayley_steps(u0.coeffs, ops, 0.01, 10)
    again = _cayley_steps(there, ops, -0.01, 10)
    err = np.linalg.norm(again - u0.coeffs)
    assert err / np.linalg.norm(u0.coeffs) < 1e-10
    # A single step of -dt undoes a step of +dt.
    w = _cayley_steps(_cayley_steps(u0.coeffs, ops, 0.01, 1), ops, -0.01, 1)
    assert mass_norm(w - u0.coeffs, mass_bands(grid)) <= 1e-12


def test_soliton_run_iteration_budget():
    grid = Grid(-15.0, 15.0, 256)
    ops = assemble_operators(grid, 1.0)
    u0 = hermite_interpolate(grid, lambda x: bo_soliton(x, 0.0),
                             lambda x: bo_soliton_dx(x, 0.0))
    traj = run(u0, 0.0, 2.0, ops, SchemeConfig())
    assert max(r.iters for r in traj.reports) <= 10


def test_mass_drift_is_roundoff(grid64, ops64):
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_value=0.02)
    traj = run(u0, 0.0, 0.2, ops64, cfg)
    scale = grid64.dx * float(np.sum(np.abs(u0.node_values)))
    for report in traj.reports:
        assert report.mass_drift < 1e-12 * max(scale, 1.0)


def test_l2_drift_compares_successive_states(grid64, ops64):
    # run hands each state's M-norm on to the next step instead of taking it
    # again; the drifts must equal the norms recomputed from the states.
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    cfg = SchemeConfig(dt_value=0.05)
    traj = run(u0, 0.0, 0.5, ops64, cfg)
    states = _chain(u0, ops64, traj.dt, traj.n_steps)
    assert np.array_equal(states[-1].coeffs, traj.final.coeffs)
    norms = [mass_norm(u.coeffs, mass_bands(grid64)) for u in states]
    drifts = [abs(b - a) for a, b in zip(norms, norms[1:])]
    assert [r.l2_drift for r in traj.reports] == drifts
    assert max(drifts) > 0.0


def test_default_run_keeps_initial_and_final_state_only(grid64, ops64, held_steps):
    u0 = l2_project(grid64, np.sin)
    traj = run(u0, 0.0, 0.09, ops64, SchemeConfig(dt_value=0.01))
    assert traj.n_steps == 9
    assert traj.profiles == {}
    assert held_steps == [{9}]
    assert np.array_equal(traj.final.coeffs,
                          _chain(u0, ops64, traj.dt, 9)[-1].coeffs)


def test_run_keeps_the_steps_it_is_given(grid64, ops64, held_steps):
    # The steps that the blends at 0.023 and 0.052 read, and the final state.
    u0 = l2_project(grid64, np.sin)
    traj = run(u0, 0.0, 0.09, ops64, SchemeConfig(dt_value=0.01), [0.023, 0.052])
    assert held_steps == [{2, 3, 5, 6, 9}]
    assert sorted(traj.profiles) == [0.023, 0.052]


def test_profiles_read_at_most_two_states_per_time(grid64, ops64, held_steps):
    u0 = l2_project(grid64, np.sin)
    cfg = SchemeConfig(dt_value=0.01)
    # The ends, a time in each end step, a half step, a step, and between them.
    times = [0.0, 0.003, 0.025, 0.037, 0.05, 0.0899, 0.09]
    together = run(u0, 0.0, 0.09, ops64, cfg, times)
    assert len(held_steps.pop()) < together.n_steps
    for t in times:
        alone = run(u0, 0.0, 0.09, ops64, cfg, [t])
        assert len(held_steps.pop() - {alone.n_steps}) <= 2
        assert np.array_equal(alone.profiles[t].coeffs, together.profiles[t].coeffs)


def _plain_projection(grid: Grid, func) -> np.ndarray:
    x = grid.nodes()[:, None] + GAUSS_POINTS[None, :] * grid.dx
    tests = (element_shapes(GAUSS_POINTS, 0) * GAUSS_WEIGHTS).T
    contrib = (np.asarray(func(x), dtype=float) * grid.dx) @ tests
    # Each element's left half onto its left node, its right half onto the next.
    loads = (contrib[:, :2] + np.roll(contrib[:, 2:], 1, axis=0)).reshape(-1)
    return plain_apply(plain_inverse(plain_symbol(mass_offset_blocks(grid))), loads)


@pytest.mark.parametrize("name", ["bo-one", "frac-triangle"])   # alpha 1, 1.5
@pytest.mark.parametrize("n", [64, 1024])
def test_step_symbols_and_projection_keep_their_arithmetic(name, n):
    # The in-place forms must round exactly as the plain formulas do: a
    # 1-ulp change here can move the benchmark tables past their gates.
    spec = get_experiment(name)
    grid = Grid(spec.domain[0], spec.domain[1], n)
    ops = assemble_operators(grid, spec.alpha)
    dt = 0.5 * grid.dx
    mass = plain_symbol(mass_offset_blocks(grid))
    half = 0.5 * dt * plain_symbol(ops.disp_blocks)
    a_inv, b_symbol = fkdv.stepper._step_symbols(ops, dt)
    assert np.array_equal(a_inv.transpose(2, 0, 1), plain_inverse(mass - half))
    assert np.array_equal(b_symbol.transpose(2, 0, 1), mass + half)
    assert np.array_equal(l2_project(grid, spec.initial).coeffs,
                          _plain_projection(grid, spec.initial))


def test_step_calls_load_and_apply_through_module_names(monkeypatch):
    # The benchmark trace wraps fkdv.stepper.nonlinear_load and
    # fkdv.stepper.apply_symbol: a step must call both through those names,
    # one load per Picard iteration and one apply more than that.
    calls = {"load": 0, "apply": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fkdv.stepper, "nonlinear_load",
                        counted("load", fkdv.stepper.nonlinear_load))
    monkeypatch.setattr(fkdv.stepper, "apply_symbol",
                        counted("apply", fkdv.stepper.apply_symbol))
    spec = get_experiment("bo-one")
    grid = Grid(spec.domain[0], spec.domain[1], 32)
    ops = assemble_operators(grid, spec.alpha)
    traj = run(l2_project(grid, spec.initial), spec.t0, spec.t0 + 6.0, ops,
               SchemeConfig())
    iters = sum(r.iters for r in traj.reports)
    assert traj.n_steps > 1 and iters > traj.n_steps
    assert calls == {"load": iters, "apply": iters + traj.n_steps}


# ---------------------------------------------------------------------------
# time interpolation


def _profiles(grid64, ops64, t_final: float, times):
    """A dt = 0.1 run's profiles at times, and its states u^0 ... u^M."""
    u0 = l2_project(grid64, lambda x: 1.0 + 0.5 * np.sin(x))
    traj = run(u0, 0.0, t_final, ops64, SchemeConfig(dt_value=0.1), times)
    return traj.profiles, _chain(u0, ops64, traj.dt, traj.n_steps)


def test_interpolate_at_half_steps(grid64, ops64):
    profiles, u = _profiles(grid64, ops64, 0.4, [0.25])  # t_{2+1/2}
    want = 0.5 * u[2].coeffs + 0.5 * u[3].coeffs
    assert np.array_equal(profiles[0.25].coeffs, want)


def test_interpolate_at_interior_step(grid64, ops64):
    profiles, u = _profiles(grid64, ops64, 0.4, [0.2])  # t_2
    assert np.array_equal(profiles[0.2].coeffs, u[2].coeffs)


def test_interpolate_constant_trajectory(grid64, ops64):
    # The steps move a constant's slopes by at most 1.5e-10 here, and the
    # blend weights sum to one.
    u0 = l2_project(grid64, lambda x: np.full_like(x, 0.7))
    times = (0.0, 0.07, 0.15, 0.3)
    traj = run(u0, 0.0, 0.3, ops64, SchemeConfig(dt_value=0.1), times)
    for t in times:
        assert traj.profiles[t].coeffs == pytest.approx(u0.coeffs, abs=1e-9)


def test_interpolate_endpoints_and_range(grid64, ops64, monkeypatch):
    profiles, u = _profiles(grid64, ops64, 0.3, [0.0, 0.3])
    assert np.array_equal(profiles[0.0].coeffs, u[0].coeffs)
    assert np.array_equal(profiles[0.3].coeffs, u[3].coeffs)
    # A time outside the run is rejected before the first step.
    monkeypatch.setattr(fkdv.stepper, "_StepOperator", None)
    for t in (0.31, -0.01):
        with pytest.raises(ValueError, match="outside"):
            run(u[0], 0.0, 0.3, ops64, SchemeConfig(dt_value=0.1), [0.0, t])


@pytest.mark.parametrize("n", [32, 256])
def test_a_step_time_reads_the_state_a_run_to_it_ends_in(n):
    # 0.5 is a binary fraction, so runs to 3 and to 6 take the same step and
    # u^6 of the longer run is the shorter run's final state, bit for bit.
    spec = get_experiment("bo-one")
    grid = Grid(spec.domain[0], spec.domain[1], n)
    ops = assemble_operators(grid, spec.alpha)
    u0 = l2_project(grid, spec.initial)
    cfg = SchemeConfig(dt_value=0.5)
    short = run(u0, spec.t0, 3.0, ops, cfg)
    long = run(u0, spec.t0, 6.0, ops, cfg, [3.0, 6.0])
    assert (short.n_steps, long.n_steps) == (6, 12)
    assert np.array_equal(long.profiles[3.0].coeffs, short.final.coeffs)
    assert long.profiles[6.0] is long.final
