"""Crank-Nicolson stepping of u_t + (u^2/2)_x - D^alpha u_x = 0.

Each step solves the implicit midpoint system

    [M - (dt/2) D] w = M u_n + (dt/2) D u_n + (dt/2) q(w, u_n),
    q_i(w, u) = <((w + u)/2)^2, d/dx v_i>,

by Picard iteration seeded with w = u_n, lagging only the quadratic load.
The constant linear operator is factored once per trajectory as 2x2 complex
inverses per circulant frequency, so a step costs a few FFTs regardless of
whether the dense matrices would even fit in memory.  At the exact fixed
point the map is an M-isometry (the L2 norm is conserved); the termination
tolerance bounds the per-step drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import OperatorMatrices, _alpha_value
from .circulant import apply_symbol, block_circulant_dense, invert_symbol
from .fem import (FemFunction, Grid, element_loads, element_shapes, gauss_values,
                  mass_offset_blocks, scatter)

__all__ = [
    "SchemeConfig",
    "StepReport",
    "Trajectory",
    "FixedPointDivergence",
    "SQRT_C2",
    "calibrate_inverse_constant",
    "choose_dt",
    "nonlinear_load",
    "fixed_point_step",
    "run",
    "interpolate_in_time",
]

# Calibrated sup of ||v'||_inf dx^{3/2} / ||v||_L2 over the periodic cubic
# Hermite space (inverse inequality constant sqrt(C2)).  The exact supremum
# is attained by a lone slope dof and equals sqrt(105) ~ 10.2470; see
# calibrate_inverse_constant.
SQRT_C2 = 10.25

_DT_RULES = ("courant", "explicit", "proportional")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters.

    dt_rule: 'courant' (dt = dx/||u0||_inf), 'explicit' (dt = dt_value), or
    'proportional' (dt = dt_factor * dx).  cfl_L is the targeted contraction
    factor L of the fixed-point map; K = (5 - L)/(1 - L) enters the CFL
    bound.  The bound is advisory (warn) unless enforce_cfl is set.
    nonlinear=False freezes the quadratic term, leaving the linear
    Crank-Nicolson (Cayley) map — used by the isometry/reversibility checks.
    """

    alpha: float
    dt_rule: str = "courant"
    dt_value: float | None = None
    dt_factor: float | None = None
    tol_factor: float = 0.002
    max_fixed_point_iters: int = 100
    cfl_L: float = 0.5
    enforce_cfl: bool = False
    nonlinear: bool = True

    def __post_init__(self) -> None:
        _alpha_value(self.alpha)
        if self.dt_rule not in _DT_RULES:
            raise ValueError(f"dt_rule must be one of {_DT_RULES}")
        # Negative dt is allowed: the Cayley map is time reversible.
        if self.dt_rule == "explicit" and not self.dt_value:
            raise ValueError("explicit dt_rule needs a nonzero dt_value")
        if self.dt_rule == "proportional" and not (self.dt_factor and self.dt_factor > 0):
            raise ValueError("proportional dt_rule needs a positive dt_factor")
        if not self.tol_factor > 0:
            raise ValueError("tol_factor must be positive")
        if self.max_fixed_point_iters < 1:
            raise ValueError("max_fixed_point_iters must be >= 1")
        if not 0.0 < self.cfl_L < 1.0:
            raise ValueError("cfl_L must lie in (0, 1)")

    @property
    def K(self) -> float:
        return (5.0 - self.cfl_L) / (1.0 - self.cfl_L)


@dataclass(frozen=True)
class StepReport:
    """Per-step record of the inner iteration and conservation drift."""

    iters: int
    final_residual: float
    l2_drift: float
    cfl_lambda: float
    mass_drift: float
    residuals: tuple[float, ...]


@dataclass
class Trajectory:
    """A completed run: configuration, retained states, per-step reports."""

    grid: Grid
    config: SchemeConfig
    dt: float
    t0: float
    snapshots: list[tuple[int, FemFunction]]
    reports: list[StepReport]

    @property
    def n_steps(self) -> int:
        return len(self.reports)

    @property
    def t_final(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def final(self) -> FemFunction:
        return self.snapshots[-1][1]

    def state(self, step: int) -> FemFunction:
        for idx, u in self.snapshots:
            if idx == step:
                return u
        raise ValueError(
            f"state at step {step} was not retained; rerun with snapshot_stride=1")


class FixedPointDivergence(RuntimeError):
    """Inner Picard iteration failed to reach the termination tolerance."""

    def __init__(self, iters: int, residual: float, tol: float,
                 cfl_lambda: float, step: int | None = None):
        at = f" at step {step}" if step is not None else ""
        super().__init__(
            f"fixed-point iteration did not converge{at}: residual {residual:.3e} "
            f"after {iters} iterations (tol {tol:.3e}, lambda = dt/dx^1.5 = "
            f"{cfl_lambda:.3g}); reduce dt")
        self.iters = iters
        self.residual = residual
        self.tol = tol
        self.cfl_lambda = cfl_lambda
        self.step = step


def calibrate_inverse_constant(n_elems: int = 64, samples: int = 257) -> float:
    """Exact sup of ||v'||_inf dx^{3/2} / ||v||_L2 over the periodic space.

    For a point evaluation v'(x) = d(x)^T c the supremum of |v'(x)|/||v||_M
    over coefficients is sqrt(d^T M^{-1} d); maximising over x in one element
    (translation invariance) gives the inverse-inequality constant.
    """
    grid = Grid(0.0, 1.0, n_elems)
    mass = block_circulant_dense(mass_offset_blocks(grid))
    dx = grid.dx
    best = 0.0
    for xi in np.linspace(0.0, 1.0, samples):
        d = np.zeros(grid.n_dofs)
        d[:4] = element_shapes(xi, 1) / dx
        val = float(d @ np.linalg.solve(mass, d))
        best = max(best, math.sqrt(val) * dx ** 1.5)
    return best


def choose_dt(u0: FemFunction, grid: Grid, cfg: SchemeConfig,
              t0: float = 0.0, t_final: float | None = None) -> float:
    """Step size per the configured rule, snapped down to divide the span."""
    if cfg.dt_rule == "courant":
        sup = u0.sup_norm()
        if sup == 0.0:
            raise ValueError("courant dt rule undefined for zero initial data")
        dt = grid.dx / sup
    elif cfg.dt_rule == "explicit":
        dt = float(cfg.dt_value)
    else:
        dt = cfg.dt_factor * grid.dx
    if t_final is not None:
        span = t_final - t0
        if span == 0.0 or (span > 0) != (dt > 0):
            raise ValueError("time span and step size must share a sign")
        steps = max(1, math.ceil(span / dt - 1e-9))
        dt = span / steps
    return dt


def _check_cfl(dt: float, grid: Grid, u_l2: float, cfg: SchemeConfig) -> float:
    lam = abs(dt) / grid.dx ** 1.5
    # The bound only concerns fixed-point contraction, so the pure linear
    # flow is exempt.
    if u_l2 > 0.0 and cfg.nonlinear:
        bound = cfg.cfl_L / (2.0 * SQRT_C2 * cfg.K * u_l2)
        if lam > bound:
            msg = (f"CFL: lambda = dt/dx^1.5 = {lam:.3g} exceeds the contraction "
                   f"bound {bound:.3g} (L = {cfg.cfl_L}); fixed-point convergence "
                   f"is not guaranteed")
            if cfg.enforce_cfl:
                raise ValueError(msg)
            warnings.warn(msg, stacklevel=3)
    return lam


def nonlinear_load(w: FemFunction, un: FemFunction, grid: Grid) -> np.ndarray:
    """q_i = <((w + un)/2)^2, d/dx v_i>; exact for the degree-6 integrand.

    The 1/dx of the test derivative cancels the element jacobian.
    """
    if w.grid != grid or un.grid != grid:
        raise ValueError("operands live on a different grid")
    squares = gauss_values(0.5 * (w.coeffs + un.coeffs)) ** 2
    return scatter(element_loads(squares, order=1))


class _StepOperator:
    """Factored linear part of the step, shared across iterations and steps."""

    def __init__(self, ops: OperatorMatrices, dt: float):
        self.ops = ops
        self.dt = dt
        a_symbol = ops.mass_symbol - 0.5 * dt * ops.disp_symbol
        self.a_inv = invert_symbol(a_symbol)
        self.b_symbol = ops.mass_symbol + 0.5 * dt * ops.disp_symbol

    def step(self, un: FemFunction, cfg: SchemeConfig, cfl_lambda: float,
             step_index: int | None = None) -> tuple[FemFunction, StepReport]:
        grid = un.grid
        norm_un = self.ops.l2_norm(un.coeffs)
        tol = cfg.tol_factor * grid.dx * norm_un
        b0 = apply_symbol(self.b_symbol, un.coeffs)

        if not cfg.nonlinear:
            w = apply_symbol(self.a_inv, b0)
            iters, residuals = 1, (0.0,)
        else:
            w = un.coeffs
            residuals = []
            w_fn = un
            for iters in range(1, cfg.max_fixed_point_iters + 1):
                q = nonlinear_load(w_fn, un, grid)
                w_new = apply_symbol(self.a_inv, b0 + 0.5 * self.dt * q)
                res = self.ops.l2_norm(w_new - w)
                residuals.append(res)
                w = w_new
                w_fn = FemFunction(grid, w)
                if res <= tol:
                    break
            else:
                raise FixedPointDivergence(cfg.max_fixed_point_iters,
                                           residuals[-1], tol, cfl_lambda,
                                           step_index)
            residuals = tuple(residuals)

        result = FemFunction(grid, w)
        report = StepReport(
            iters=iters,
            final_residual=residuals[-1],
            l2_drift=abs(self.ops.l2_norm(w) - norm_un),
            cfl_lambda=cfl_lambda,
            mass_drift=abs(grid.dx * float(np.sum(w[0::2] - un.coeffs[0::2]))),
            residuals=residuals,
        )
        return result, report


def fixed_point_step(un: FemFunction, ops: OperatorMatrices, dt: float,
                     cfg: SchemeConfig) -> tuple[FemFunction, StepReport]:
    """One Crank-Nicolson step (standalone form; factors the system itself)."""
    if dt == 0 or not math.isfinite(dt):
        raise ValueError("dt must be nonzero and finite")
    operator = _StepOperator(ops, dt)
    lam = _check_cfl(dt, un.grid, ops.l2_norm(un.coeffs), cfg)
    return operator.step(un, cfg, lam)


def _snapshot_indices(steps: int, stride: int | None) -> set[int]:
    if stride is not None:
        if stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        kept = set(range(0, steps + 1, stride))
    else:
        # default policy: initial, final, and 8 evenly spaced intermediates
        kept = {round(k * steps / 9.0) for k in range(10)}
    kept.update((0, steps))
    return kept


def run(u0: FemFunction, t0: float, t_final: float, ops: OperatorMatrices,
        cfg: SchemeConfig, snapshot_stride: int | None = None) -> Trajectory:
    """March from t0 to t_final; retains snapshots per the stride policy."""
    grid = u0.grid
    if ops.grid != grid:
        raise ValueError("operator matrices assembled on a different grid")
    if t_final == t0:
        return Trajectory(grid, cfg, 0.0, t0, [(0, u0)], [])
    dt = choose_dt(u0, grid, cfg, t0, t_final)
    steps = round((t_final - t0) / dt)
    operator = _StepOperator(ops, dt)
    lam = _check_cfl(dt, grid, ops.l2_norm(u0.coeffs), cfg)
    keep = _snapshot_indices(steps, snapshot_stride)

    snapshots = [(0, u0)]
    reports: list[StepReport] = []
    u = u0
    for n in range(1, steps + 1):
        u, report = operator.step(u, cfg, lam, step_index=n)
        reports.append(report)
        if n in keep:
            snapshots.append((n, u))
    return Trajectory(grid, cfg, dt, t0, snapshots, reports)


def interpolate_in_time(traj: Trajectory, t: float) -> FemFunction:
    """Piecewise-linear blend between half-step averages u^{n+1/2}.

    On [t_{n-1/2}, t_{n+1/2}) the value is the linear interpolation between
    u^{n-1/2} and u^{n+1/2} with u^{k+1/2} = (u^k + u^{k+1})/2; the first and
    last half intervals blend toward u^0 and u^M.  Needs consecutive
    snapshots around t (snapshot_stride=1).
    """
    dt, M = traj.dt, traj.n_steps
    if M == 0 or dt == 0.0:
        return traj.state(0)
    s = (t - traj.t0) / dt
    if s < -1e-9 or s > M + 1e-9:
        raise ValueError(f"t = {t} outside the stored range "
                         f"[{traj.t0}, {traj.t_final}]")
    s = min(max(s, 0.0), float(M))

    def half_state(n: int) -> FemFunction:
        return 0.5 * (traj.state(n) + traj.state(n + 1))

    if s <= 0.5:
        theta = 2.0 * s
        lo, hi = traj.state(0), half_state(0)
    elif s >= M - 0.5:
        theta = 2.0 * (s - (M - 0.5))
        lo, hi = half_state(M - 1), traj.state(M)
    else:
        n = int(math.floor(s + 0.5))
        theta = s - (n - 0.5)
        lo, hi = half_state(n - 1), half_state(n)
    return (1.0 - theta) * lo + theta * hi
