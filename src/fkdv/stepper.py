"""Crank-Nicolson stepping of u_t + (u^2/2)_x - D^alpha u_x = 0.

Each step solves the implicit midpoint system

    [M - (dt/2) D] w = M u_n + (dt/2) D u_n + (dt/2) q(w, u_n),
    q_i(w, u) = <((w + u)/2)^2, d/dx v_i>,

by Picard iteration seeded with w = u_n, lagging only the quadratic load.
The constant linear operator is factored once per trajectory as 2x2 complex
inverses per circulant frequency, so a step costs a few FFTs regardless of
whether the dense matrices would even fit in memory.  At the exact fixed
point the map is an M-isometry (the L2 norm is conserved); the termination
tolerance bounds the per-step drift.  Each step reports the contraction the
iteration actually showed; no a-priori step-size bound is imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import OperatorMatrices
from .circulant import apply_symbol, invert_symbol
from .fem import FemFunction, Grid, element_loads, gauss_values, scatter

__all__ = [
    "SchemeConfig",
    "StepReport",
    "Trajectory",
    "FixedPointDivergence",
    "choose_dt",
    "nonlinear_load",
    "fixed_point_step",
    "run",
    "interpolate_in_time",
]

# Picard iterations allowed per step before FixedPointDivergence.
MAX_PICARD_ITERS = 100

_DT_RULES = ("courant", "explicit", "proportional")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters; the order alpha comes with the operators.

    dt_rule: 'courant' (dt = dx/||u0||_inf), 'explicit' (dt = dt_value), or
    'proportional' (dt = dt_factor * dx).  The Picard iteration stops once
    a correction falls to tol_factor * dx * ||u_n||_L2.  nonlinear=False
    freezes the quadratic term, leaving the linear Crank-Nicolson (Cayley)
    map — used by the isometry/reversibility checks.
    """

    dt_rule: str = "courant"
    dt_value: float | None = None
    dt_factor: float | None = None
    tol_factor: float = 0.002
    nonlinear: bool = True

    def __post_init__(self) -> None:
        if self.dt_rule not in _DT_RULES:
            raise ValueError(f"dt_rule must be one of {_DT_RULES}")
        # Negative dt is allowed: the Cayley map is time reversible.
        if self.dt_rule == "explicit" and not self.dt_value:
            raise ValueError("explicit dt_rule needs a nonzero dt_value")
        if self.dt_rule == "proportional" and not (self.dt_factor and self.dt_factor > 0):
            raise ValueError("proportional dt_rule needs a positive dt_factor")
        if not self.tol_factor > 0:
            raise ValueError("tol_factor must be positive")


@dataclass(frozen=True)
class StepReport:
    """Per-step record of the inner iteration and conservation drift.

    contraction is the largest ratio of successive Picard corrections in the
    step (0.0 when the step took fewer than two iterations).
    """

    iters: int
    final_residual: float
    l2_drift: float
    mass_drift: float
    contraction: float


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
    """Inner Picard iteration failed to reach the termination tolerance.

    Raised after MAX_PICARD_ITERS iterations or at the first non-finite
    residual; contraction is the largest finite ratio of successive
    corrections observed in the step.
    """

    def __init__(self, iters: int, residual: float, tol: float,
                 contraction: float, step: int | None = None):
        at = f" at step {step}" if step is not None else ""
        super().__init__(
            f"fixed-point iteration did not converge{at}: residual {residual:.3e} "
            f"after {iters} iterations (tol {tol:.3e}, observed contraction "
            f"{contraction:.3g}); reduce dt")
        self.iters = iters
        self.residual = residual
        self.tol = tol
        self.contraction = contraction
        self.step = step


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

    def step(self, un: FemFunction, norm_un: float, cfg: SchemeConfig,
             step_index: int | None = None) -> tuple[FemFunction, StepReport, float]:
        """Step from un of M-norm norm_un; returns the state, report and M-norm."""
        grid = un.grid
        tol = cfg.tol_factor * grid.dx * norm_un
        b0 = apply_symbol(self.b_symbol, un.coeffs)

        if not cfg.nonlinear:
            w = apply_symbol(self.a_inv, b0)
            iters, res, contraction = 1, 0.0, 0.0
        else:
            w = un.coeffs
            w_fn = un
            res = contraction = 0.0
            # Overflow only leads to a non-finite residual, which ends the step.
            with np.errstate(over="ignore", invalid="ignore"):
                for iters in range(1, MAX_PICARD_ITERS + 1):
                    q = nonlinear_load(w_fn, un, grid)
                    w_new = apply_symbol(self.a_inv, b0 + 0.5 * self.dt * q)
                    prev, res = res, self.ops.l2_norm(w_new - w)
                    # A non-finite correction can never recover; stop at once.
                    if not math.isfinite(res):
                        raise FixedPointDivergence(iters, res, tol, contraction,
                                                   step_index)
                    if iters > 1:
                        contraction = max(contraction, res / prev)
                    w = w_new
                    w_fn = FemFunction(grid, w)
                    if res <= tol:
                        break
                else:
                    raise FixedPointDivergence(MAX_PICARD_ITERS, res, tol,
                                               contraction, step_index)

        norm_w = self.ops.l2_norm(w)
        report = StepReport(
            iters=iters,
            final_residual=res,
            l2_drift=abs(norm_w - norm_un),
            mass_drift=abs(grid.dx * float(np.sum(w[0::2] - un.coeffs[0::2]))),
            contraction=contraction,
        )
        return FemFunction(grid, w), report, norm_w


def fixed_point_step(un: FemFunction, ops: OperatorMatrices, dt: float,
                     cfg: SchemeConfig) -> tuple[FemFunction, StepReport]:
    """One Crank-Nicolson step (standalone form; factors the system itself)."""
    if dt == 0 or not math.isfinite(dt):
        raise ValueError("dt must be nonzero and finite")
    norm_un = ops.l2_norm(un.coeffs)
    return _StepOperator(ops, dt).step(un, norm_un, cfg)[:2]


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
    keep = _snapshot_indices(steps, snapshot_stride)

    snapshots = [(0, u0)]
    reports: list[StepReport] = []
    u, norm_u = u0, ops.l2_norm(u0.coeffs)
    for n in range(1, steps + 1):
        u, report, norm_u = operator.step(u, norm_u, cfg, step_index=n)
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
