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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .assembly import OperatorMatrices
from .circulant import PRODUCT_BLOCK, _invert_symbol_inplace, apply_symbol, block_symbol
from .fem import (FemFunction, Grid, mass_bands, mass_norm, mass_offset_blocks,
                  nonlinear_load)

__all__ = [
    "SchemeConfig",
    "StepReport",
    "Trajectory",
    "FixedPointDivergence",
    "choose_dt",
    "run",
    "snap_time",
]

# Picard iterations allowed per step before FixedPointDivergence.
MAX_PICARD_ITERS = 100

# A requested time within this fraction of the run's span of a step time
# reads that step's state, and of an end is taken as that end; a time further
# outside the span is rejected.
TIME_WINDOW = 1e-9


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters; the order alpha comes with the operators.

    The step is dt_value when given, dt_factor * dx when dt_factor is given,
    and the Courant step dx/||u0||_inf when neither is; giving both is an
    error.  The Picard iteration stops once a correction falls to
    tol_factor * dx * ||u_n||_L2.
    """

    dt_value: float | None = None
    dt_factor: float | None = None
    tol_factor: float = 0.002

    def __post_init__(self) -> None:
        if self.dt_value is not None and self.dt_factor is not None:
            raise ValueError("give dt_value or dt_factor, not both")
        # Negative dt is allowed: the Cayley map is time reversible.
        if self.dt_value is not None and not math.isfinite(self.dt_value or math.nan):
            raise ValueError("dt_value must be finite and nonzero")
        if self.dt_factor is not None and not 0 < self.dt_factor < math.inf:
            raise ValueError("dt_factor must be finite and positive")
        if not 0 < self.tol_factor < math.inf:
            raise ValueError("tol_factor must be finite and positive")


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
    """A completed run: the step size, the final state, profiles[t] = u(t)
    for each requested time t, and one StepReport per step."""

    dt: float
    final: FemFunction
    profiles: dict[float, FemFunction]
    reports: list[StepReport]

    @property
    def n_steps(self) -> int:
        return len(self.reports)


class FixedPointDivergence(RuntimeError):
    """Inner Picard iteration failed to reach the termination tolerance.

    Raised after MAX_PICARD_ITERS iterations or at the first non-finite
    residual; contraction is the largest finite ratio of successive
    corrections observed in the step.
    """

    def __init__(self, iters: int, residual: float, tol: float,
                 contraction: float, step: int):
        super().__init__(
            f"fixed-point iteration did not converge at step {step}: "
            f"residual {residual:.3e} after {iters} iterations (tol {tol:.3e}, "
            f"observed contraction {contraction:.3g}); reduce dt")
        self.iters = iters
        self.residual = residual
        self.tol = tol
        self.contraction = contraction
        self.step = step


def choose_dt(u0: FemFunction, cfg: SchemeConfig, t0: float, t_final: float) -> float:
    """Step by the configured rule on u0's grid, snapped down to divide the span."""
    if cfg.dt_value is not None:
        dt = float(cfg.dt_value)
    elif cfg.dt_factor is not None:
        dt = cfg.dt_factor * u0.grid.dx
    else:
        sup = u0.sup_norm()
        if sup == 0.0:
            raise ValueError("courant dt rule undefined for zero initial data")
        dt = u0.grid.dx / sup
    span = t_final - t0
    if span == 0.0 or (span > 0) != (dt > 0):
        raise ValueError("time span and step size must share a sign")
    return span / max(1, math.ceil(span / dt - 1e-9))


def _step_symbols(ops: OperatorMatrices, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(M - dt/2 D)^-1 and M + dt/2 D, read off the record with at most three
    complex (2, 2, N) arrays alive: the mass symbol's buffer becomes M + dt/2 D."""
    mass = block_symbol(mass_offset_blocks(ops.grid))
    half = block_symbol(ops.disp_blocks)
    half *= 0.5 * dt
    minus = np.subtract(mass, half)
    plus = np.add(mass, half, out=mass)
    del half    # freed before the inversion makes its temporaries
    return _invert_symbol_inplace(minus), plus


class _StepOperator:
    """What a run holds besides its states, for one (grid, alpha, dt): the
    step symbols a_inv and b_symbol, the M-norm's two mass bands and the
    arrays a step writes: a complex (2, N) FFT buffer, which is real scratch
    between applies, a product block of at most PRODUCT_BLOCK frequencies,
    the right-hand side M u_n + dt/2 D u_n and two iterates that take turns."""

    def __init__(self, grid: Grid, dt: float, a_inv: np.ndarray, b_symbol: np.ndarray):
        self.dt = dt
        self.bands = mass_bands(grid)
        self.a_inv, self.b_symbol = a_inv, b_symbol
        n = grid.n_elems
        self.fft = (np.empty((2, n), dtype=complex),
                    np.empty((2, min(n, PRODUCT_BLOCK)), dtype=complex))
        self.spare = self.fft[0].view(float)
        self.b0 = np.empty(2 * n)
        self.iterates = (np.empty(2 * n), np.empty(2 * n))

    def step(self, un: FemFunction, norm_un: float, cfg: SchemeConfig,
             step_index: int) -> tuple[FemFunction, StepReport, float]:
        """Step from un of M-norm norm_un; returns the state, report and M-norm.

        It writes only the operator's buffers, the load's blocks and the state.
        """
        grid = un.grid
        tol = cfg.tol_factor * grid.dx * norm_un
        b0 = apply_symbol(self.b_symbol, un.coeffs, self.b0, self.fft)
        correction, scratch = self.spare

        w = un.coeffs
        res = contraction = 0.0
        # Overflow only leads to a non-finite residual, which ends the step.
        with np.errstate(over="ignore", invalid="ignore"):
            for iters in range(1, MAX_PICARD_ITERS + 1):
                w_new = nonlinear_load(w, un.coeffs, self.iterates[iters % 2])
                w_new *= 0.5 * self.dt
                w_new += b0
                apply_symbol(self.a_inv, w_new, w_new, self.fft)
                prev, res = res, mass_norm(
                    np.subtract(w_new, w, out=correction), self.bands, scratch)
                # A non-finite correction can never recover; stop at once.
                if not math.isfinite(res):
                    raise FixedPointDivergence(iters, res, tol, contraction,
                                               step_index)
                if iters > 1:
                    contraction = max(contraction, res / prev)
                w = w_new
                if res <= tol:
                    break
            else:
                raise FixedPointDivergence(MAX_PICARD_ITERS, res, tol,
                                           contraction, step_index)

        norm_w = mass_norm(w, self.bands, scratch)
        moved = np.subtract(w[0::2], un.coeffs[0::2], out=correction[:grid.n_elems])
        report = StepReport(
            iters=iters,
            final_residual=res,
            l2_drift=abs(norm_w - norm_un),
            mass_drift=abs(grid.dx * float(np.sum(moved))),
            contraction=contraction,
        )
        return FemFunction(grid, w.copy()), report, norm_w


def run(u0: FemFunction, t0: float, t_final: float, ops: OperatorMatrices,
        cfg: SchemeConfig, times: Iterable[float] = ()) -> Trajectory:
    """March from t0 to t_final; profiles[t] is the state at each t in times.

    u(t) is piecewise linear between the states: (1 - theta) u^n + theta
    u^{n+1} between steps n and n+1, and a step time's profile is that state
    itself, so profiles[t_final] is final.  So a time reads at most two
    states, and the run keeps only those, u^0 too: a u0 that no time reads
    and the caller holds no name for is freed after the first step.  A time
    outside [t0, t_final] raises ValueError up front.

    One step operator, with its buffers, serves every step, so the only new
    array of size N a step makes is the state it returns.  ops is only read,
    and a record passed inline is freed once the step symbols exist.
    """
    grid = u0.grid
    if ops.grid != grid:
        raise ValueError("operator matrices assembled on a different grid")
    if t_final == t0:
        # snap_time admits only t0 itself into an empty span.
        return Trajectory(0.0, u0, {snap_time(t, t0, t0): u0 for t in times}, [])
    dt = choose_dt(u0, cfg, t0, t_final)
    steps = round((t_final - t0) / dt)
    blends = {t: _blend(t0, dt, steps, t) for t in times}
    keep = {n for _, lo, hi in blends.values() for n in (lo, hi)}
    symbols = _step_symbols(ops, dt)
    del ops     # a record passed inline goes before the buffers are made
    operator = _StepOperator(grid, dt, *symbols)

    states = {0: u0} if 0 in keep else {}
    reports: list[StepReport] = []
    u, norm_u = u0, mass_norm(u0.coeffs, operator.bands)
    del u0      # the first step's state replaces run's last name for u^0
    for n in range(1, steps + 1):
        u, report, norm_u = operator.step(u, norm_u, cfg, n)
        reports.append(report)
        if n in keep:
            states[n] = u
    profiles = {}
    for t, (theta, lo, hi) in blends.items():
        profiles[t] = states[lo] if lo == hi else FemFunction(
            grid, (1.0 - theta) * states[lo].coeffs + theta * states[hi].coeffs)
    return Trajectory(dt, u, profiles, reports)


def snap_time(t: float, t0: float, t_final: float) -> float:
    """t, moved onto t0 or t_final if within TIME_WINDOW times the span of it.

    The window absorbs the round-off of a time given as text.  A time
    further outside the span raises ValueError.
    """
    slack = TIME_WINDOW * abs(t_final - t0)
    for end in (t0, t_final):
        if abs(t - end) <= slack:
            return end
    if not min(t0, t_final) < t < max(t0, t_final):
        raise ValueError(f"t = {t} outside [{t0}, {t_final}]")
    return t


def _blend(t0: float, dt: float, steps: int, t: float):
    """(theta, lo, hi): u(t) = (1 - theta) u^lo + theta u^hi between steps,
    and lo = hi = n within TIME_WINDOW times the span of step n's time."""
    s = (snap_time(t, t0, t0 + steps * dt) - t0) / dt
    n = round(s)
    if abs(s - n) <= TIME_WINDOW * steps:
        return 0.0, n, n
    n = math.floor(s)
    return s - n, n, n + 1
