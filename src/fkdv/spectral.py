"""Fourier pseudo-spectral backend: oracle and fine-grid reference generator.

Deliberately different from the Galerkin path in every ingredient — trigono-
metric collocation in space, integrating-factor RK4 in time — so that
agreement between the two is evidence of correctness rather than tautology.
Unlike the Galerkin solver this backend also accepts alpha = 2 (plain KdV),
which is what lets closed-form KdV solitons act as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["SpectralGrid", "spectral_reference_solve", "SpectralBlowup"]


class SpectralBlowup(RuntimeError):
    """Non-finite modes appeared during time integration."""

    def __init__(self, step: int, time: float):
        super().__init__(f"spectral solve blew up at step {step} (t = {time:.6g})")
        self.step = step
        self.time = time


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic collocation grid with m points, m a power of two."""

    left: float
    right: float
    m: int

    def __post_init__(self) -> None:
        if not self.right > self.left:
            raise ValueError("empty domain")
        if self.m < 4 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two >= 4, got {self.m}")

    @property
    def width(self) -> float:
        return self.right - self.left

    def points(self) -> np.ndarray:
        return self.left + self.width * np.arange(self.m) / self.m

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers 0 .. Nyquist of the m/2+1 rfft modes."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.m, d=self.width / self.m)


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 2.0:
        raise ValueError(f"spectral backend needs alpha in (0, 2], got {a}")
    return a


def default_spectral_dt(u0_samples: np.ndarray, grid: SpectralGrid) -> float:
    """Step size limited by the advective CFL of the dealiased band.

    The linear part is integrated exactly, so only |u| k_max constrains dt.
    """
    kmax = 2.0 * np.pi * (grid.m // 3) / grid.width
    umax = float(np.max(np.abs(u0_samples)))
    if umax == 0.0:
        return 1.0 / kmax
    return 1.0 / (kmax * umax)


# Reference solves step at this fraction of default_spectral_dt.  On frac-sin
# at m = 4096, 0.25 moves the solution by 2.1e-6 relative L2 and so the N=2048
# error E = 4.4e-5 by 1.1e-3 relative, 1e5 times the 1e-8 E gate of the pinned
# benchmark tables; 0.5 blows up at step 1149.
REFERENCE_DT_FACTOR = 0.1


def spectral_reference_solve(u0_samples: np.ndarray, alpha, t0: float,
                             t_final: float, grid: SpectralGrid) -> np.ndarray:
    """March u_t + (u^2/2)_x = D^alpha u_x from t0 to t_final; return samples.

    Integrating-factor RK4 on the m/2+1 rfft coefficients of the real field:
    the dispersion symbol i k |k|^alpha is removed exactly by unitary phase
    factors and only the dealiased (2/3-rule) quadratic term is stepped
    explicitly, on the m/3+1 modes it reads; above them a step only turns
    the modes.  The step is REFERENCE_DT_FACTOR times default_spectral_dt
    of the samples, snapped down so the steps hit t_final exactly.
    """
    a = _check_alpha(alpha)
    if not t_final > t0:
        raise ValueError("t_final must exceed t0")
    u0_samples = np.asarray(u0_samples, dtype=float)
    if u0_samples.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} samples, got {u0_samples.shape}")

    dt = REFERENCE_DT_FACTOR * default_spectral_dt(u0_samples, grid)
    span = t_final - t0
    steps = max(1, math.ceil(span / dt - 1e-9))
    dt = span / steps

    # A stage is the band view of a zero-padded buffer, the input irfft builds
    # from v[:band].  Products keep the operand order, and sums the order, of
    # v' = full v + (full k1 + 2 half (k2 + k3) + k4) / 6 over all modes; the
    # / 6 is a product by fl(1/6), as numpy's complex division by 6 forms it.
    k = grid.wavenumbers
    band = grid.m // 3 + 1
    half = np.exp(0.5 * dt * (1j * k * k ** a))
    full = half * half
    deriv = (-0.5j * k)[:band]
    half_b, full_b, twice_half_b = half[:band], full[:band], 2.0 * half[:band]
    stage, square_hat, w = np.zeros_like(half), np.empty_like(half), np.empty(grid.m)
    arg = stage[:band]
    k1, k2, k3, k4, tmp = np.empty((5, band), dtype=complex)

    def rhs(out: np.ndarray) -> None:
        np.fft.irfft(stage, grid.m, out=w)
        np.fft.rfft(np.multiply(w, w, out=w), out=square_hat)
        np.multiply(dt, np.multiply(deriv, square_hat[:band], out=out), out=out)

    v = np.fft.rfft(u0_samples)
    fv = np.empty_like(v)
    for n in range(steps):
        vb = arg[...] = v[:band]
        rhs(k1)
        np.multiply(half_b, np.add(vb, np.multiply(0.5, k1, out=tmp), out=tmp), out=arg)
        rhs(k2)
        np.add(np.multiply(half_b, vb, out=arg), np.multiply(0.5, k2, out=tmp), out=arg)
        rhs(k3)
        np.multiply(full, v, out=fv)
        np.add(fv[:band], np.multiply(half_b, k3, out=arg), out=arg)
        rhs(k4)
        np.multiply(twice_half_b, np.add(k2, k3, out=k2), out=k2)
        np.add(np.add(np.multiply(full_b, k1, out=k1), k2, out=k1), k4, out=k1)
        np.add(fv[:band], np.multiply(k1, 1.0 / 6.0, out=k1), out=fv[:band])
        v, fv = fv, v
        if not np.all(np.isfinite(v)):
            raise SpectralBlowup(n + 1, t0 + (n + 1) * dt)
    return np.fft.irfft(v, grid.m)
