"""Fourier collocation backend: multipliers, reference solves, cross-checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fkdv.spectral
from fkdv.assembly import assemble_operators
from fkdv.diagnostics import relative_error
from fkdv.fem import Grid, hermite_interpolate
from fkdv.solutions import kdv_one_soliton, smooth_sin_data, triangle_data
from fkdv.spectral import (
    SpectralBlowup,
    SpectralGrid,
    default_spectral_dt,
    spectral_reference_solve,
)
from fkdv.stepper import SchemeConfig, run
from solution_derivatives import smooth_sin_data_dx


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        SpectralGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        SpectralGrid(1.0, 1.0, 64)
    grid = SpectralGrid(-1.0, 3.0, 16)
    assert grid.width == 4.0
    assert grid.points().shape == (16,)


def test_solve_alpha_range():
    grid = SpectralGrid(0.0, 1.0, 16)
    u = np.zeros(16)
    for bad in (0.0, -1.0, 2.1):
        with pytest.raises(ValueError):
            spectral_reference_solve(u, bad, 0.0, 0.1, grid)
    spectral_reference_solve(u, 2.0, 0.0, 0.1, grid)  # alpha = 2 is allowed here


def test_parseval_between_samples_and_modes():
    grid = SpectralGrid(0.0, 2.0 * np.pi, 128)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.m)
    sample_norm = np.linalg.norm(u)
    mode_norm = np.linalg.norm(np.fft.fft(u)) / np.sqrt(grid.m)
    assert mode_norm == pytest.approx(sample_norm, rel=1e-12)


def test_default_dt_values():
    grid = SpectralGrid(0.0, 2.0 * np.pi, 64)
    kmax = 2.0 * np.pi * (64 // 3) / grid.width
    assert default_spectral_dt(np.zeros(64), grid) == pytest.approx(1.0 / kmax)
    u = 0.5 * np.sin(grid.points())
    assert default_spectral_dt(u, grid) == pytest.approx(2.0 / kmax)


def test_solve_validations():
    grid = SpectralGrid(0.0, 2.0 * np.pi, 64)
    u0 = np.zeros(64)
    with pytest.raises(ValueError):
        spectral_reference_solve(u0, 1.5, 1.0, 1.0, grid)
    with pytest.raises(ValueError):
        spectral_reference_solve(np.zeros(32), 1.5, 0.0, 1.0, grid)


def test_zero_data_stays_zero():
    grid = SpectralGrid(0.0, 2.0 * np.pi, 64)
    out = spectral_reference_solve(np.zeros(64), 1.5, 0.0, 1.0, grid)
    assert np.max(np.abs(out)) == 0.0


def _complex_fft_solve(u0_samples, a, t0, t_final, grid, dt):
    """The full-spectrum integrating-factor RK4 loop, kept as an oracle."""
    span = t_final - t0
    steps = max(1, math.ceil(span / dt - 1e-9))
    dt = span / steps

    k = 2.0 * np.pi * np.fft.fftfreq(grid.m, d=grid.width / grid.m)
    symbol = 1j * k * np.abs(k) ** a
    keep = np.abs(np.fft.fftfreq(grid.m) * grid.m) <= grid.m // 3
    half = np.exp(0.5 * dt * symbol)
    full = half * half

    def rhs(v: np.ndarray) -> np.ndarray:
        w = np.fft.ifft(np.where(keep, v, 0.0)).real
        return -0.5j * k * np.where(keep, np.fft.fft(w * w), 0.0)

    v = np.fft.fft(u0_samples)
    for n in range(steps):
        k1 = dt * rhs(v)
        k2 = dt * rhs(half * (v + 0.5 * k1))
        k3 = dt * rhs(half * v + 0.5 * k2)
        k4 = dt * rhs(full * v + half * k3)
        v = full * v + (full * k1 + 2.0 * half * (k2 + k3) + k4) / 6.0
    return np.fft.ifft(v).real


def _half_spectrum_solve(u0_samples, a, t0, t_final, grid, dt):
    """The rfft loop forming every stage over all m/2+1 modes, kept as an oracle."""
    span = t_final - t0
    steps = max(1, math.ceil(span / dt - 1e-9))
    dt = span / steps

    k = grid.wavenumbers
    band = grid.m // 3 + 1
    half = np.exp(0.5 * dt * (1j * k * k ** a))
    full = half * half
    deriv = -0.5j * k
    deriv[band:] = 0.0

    def rhs(v: np.ndarray) -> np.ndarray:
        w = np.fft.irfft(v[:band], grid.m)
        return deriv * np.fft.rfft(w * w)

    v = np.fft.rfft(u0_samples)
    for n in range(steps):
        k1 = dt * rhs(v)
        k2 = dt * rhs(half * (v + 0.5 * k1))
        k3 = dt * rhs(half * v + 0.5 * k2)
        k4 = dt * rhs(full * v + half * k3)
        v = full * v + (full * k1 + 2.0 * half * (k2 + k3) + k4) / 6.0
    return np.fft.irfft(v, grid.m)


PARITY_DATA = {
    "triangle": ((-10.0, 10.0), triangle_data),
    "kdv-soliton": ((-15.0, 15.0), lambda x: kdv_one_soliton(x, 0.0)),
    "sine": ((0.0, 2.0 * np.pi), smooth_sin_data),
}


@pytest.mark.parametrize("m", [256, 1024])
@pytest.mark.parametrize("data", sorted(PARITY_DATA))
def test_half_spectrum_solve_matches_complex_fft_oracle(data, m):
    # The field is real, so stepping its m/2+1 rfft modes is the same
    # computation as stepping all m complex modes, up to round-off.
    (left, right), initial = PARITY_DATA[data]
    grid = SpectralGrid(left, right, m)
    u0 = initial(grid.points())
    # The solver's own step: 300 of them span the run.
    dt = fkdv.spectral.REFERENCE_DT_FACTOR * default_spectral_dt(u0, grid)
    for alpha in (1.0, 1.5, 1.999, 2.0):
        got = spectral_reference_solve(u0, alpha, 0.0, 300 * dt, grid)
        want = _complex_fft_solve(u0, alpha, 0.0, 300 * dt, grid, dt)
        assert got.dtype == np.float64 and got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [16, 256, 1024])
@pytest.mark.parametrize("data", sorted(PARITY_DATA))
def test_band_stages_match_half_spectrum_oracle_bit_for_bit(data, m):
    # Above the 2/3-rule band every RK4 increment is zero, so forming the
    # stages on the band alone must not change a single bit.
    (left, right), initial = PARITY_DATA[data]
    grid = SpectralGrid(left, right, m)
    u0 = initial(grid.points())
    dt = fkdv.spectral.REFERENCE_DT_FACTOR * default_spectral_dt(u0, grid)
    for alpha in (1.0, 1.5, 1.999, 2.0):
        got = spectral_reference_solve(u0, alpha, 0.0, 300 * dt, grid)
        want = _half_spectrum_solve(u0, alpha, 0.0, 300 * dt, grid, dt)
        assert np.array_equal(got, want)


def test_blowup_is_reported(monkeypatch):
    # 200 times the reference step is 20 advective limits.
    monkeypatch.setattr(fkdv.spectral, "REFERENCE_DT_FACTOR", 20.0)
    grid = SpectralGrid(0.0, 2.0 * np.pi, 4096)
    u0 = smooth_sin_data(grid.points())
    with pytest.raises(SpectralBlowup, match="blew up") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        spectral_reference_solve(u0, 1.5, 0.0, 200.0, grid)
    # Every step is checked, so the first non-finite step is the one named.
    assert info.value.step == 8
    assert info.value.time == pytest.approx(0.234432, abs=1e-6)


def test_l2_norm_conserved_on_smooth_run():
    grid = SpectralGrid(0.0, 2.0 * np.pi, 4096)
    u0 = smooth_sin_data(grid.points())
    uT = spectral_reference_solve(u0, 1.5, 0.0, 1.0, grid)
    n0 = np.sqrt(np.mean(u0 * u0))
    nT = np.sqrt(np.mean(uT * uT))
    assert abs(nT - n0) / n0 < 1e-8


def test_advects_kdv_soliton_exactly():
    # At alpha = 2 the scheme must track the closed-form soliton through
    # one time unit to solver precision.
    grid = SpectralGrid(-15.0, 15.0, 4096)
    x = grid.points()
    u0 = kdv_one_soliton(x, 0.0)
    u1 = spectral_reference_solve(u0, 2.0, 0.0, 1.0, grid)
    want = kdv_one_soliton(x, 1.0)
    rel = np.linalg.norm(u1 - want) / np.linalg.norm(want)
    assert rel < 1e-6


def test_galerkin_run_matches_spectral_reference():
    # Independent discretisations of the same flow: Hermite Crank-Nicolson
    # at N = 512 against the collocation solve at m = 4096.
    n = 512
    grid = Grid(0.0, 2.0 * np.pi, n)
    ops = assemble_operators(grid, 1.5)
    u0 = hermite_interpolate(grid, smooth_sin_data, smooth_sin_data_dx)
    traj = run(u0, 0.0, 1.0, ops, SchemeConfig())
    sgrid = SpectralGrid(0.0, 2.0 * np.pi, 4096)
    s0 = smooth_sin_data(sgrid.points())
    ref = spectral_reference_solve(s0, 1.5, 0.0, 1.0, sgrid)
    rel = relative_error(traj.final, ref[:: 4096 // n])
    assert rel < 5e-3
