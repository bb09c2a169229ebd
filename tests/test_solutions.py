"""Closed-form waves: equation residuals, structure, and the experiment registry."""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fkdv.solutions import (
    bo_soliton,
    builtin_experiments,
    get_experiment,
    kdv_one_soliton,
    kdv_two_soliton,
    smooth_sin_data,
    triangle_data,
)
from solution_derivatives import (
    bo_soliton_dx,
    kdv_one_soliton_dx,
    kdv_two_soliton_dx,
    smooth_sin_data_dx,
    triangle_data_dx,
)

# Crest and trough of the periodic wave at c = 1/4, L = 15: with
# d = pi/(cL), g = sqrt(1-d^2) they are 2cd^2/(1 -+ g), and their sum
# telescopes to exactly 4c = 1.
_CREST = 0.7730208164277146
_TROUGH = 0.2269791835722854


def _time_deriv(f, x, t, h=1e-4):
    return (f(x, t - 2 * h) - 8.0 * f(x, t - h)
            + 8.0 * f(x, t + h) - f(x, t + 2 * h)) / (12.0 * h)


def _third_deriv(f, x, t, h=5e-3):
    return (f(x - 3 * h, t) - 8.0 * f(x - 2 * h, t) + 13.0 * f(x - h, t)
            - 13.0 * f(x + h, t) + 8.0 * f(x + 2 * h, t)
            - f(x + 3 * h, t)) / (8.0 * h**3)


# ---------------------------------------------------------------------------
# the waves solve their equations


def test_bo_wave_satisfies_equation():
    # u_t + u u_x - d/dx D^1 u must vanish; the nonlocal term comes from the
    # Fourier multiplier i k |k| on the exactly 30-periodic profile.
    m = 2048
    x = -15.0 + 30.0 * np.arange(m) / m
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=30.0 / m)
    rng = np.random.default_rng(0)
    for t in rng.uniform(-30.0, 30.0, 5):
        u = bo_soliton(x, t)
        disp = np.fft.ifft(1j * k * np.abs(k) * np.fft.fft(u)).real
        res = _time_deriv(bo_soliton, x, t) + u * bo_soliton_dx(x, t) - disp
        assert np.max(np.abs(res[rng.integers(0, m, 4)])) < 1e-5


def test_kdv_soliton_satisfies_equation():
    rng = np.random.default_rng(1)
    for t in rng.uniform(-1.0, 2.0, 5):
        x = rng.uniform(-15.0, 15.0, 4)
        u = kdv_one_soliton(x, t)
        res = (_time_deriv(kdv_one_soliton, x, t)
               + u * kdv_one_soliton_dx(x, t)
               + _third_deriv(kdv_one_soliton, x, t))
        assert np.max(np.abs(res)) < 1e-5


def test_two_soliton_satisfies_equation():
    rng = np.random.default_rng(2)
    for t in rng.uniform(-10.0, 10.0, 5):
        x = rng.uniform(-40.0, 40.0, 4)
        u = kdv_two_soliton(x, t)
        res = (_time_deriv(kdv_two_soliton, x, t)
               + u * kdv_two_soliton_dx(x, t)
               + _third_deriv(kdv_two_soliton, x, t))
        assert np.max(np.abs(res)) < 1e-5


# ---------------------------------------------------------------------------
# periodic wave structure


def test_bo_wave_periodicities():
    x = np.linspace(-15.0, 15.0, 101)
    for t in (0.0, 7.3, -41.0):
        assert bo_soliton(x + 30.0, t) == pytest.approx(
            bo_soliton(x, t), abs=1e-12)
        assert bo_soliton(x, t + 120.0) == pytest.approx(
            bo_soliton(x, t), abs=1e-12)


def test_bo_crest_and_trough():
    assert bo_soliton(0.0, 0.0) == pytest.approx(_CREST, abs=1e-13)
    assert bo_soliton(15.0, 0.0) == pytest.approx(_TROUGH, abs=1e-13)
    # crest follows the characteristic x = c t
    t = 17.0
    assert bo_soliton(0.25 * t, t) == pytest.approx(_CREST, abs=1e-13)
    assert _CREST + _TROUGH == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(-15.0, 15.0, 4001)
    vals = bo_soliton(x, 0.0)
    assert np.max(vals) <= _CREST + 1e-12
    assert np.min(vals) >= _TROUGH - 1e-12


def test_bo_derivative_consistency():
    x = np.linspace(-15.0, 15.0, 17)
    h = 1e-6
    fd = (bo_soliton(x + h, 3.0) - bo_soliton(x - h, 3.0)) / (2.0 * h)
    assert bo_soliton_dx(x, 3.0) == pytest.approx(fd, abs=1e-8)


def test_bo_rejects_too_narrow_window():
    with pytest.raises(ValueError):
        bo_soliton(0.0, 0.0, c=0.1, L=15.0)
    with pytest.raises(ValueError):
        bo_soliton_dx(0.0, 0.0, c=0.25, L=1.0)


def test_kdv_soliton_peak_and_symmetry():
    rng = np.random.default_rng(3)
    for t in rng.uniform(-5.0, 5.0, 5):
        assert kdv_one_soliton(3.0 * t, t) == pytest.approx(9.0, abs=1e-13)
        s = rng.uniform(0.0, 5.0, 8)
        assert kdv_one_soliton(3.0 * t + s, t) == pytest.approx(
            kdv_one_soliton(3.0 * t - s, t), abs=1e-12)


def test_kdv_derivative_consistency():
    x = np.linspace(-10.0, 10.0, 17)
    h = 1e-6
    fd = (kdv_one_soliton(x + h, 0.5) - kdv_one_soliton(x - h, 0.5)) / (2.0 * h)
    assert kdv_one_soliton_dx(x, 0.5) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# two-soliton structure


def test_two_soliton_removable_point_is_finite():
    for t in (-3.0, 0.0, 4.5):
        x_sing = 2.0 * t  # where coth(xi_b) blows up (b = 1)
        center = kdv_two_soliton(x_sing, t)
        assert math.isfinite(center)
        nearby = kdv_two_soliton(x_sing + 1e-6, t)
        assert abs(center - nearby) < 1e-3


def test_two_soliton_forms_agree_at_switchover():
    # |xi_b| = 20 with b = 1 sits at x = 2t + 20 sqrt(2); the near and far
    # algebraic forms meet there and must agree to roundoff.
    t = 0.0
    x_split = 20.0 * math.sqrt(2.0)
    below = kdv_two_soliton(x_split - 1e-9, t)
    above = kdv_two_soliton(x_split + 1e-9, t)
    assert below == pytest.approx(above, rel=1e-8)


def test_two_soliton_validation():
    with pytest.raises(ValueError):
        kdv_two_soliton(0.0, 0.0, a=1.0, b=0.5)
    with pytest.raises(ValueError):
        kdv_two_soliton(0.0, 0.0, a=0.5, b=0.5)


def test_two_soliton_asymptotic_single_wave():
    # Far from the collision the fast component is a clean 6b sech^2 wave
    # centred at 2bt plus the interaction phase shift.
    a, b = 0.5, 1.0
    kappa = math.sqrt(b / 2.0)
    shift = math.log((math.sqrt(b) + math.sqrt(a))
                     / (math.sqrt(b) - math.sqrt(a))) / (2.0 * kappa)
    for t in (-50.0, 50.0):
        x = np.linspace(2.0 * t - 40.0, 2.0 * t + 40.0, 20001)
        u = kdv_two_soliton(x, t)
        i = int(np.argmax(u))
        assert u[i] == pytest.approx(6.0 * b, abs=1e-4)
        assert x[i] == pytest.approx(2.0 * t + math.copysign(shift, t),
                                     abs=1e-2)
        window = np.abs(x - x[i]) < 10.0
        profile = 6.0 * b / np.cosh(kappa * (x - x[i])) ** 2
        assert np.max(np.abs(u - profile)[window]) < 1e-2


def test_two_soliton_mass_is_conserved():
    m = 16384
    x = -40.0 + 80.0 * np.arange(m) / m
    masses = [80.0 / m * float(np.sum(kdv_two_soliton(x, t)))
              for t in (-10.0, 0.0, 10.0)]
    for value in masses[1:]:
        assert value == pytest.approx(masses[0], rel=1e-6)


def test_two_soliton_derivative_consistency():
    x = np.linspace(-30.0, 30.0, 31)
    h = 1e-5
    fd = (kdv_two_soliton(x + h, 2.0) - kdv_two_soliton(x - h, 2.0)) / (2.0 * h)
    assert kdv_two_soliton_dx(x, 2.0) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# initial-data helpers


def test_smooth_sin_profile():
    assert smooth_sin_data(np.pi / 2.0) == pytest.approx(0.5)
    assert smooth_sin_data_dx(0.0) == pytest.approx(0.5)
    x = 2.0 * np.pi * np.arange(256) / 256
    assert abs(float(np.mean(smooth_sin_data(x)))) < 1e-15


def test_triangle_profile():
    assert triangle_data(-1.0) == 0.0
    assert triangle_data(0.0) == 0.5
    assert triangle_data(1.0) == 0.0  # jump keeps the right-hand value
    assert triangle_data(0.998) == pytest.approx(0.999)
    assert triangle_data(-3.0) == 0.0
    assert triangle_data(5.0) == 0.0
    assert triangle_data_dx(0.3) == 0.5
    assert triangle_data_dx(2.0) == 0.0


def test_scalar_in_scalar_out():
    assert isinstance(bo_soliton(0.0, 0.0), float)
    assert isinstance(kdv_one_soliton(1.0, 0.0), float)
    assert isinstance(kdv_two_soliton(1.0, 0.0), float)
    assert isinstance(triangle_data(0.5), float)
    out = bo_soliton(np.zeros(3), 0.0)
    assert out.shape == (3,)


# ---------------------------------------------------------------------------
# experiment registry


def test_registry_contents():
    specs = {s.name: s for s in builtin_experiments()}
    assert set(specs) == {"bo-one", "kdv-one", "kdv-two", "frac-sin",
                          "frac-triangle"}
    assert specs["bo-one"].alpha == 1.0
    assert specs["bo-one"].domain == (-15.0, 15.0)
    assert specs["bo-one"].t_final == 120.0
    assert specs["kdv-one"].alpha == 1.999
    assert specs["kdv-two"].domain == (-40.0, 40.0)
    assert specs["frac-sin"].alpha == 1.5
    assert specs["frac-triangle"].t_final == 0.1
    for spec in specs.values():
        assert list(spec.sweep) == sorted(set(spec.sweep))
    for name in ("bo-one", "kdv-one", "kdv-two"):
        assert specs[name].reference is not None
        assert specs[name].exact is not None
    for name in ("frac-sin", "frac-triangle"):
        assert specs[name].reference is None


def test_get_experiment():
    assert get_experiment("kdv-one").alpha == 1.999
    with pytest.raises(KeyError):
        get_experiment("kdv-three")


def test_spec_validation():
    good = get_experiment("frac-sin")
    with pytest.raises(ValueError):
        replace(good, t_final=good.t0)
    with pytest.raises(ValueError):
        replace(good, sweep=(512, 512, 1024))
    with pytest.raises(ValueError):
        replace(good, sweep=(1024, 512))


@pytest.mark.parametrize("name, exact", [
    ("bo-one", bo_soliton),
    ("kdv-one", kdv_one_soliton),
    ("kdv-two", kdv_two_soliton),
])
def test_replaced_times_move_initial_and_reference(name, exact):
    spec = get_experiment(name)
    lo, hi = spec.domain
    x = np.linspace(lo, hi, 9)
    t0, tf = spec.t0 + 0.5, spec.t_final - 0.25
    moved = replace(spec, t0=t0, t_final=tf)
    assert np.array_equal(moved.initial(x), exact(x, t0))
    assert np.array_equal(moved.reference(x), exact(x, tf))
    assert np.array_equal(spec.initial(x), exact(x, spec.t0))
    assert np.array_equal(spec.reference(x), exact(x, spec.t_final))


def test_data_only_spec_has_no_reference():
    spec = get_experiment("frac-triangle")
    moved = replace(spec, t0=0.05, t_final=0.3)
    x = np.linspace(-10.0, 10.0, 9)
    assert spec.reference is None and moved.reference is None
    assert np.array_equal(moved.initial(x), triangle_data(x))


def test_spec_needs_exactly_one_of_data_and_exact():
    spec = get_experiment("frac-sin")
    with pytest.raises(ValueError):
        replace(spec, data=None)
    with pytest.raises(ValueError):
        replace(spec, exact=bo_soliton)


@pytest.mark.parametrize("spec", builtin_experiments(), ids=lambda s: s.name)
def test_builtin_specs_pickle(spec):
    lo, hi = spec.domain
    x = np.linspace(lo, hi, 17)
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec
    assert np.array_equal(again.initial(x), spec.initial(x))
    if spec.reference is None:
        assert again.reference is None
    else:
        assert np.array_equal(again.reference(x), spec.reference(x))
