"""Closed-form reference solutions and the built-in experiment registry.

The equation family is u_t + (u^2/2)_x - D^alpha u_x = 0; alpha = 1 is the
Benjamin-Ono equation and alpha -> 2 the KdV equation, which supply the exact
solutions used for error tables.  Fractional orders in between have no printed
closed forms and are measured against fine-grid self references instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "bo_soliton",
    "kdv_one_soliton",
    "kdv_two_soliton",
    "smooth_sin_data",
    "triangle_data",
    "ExperimentSpec",
    "rebind_closed_forms",
    "builtin_experiments",
    "get_experiment",
]


def bo_soliton(x, t, c: float = 0.25, L: float = 15.0):
    """Periodic Benjamin-Ono soliton, 2L-periodic in x, (2L/c)-periodic in t.

    u = 2 c d^2 / (1 - sqrt(1-d^2) cos(c d (x - c t))), d = pi / (c L).
    The amplitude factor d^2 makes this an exact traveling wave of
    u_t + (u^2/2)_x - D^1 u_x = 0: in the Fourier series of
    1/(1 - g cos(kX)) the quadratic and dispersive terms balance only for
    amplitude 2 k sqrt(1-g^2), and the residual then vanishes to machine
    precision.  Requires d <= 1.
    """
    delta = math.pi / (c * L)
    if delta > 1.0:
        raise ValueError(f"invalid parameters: pi/(cL) = {delta} > 1")
    gamma = math.sqrt(1.0 - delta * delta)
    phase = c * delta * (np.asarray(x, dtype=float) - c * t)
    out = 2.0 * c * delta * delta / (1.0 - gamma * np.cos(phase))
    return out if np.ndim(x) else float(out)


_KDV_WIDTH = math.sqrt(3.0) / 2.0


def kdv_one_soliton(x, t):
    """KdV soliton of speed 3: u = 9 sech^2((sqrt(3)/2) (x - 3 t)).

    Amplitude 9 at x = 3t.  The width constant is sqrt(3)/2: a speed-c
    soliton of u_t + u u_x + u_xxx = 0 is 3 c sech^2(sqrt(c) (x - c t) / 2),
    here with c = 3.
    """
    xi = _KDV_WIDTH * (np.asarray(x, dtype=float) - 3.0 * t)
    out = 9.0 / np.cosh(xi) ** 2
    return out if np.ndim(x) else float(out)


# Switch between the two algebraically identical forms of the two-soliton
# expression: below this |xi_b| the csch/coth form loses digits (and is
# singular at 0); far above it sinh/cosh would overflow.
_TWO_SOLITON_SPLIT = 20.0


def kdv_two_soliton(x, t, a: float = 0.5, b: float = 1.0):
    """Two-soliton KdV solution with speeds 2a and 2b, 0 < a < b.

    u = 6 (b - a) [b csch^2(xi_b) + a sech^2(xi_a)]
        / [sqrt(a) tanh(xi_a) - sqrt(b) coth(xi_b)]^2,

    xi_a = sqrt(a/2)(x - 2 a t), xi_b = sqrt(b/2)(x - 2 b t).  The apparent
    pole at xi_b = 0 is removable; near it the expression is evaluated with
    sinh^2(xi_b) multiplied through so no intermediate diverges.
    """
    if not 0.0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    xs = np.asarray(x, dtype=float)
    xi_a = math.sqrt(a / 2.0) * (xs - 2.0 * a * t)
    xi_b = math.sqrt(b / 2.0) * (xs - 2.0 * b * t)
    out = np.empty_like(xi_b)
    near = np.abs(xi_b) < _TWO_SOLITON_SPLIT

    ta, se = np.tanh(xi_a[near]), 1.0 / np.cosh(xi_a[near])
    sh, ch = np.sinh(xi_b[near]), np.cosh(xi_b[near])
    num = b + a * (se * sh) ** 2
    den = (math.sqrt(a) * ta * sh - math.sqrt(b) * ch) ** 2
    out[near] = 6.0 * (b - a) * num / den

    far = ~near
    ta = np.tanh(xi_a[far])
    num = b / np.sinh(xi_b[far]) ** 2 + a / np.cosh(xi_a[far]) ** 2
    den = (math.sqrt(a) * ta - math.sqrt(b) / np.tanh(xi_b[far])) ** 2
    out[far] = 6.0 * (b - a) * num / den
    return out if np.ndim(x) else float(out)


def smooth_sin_data(x):
    """Smooth zero-mean initial profile 0.5 sin(x)."""
    out = 0.5 * np.sin(np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


def triangle_data(x):
    """Ramp (x+1)/2 on [-1, 1), zero elsewhere; jump discontinuity at x = 1."""
    xs = np.asarray(x, dtype=float)
    out = np.where((xs >= -1.0) & (xs < 1.0), 0.5 * (xs + 1.0), 0.0)
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class ExperimentSpec:
    """One named experiment: equation order, window, times, data, sweep.

    reference is the exact profile at t_final when a closed form exists,
    None when the run must be measured against a fine-grid reference.
    exact, when present, is that profile as a function of (x, t); it lets
    rebind_closed_forms regenerate initial/reference after the times are
    overridden, so a shortened run is still compared at the right moment.
    """

    name: str
    alpha: float
    domain: tuple[float, float]
    t0: float
    t_final: float
    sweep: tuple[int, ...]
    initial: Callable
    reference: Callable | None = None
    exact: Callable | None = None

    def __post_init__(self) -> None:
        if not self.t_final > self.t0:
            raise ValueError("t_final must exceed t0")
        if list(self.sweep) != sorted(set(self.sweep)):
            raise ValueError("sweep must be strictly increasing")


def rebind_closed_forms(spec: ExperimentSpec) -> ExperimentSpec:
    """Re-tie the time-bound callables of ``spec`` to its current t0/t_final."""
    if spec.exact is None:
        return spec
    exact, t0, tf = spec.exact, spec.t0, spec.t_final
    return replace(spec, initial=lambda x: exact(x, t0),
                   reference=lambda x: exact(x, tf))


def builtin_experiments() -> list[ExperimentSpec]:
    """The five standard experiments behind the error tables."""
    bo = ExperimentSpec(
        name="bo-one",
        alpha=1.0,
        domain=(-15.0, 15.0),
        t0=0.0,
        t_final=120.0,
        sweep=(64, 128, 256, 512, 1024),
        initial=lambda x: bo_soliton(x, 0.0),
        reference=lambda x: bo_soliton(x, 120.0),
        exact=bo_soliton,
    )
    kdv_one = ExperimentSpec(
        name="kdv-one",
        alpha=1.999,
        domain=(-15.0, 15.0),
        t0=-1.0,
        t_final=2.0,
        sweep=(32, 64, 128, 256, 512, 1024, 2048),
        initial=lambda x: kdv_one_soliton(x, -1.0),
        reference=lambda x: kdv_one_soliton(x, 2.0),
        exact=kdv_one_soliton,
    )
    kdv_two = ExperimentSpec(
        name="kdv-two",
        alpha=1.999,
        domain=(-40.0, 40.0),
        t0=-10.0,
        t_final=10.0,
        sweep=(256, 512, 1024, 2048, 4096),
        initial=lambda x: kdv_two_soliton(x, -10.0),
        reference=lambda x: kdv_two_soliton(x, 10.0),
        exact=kdv_two_soliton,
    )
    frac_sin = ExperimentSpec(
        name="frac-sin",
        alpha=1.5,
        domain=(0.0, 2.0 * math.pi),
        t0=0.0,
        t_final=1.0,
        sweep=(512, 1024, 2048, 4096, 8192, 16384),
        initial=smooth_sin_data,
        reference=None,
    )
    frac_triangle = ExperimentSpec(
        name="frac-triangle",
        alpha=1.5,
        domain=(-10.0, 10.0),
        t0=0.0,
        t_final=0.1,
        sweep=(2048, 4096, 8192, 16384, 32768),
        initial=triangle_data,
        reference=None,
    )
    return [bo, kdv_one, kdv_two, frac_sin, frac_triangle]


def get_experiment(name: str) -> ExperimentSpec:
    for spec in builtin_experiments():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in builtin_experiments())
    raise KeyError(f"unknown experiment {name!r}; known: {known}")
