"""Crank-Nicolson Galerkin solver for the fractional KdV equation.

The equation is u_t + (u^2/2)_x - D^alpha u_x = 0 on a periodic interval,
where D^alpha is the fractional Laplacian with Fourier symbol |xi|^alpha and
alpha lies in [1, 2).  Spatial discretisation uses periodic cubic Hermite
elements; time stepping is Crank-Nicolson with a fixed-point iteration on the
quadratic term, which conserves the discrete L2 norm up to the iteration
tolerance.
"""

from .assembly import (FractionalOrder, OperatorMatrices, assemble_offset_blocks,
                       assemble_operators, frac_constant, frac_laplacian_pointwise,
                       operator_identity_report)
from .diagnostics import (DiagnosticsRow, convergence_rate, hamiltonian_ratio,
                          mass_ratio, momentum_ratio, relative_error,
                          trapezoid_on_nodes)
from .fem import FemFunction, Grid, hermite_interpolate, l2_project, nonlinear_load
from .solutions import (ExperimentSpec, bo_soliton, builtin_experiments,
                        get_experiment, kdv_one_soliton, kdv_two_soliton,
                        smooth_sin_data, triangle_data)
from .spectral import SpectralBlowup, SpectralGrid, spectral_reference_solve
from .stepper import (FixedPointDivergence, SchemeConfig, StepReport,
                      Trajectory, choose_dt, interpolate_in_time, run,
                      steps_to_keep)

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsRow",
    "ExperimentSpec",
    "FemFunction",
    "FixedPointDivergence",
    "FractionalOrder",
    "Grid",
    "OperatorMatrices",
    "SchemeConfig",
    "SpectralBlowup",
    "SpectralGrid",
    "StepReport",
    "Trajectory",
    "assemble_offset_blocks",
    "assemble_operators",
    "bo_soliton",
    "builtin_experiments",
    "choose_dt",
    "convergence_rate",
    "frac_constant",
    "frac_laplacian_pointwise",
    "get_experiment",
    "hamiltonian_ratio",
    "hermite_interpolate",
    "interpolate_in_time",
    "kdv_one_soliton",
    "kdv_two_soliton",
    "l2_project",
    "mass_ratio",
    "momentum_ratio",
    "nonlinear_load",
    "operator_identity_report",
    "relative_error",
    "run",
    "smooth_sin_data",
    "spectral_reference_solve",
    "steps_to_keep",
    "trapezoid_on_nodes",
    "triangle_data",
]
