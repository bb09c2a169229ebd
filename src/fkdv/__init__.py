"""Crank-Nicolson Galerkin solver for the fractional KdV equation.

The equation is u_t + (u^2/2)_x - D^alpha u_x = 0 on a periodic interval,
where D^alpha is the fractional Laplacian with Fourier symbol |xi|^alpha and
alpha lies in [1, 2).  Spatial discretisation uses periodic cubic Hermite
elements; time stepping is Crank-Nicolson with a fixed-point iteration on the
quadratic term, which conserves the discrete L2 norm up to the iteration
tolerance.
"""

__version__ = "0.1.0"
