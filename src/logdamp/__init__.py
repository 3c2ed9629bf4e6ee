"""Numerical verification lab for the wave equation with log damping.

The mode equation  v'' + log(1+r^2) v' + r^2 v = 0  is solved exactly in
the frequency domain; this package evaluates those modes, the radial
weight integrals that control their decay, and the L^2-level statements
(profile convergence, two-sided decay, energy dissipation) by adaptive
quadrature and exponent fitting.
"""

from .modes import InitialDataSpec
from .quadrature import QuadratureSpec, QuadratureResult, integrate

__all__ = [
    "InitialDataSpec", "QuadratureSpec", "QuadratureResult", "integrate",
]

__version__ = "0.1.0"
