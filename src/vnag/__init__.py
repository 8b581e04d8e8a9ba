"""Variational analysis of damped accelerated gradient flows.

Library surface: potentials, flow integrators, action/variation quadrature,
admissible perturbations, Bessel functions, and Jacobi conjugate-point
classification.  The `vnag` command-line tool wires these into reproducible
experiments.
"""

from .action import LagrangianSpec, action, first_variation, second_variation
from .bessel import bessel_j1, bessel_y1
from .dynamics import (Constant, DampingSchedule, Trajectory, Vanishing,
                       constant_damping_solution, el_residual, integrate_flow,
                       integrate_gradient_flow)
from .errors import ConfigError, NumericalError
from .jacobi import (Classification, ConjugateReport, classify,
                     conjugate_points_along, conjugate_points_bessel,
                     conjugate_points_shooting, epsilon_star,
                     first_conjugate_time, jacobi_closed_vanishing,
                     jacobi_solution, saddle_witness, sinusoid_d2j_closed,
                     triangle_d2j_closed)
from .perturbations import (Perturbation, fourier_sine, perturb_curve, scale,
                            sinusoid, triangle)
from .potentials import Polynomial1D, Potential, QuadraticDiagonal

__version__ = "0.1.0"

__all__ = [
    "Classification", "ConfigError", "ConjugateReport", "Constant",
    "DampingSchedule", "LagrangianSpec", "NumericalError", "Perturbation",
    "Polynomial1D", "Potential", "QuadraticDiagonal", "Trajectory",
    "Vanishing", "action", "bessel_j1", "bessel_y1", "classify",
    "conjugate_points_along", "conjugate_points_bessel",
    "conjugate_points_shooting", "constant_damping_solution", "el_residual",
    "epsilon_star", "first_conjugate_time", "first_variation",
    "fourier_sine", "integrate_flow", "integrate_gradient_flow",
    "jacobi_closed_vanishing", "jacobi_solution", "perturb_curve",
    "saddle_witness", "scale", "second_variation", "sinusoid",
    "sinusoid_d2j_closed", "triangle", "triangle_d2j_closed",
]
