"""Objective functions the flows and action functionals are evaluated on.

Two families are supported: diagonal convex quadratics (the workhorse for
all closed-form analysis; pre-diagonalize a general quadratic before use)
and one-dimensional even-degree monomials a*(x - xstar)**p, whose curvature
vanishes at the optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=dtype))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class QuadraticDiagonal:
    """f(x) = 0.5 * sum_i lam_i * (x_i - xstar_i)^2 with all lam_i > 0."""

    eigenvalues: np.ndarray
    xstar: np.ndarray = None  # defaults to the origin

    def __post_init__(self):
        lam = _frozen_array(self.eigenvalues)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d sequence")
        if not np.all((lam > 0) & (lam < np.inf)):
            raise ValueError("all eigenvalues must be positive and finite")
        xs = np.zeros(lam.size) if self.xstar is None else np.asarray(self.xstar, dtype=float)
        xs = _frozen_array(xs)
        if xs.shape != lam.shape:
            raise ValueError("xstar must match the eigenvalue vector length")
        if not np.all(np.isfinite(xs)):
            raise ValueError("xstar must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "xstar", xs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized value over an (n, d) array of points."""
        d = np.asarray(xs, dtype=float) - self.xstar
        return 0.5 * (d * d) @ self.eigenvalues

    def grad_rows(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized gradient over an (n, d) array of points."""
        return self.eigenvalues * (np.asarray(xs, dtype=float) - self.xstar)

    def descriptor(self) -> dict:
        return {"kind": "quadratic", "eigenvalues": self.eigenvalues.tolist(),
                "xstar": self.xstar.tolist()}


@dataclass(frozen=True)
class Polynomial1D:
    """f(x) = a * (x - xstar)^p, a > 0, even integer degree p >= 2."""

    a: float
    p: int
    xstar: float = 0.0

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("coefficient a must be positive and finite")
        if not isinstance(self.p, (int, np.integer)) or self.p < 2 or self.p % 2 != 0:
            # odd degrees are nonconvex on one side of xstar; a float p changes f's bits
            raise ValueError("degree p must be an even integer >= 2")
        if not math.isfinite(self.xstar):
            raise ValueError("xstar must be finite")

    @property
    def dim(self) -> int:
        return 1

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        d = np.asarray(xs, dtype=float).reshape(-1) - self.xstar
        return self.a * d ** self.p

    def grad_rows(self, xs):
        """f'(x); elementwise on a float or an array of points."""
        return self.a * self.p * (xs - self.xstar) ** (self.p - 1)

    def second_deriv(self, x):
        """f''(x); elementwise on an array of points."""
        return self.a * self.p * (self.p - 1) * (x - self.xstar) ** (self.p - 2)

    def descriptor(self) -> dict:
        return {"kind": "polynomial", "a": self.a, "p": self.p, "xstar": self.xstar}


Potential = QuadraticDiagonal | Polynomial1D
