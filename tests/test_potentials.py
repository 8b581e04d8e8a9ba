import math

import numpy as np
import pytest

from vnag import Polynomial1D, QuadraticDiagonal


def _f(pot, x):
    """f at one point, through the row-vectorized value."""
    return float(pot.value_rows(np.atleast_2d(x))[0])


def test_quadratic_values():
    pot = QuadraticDiagonal([1.0])
    np.testing.assert_array_equal(pot.value_rows(np.array([[2.0], [0.0]])), [2.0, 0.0])
    pot2 = QuadraticDiagonal([1.0, 4.0])
    np.testing.assert_allclose(pot2.grad_rows(np.array([1.0, 1.0])), [1.0, 4.0])
    np.testing.assert_allclose(pot2.grad_rows(pot2.xstar), [0.0, 0.0])


def test_polynomial_values():
    pot = Polynomial1D(1.0, 4, 0.0)
    np.testing.assert_array_equal(pot.value_rows(np.array([[2.0], [0.0]])), [16.0, 0.0])
    assert pot.grad_rows(2.0) == 32.0
    assert pot.grad_rows(0.0) == 0.0
    np.testing.assert_array_equal(pot.grad_rows(np.array([[2.0], [-1.0]])), [[32.0], [-4.0]])


def test_validation():
    with pytest.raises(ValueError):
        QuadraticDiagonal([1.0, -2.0])
    with pytest.raises(ValueError):
        QuadraticDiagonal([1.0], xstar=[0.0, 0.0])
    with pytest.raises(ValueError):
        Polynomial1D(-1.0, 4)
    with pytest.raises(ValueError):
        Polynomial1D(1.0, 3)  # odd degree is nonconvex
    for lam, xstar in (([1.0, math.nan], None), ([math.inf], None), ([1.0], [math.nan])):
        with pytest.raises(ValueError):
            QuadraticDiagonal(lam, xstar=xstar)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Polynomial1D(a, 4)


def test_gradient_finite_difference():
    # |(f(x+s*h)-f(x-s*h))/(2s) - <grad f, h>| <= 1e-6 (1 + |grad||h|)
    rng = np.random.default_rng(7)
    pots = [QuadraticDiagonal([0.5, 2.0, 7.0], xstar=[1.0, -1.0, 0.5]),
            Polynomial1D(0.7, 4, 0.3)]
    for pot in pots:
        for _ in range(20):
            x = rng.normal(size=pot.dim)
            h = rng.normal(size=pot.dim)
            g = float(np.dot(pot.grad_rows(x), h))
            for s in (1e-4, 1e-5):
                fd = (_f(pot, x + s * h) - _f(pot, x - s * h)) / (2.0 * s)
                tol = 1e-6 * (1.0 + np.linalg.norm(pot.grad_rows(x)) * np.linalg.norm(h))
                assert abs(fd - g) <= tol


def test_convexity_on_samples():
    rng = np.random.default_rng(11)
    pots = [QuadraticDiagonal([0.5, 2.0], xstar=[1.0, -1.0]),
            Polynomial1D(1.3, 6, -0.2)]
    for pot in pots:
        for _ in range(100):
            x = rng.normal(size=pot.dim) * 2
            y = rng.normal(size=pot.dim) * 2
            mid = _f(pot, 0.5 * x + 0.5 * y)
            assert mid <= 0.5 * _f(pot, x) + 0.5 * _f(pot, y) + 1e-12


def test_immutability():
    pot = QuadraticDiagonal([1.0, 2.0])
    with pytest.raises(ValueError):
        pot.eigenvalues[0] = 5.0


@pytest.mark.parametrize("eigenvalues", [[[1.0, 2.0]], [[1.0], [2.0]]], ids=["row", "column"])
def test_quadratic_rejects_2d_eigenvalues(eigenvalues):
    with pytest.raises(ValueError, match="1-d"):
        QuadraticDiagonal(eigenvalues)
