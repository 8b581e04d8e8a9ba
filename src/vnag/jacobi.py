"""Jacobi-equation analysis: conjugate points and minimizer/saddle verdicts.

For the quadratic eigendirection with curvature lam the Jacobi equation of
the weighted action is

    h'' + d(t) h' + lam h = 0,       d(t) = c/t  or  alpha,

which is solved both in closed form (for c = 3 vanishing damping, the field
with h(t1) = 0, h'(t1) = 1 as a Bessel cross product, valid for every t1 > 0)
and by shooting with the chunked RK4 transfer-matrix scan.  A curve is a
local minimizer of the action iff no interior time is conjugate to t1; the
earliest conjugate time over the eigendirections decides the verdict.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .action import LagrangianSpec, second_variation
from .bessel import _j1_y1
from .dynamics import (Constant, Trajectory, Vanishing, _check_interval, _check_steps,
                       _linear_chunks, _propagate, _step_maps)
from .errors import NumericalError
from .perturbations import triangle
from .potentials import Polynomial1D, QuadraticDiagonal

_ROOT_TOL = 1e-12  # absolute bracket width; widened to a few ulps for large arguments
_REFINE_CAP = 100
_SEARCH_SPAN = 50.0  # first-conjugate search cap: t1 + 50/sqrt(lam)


def _fields_dict(report) -> dict:
    """A report dataclass as a JSON-ready dict: every field, tuples as lists."""
    return {f.name: list(v) if isinstance(v := getattr(report, f.name), tuple) else v
            for f in dataclasses.fields(report)}


@dataclass(frozen=True)
class ConjugateReport:
    """Times in (t1, t2) conjugate to t1 for one eigendirection.

    eigen_lambda is None for searches along a base path, where the
    curvature is position dependent rather than a single number.
    """

    eigen_lambda: float | None
    t1: float
    t2: float
    conjugate_times: tuple
    method: str  # "closed_form" or "shooting"

    def to_dict(self) -> dict:
        return _fields_dict(self)


@dataclass(frozen=True)
class Classification:
    """Minimizer/saddle verdict for the flow's path on [t1, t2]."""

    verdict: str  # "minimizer" | "saddle" | "at_boundary"
    t1: float
    t2: float
    eigenvalues: tuple
    first_conjugate_times: tuple  # per eigendirection; None if none found
    binding_eigenvalue: float | None

    def to_dict(self) -> dict:
        return _fields_dict(self)


# --------------------------------------------------------------------------
# closed-form Jacobi solutions


def _cross_product(s1: float):
    """w(s) = J1(s1) Y1(s) - Y1(s1) J1(s), zero at s1: with s = sqrt(beta) t,
    w(s) / t solves the Jacobi equation for damping 3/t and curvature beta,
    also where J1(s1) vanishes.  NumericalError where Y1(s1) overflows."""
    j1_s1, y1_s1 = _j1_y1(s1)

    def w(s):
        j1, y1 = _j1_y1(s)
        return j1_s1 * y1 - y1_s1 * j1

    return w


def jacobi_closed_vanishing(beta: float, t1: float, t: float) -> float:
    """Jacobi solution with h(t1) = 0, h'(t1) = 1 for damping 3/t and
    curvature beta, the field `jacobi_solution` marches, for every t1 > 0:

        h(t) = (pi t1^2 / 2) w(sqrt(beta) t) / t,   w = _cross_product(sqrt(beta) t1).

    The Wronskian J1 Y1' - J1' Y1 = 2/(pi s) (DLMF 10.5.2) gives w'(s1) =
    2/(pi s1), hence h'(t1) = 1.  t1 multiplies w first: w grows like 1/t1
    (through Y1(s1)), while t1 t1 alone underflows below t1 ~ 1e-154.
    """
    if t1 <= 0:
        raise ValueError("need t1 > 0")
    rb = math.sqrt(beta)
    return 0.5 * math.pi * t1 * (t1 * _cross_product(rb * t1)(rb * t)) / t


# --------------------------------------------------------------------------
# root refinement


def _refine(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in a sign-change bracket a < b (fa * fb < 0).

    Illinois regula falsi (Dowell & Jarratt, BIT 1971): the false-position
    point replaces the end whose value has the same sign, and an end kept
    twice in a row has its value halved, so both ends close in.  Stops once
    the bracket is narrower than 1e-12 or four ulps of max(|a|, |b|),
    whichever is wider, and returns its midpoint.
    """
    tol = max(_ROOT_TOL, 4.0 * math.ulp(max(abs(a), abs(b))))
    side = 0  # +1: a moved last, -1: b moved last
    for _ in range(_REFINE_CAP):
        if b - a <= tol:
            return 0.5 * (a + b)
        # at least tol/2 from either end, so a root next to an end closes the bracket
        c = min(max(b - fb * (b - a) / (fb - fa), a + 0.5 * tol), b - 0.5 * tol)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
    raise NumericalError(f"root refinement did not converge on [{a!r}, {b!r}]")


# --------------------------------------------------------------------------
# Bessel cross-product roots (vanishing damping, c = 3)


def _cross_product_roots(beta: float, t1: float, t_max: float):
    """Yield the roots t in (t1, t_max] of the cross product w(sqrt(beta) t),
    the zeros of `jacobi_closed_vanishing`, in order, each as the scan reaches it."""
    rb = math.sqrt(beta)
    s1 = rb * t1
    w = _cross_product(s1)
    # u = s^{3/2} h solves u'' + (1 - 3/(4 s^2)) u = 0 with 1 - 3/(4 s^2) < 1, so by
    # Sturm comparison consecutive zeros of w lie more than pi apart, and s1 is one.
    # A pi/8 cell ending below the last zero + 3 holds none: w is not evaluated there.
    ds = math.pi / 8.0
    s_end = rb * t_max
    s_a, w_a, skip = s1 + 1e-9 * max(1.0, s1), None, s1 + 3.0
    while s_a < s_end:
        s_b = min(s_a + ds, s_end)
        if s_b == s_a:
            raise NumericalError(f"root scan step below one ulp at s = {s_a}")
        if s_b < skip:
            s_a, w_a = s_b, None
            continue
        w_a = w(s_a) if w_a is None else w_a
        w_b = w(s_b)
        if w_a == 0.0 or w_a * w_b < 0.0:
            root = s_a if w_a == 0.0 else _refine(w, s_a, s_b, w_a, w_b)
            yield root / rb
            skip = root + 3.0
        s_a, w_a = s_b, w_b


# --------------------------------------------------------------------------
# RK4 shooting


def _shoot(dampf, qfn, t1: float, t2: float, n_steps: int):
    """Yield the zeros after t1 of the Jacobi field with h(t1) = 0, h'(t1) = 1,
    marched over n_steps RK4 steps to t2, in order, each as the march reaches
    it: a sign change between the nodes t1 + i h and t1 + (i + 1) h is refined
    on one partial RK4 step map from the earlier node.  Signs, not products of
    neighbours, mark a change, so a field far below 1 keeps its zeros."""
    h = (t2 - t1) / n_steps
    if t1 + h == t1:
        raise NumericalError(f"RK4 step {h} below one ulp of t1 = {t1}")
    y_end, u_end = np.zeros(1), np.ones(1)  # the state at the chunk's first node
    for i0, y, u in _linear_chunks(dampf, qfn, y_end, u_end, t1, h, n_steps):
        ys, us = np.concatenate((y_end, y[:, 0])), np.concatenate((u_end, u[:, 0]))
        for j in np.flatnonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0.0):
            t0, y0, u0 = t1 + (i0 + j) * h, ys[j], us[j]

            def h_at(tq):
                m = _step_maps(dampf, qfn, t0, tq - t0)
                return float(m[0] * y0 + m[1] * u0)

            yield float(_refine(h_at, t0, t1 + (i0 + j + 1) * h, y0, ys[j + 1]))
        y_end, u_end = ys[-1:], us[-1:]


def jacobi_solution(spec: LagrangianSpec, eigen_lambda: float, t1: float,
                    t2: float, n_steps: int = 4000):
    """Grid samples (t, h, h') of the Jacobi solution with h(t1)=0, h'(t1)=1.

    Every other solution vanishing at t1 is a scalar multiple (the equation
    is linear), so a fan of initial slopes is just this solution rescaled.
    """
    _check_interval(spec.damping, t1, t2)
    _check_steps(n_steps, 1)
    lam = float(eigen_lambda)
    ys, us = _propagate(spec.damping.coefficient, lambda t: lam, np.zeros(1), np.ones(1),
                        t1, t2, n_steps)
    return np.linspace(t1, t2, n_steps + 1), ys[:, 0], us[:, 0]


def conjugate_points_shooting(spec: LagrangianSpec, eigen_lambda: float,
                              t1: float, t2: float,
                              n_steps: int = 20000) -> ConjugateReport:
    """All times in (t1, t2) conjugate to t1, by shooting h(t1)=0, h'(t1)=1."""
    _check_interval(spec.damping, t1, t2)
    _check_steps(n_steps, 1000)
    lam = float(eigen_lambda)
    zeros = tuple(_shoot(spec.damping.coefficient, lambda t: lam, t1, t2, n_steps))
    return ConjugateReport(lam, t1, t2, zeros, "shooting")


def conjugate_points_bessel(beta: float, t1: float, t2: float) -> ConjugateReport:
    """Conjugate times for vanishing damping 3/t from the Bessel condition."""
    _check_interval(Vanishing(3.0), t1, t2)
    roots = tuple(r for r in _cross_product_roots(beta, t1, t2) if t1 < r < t2)
    return ConjugateReport(float(beta), t1, t2, roots, "closed_form")


def conjugate_points_along(base: Trajectory, pot: Polynomial1D, damping,
                           t1: float, t2: float,
                           n_steps: int = 20000) -> ConjugateReport:
    """Shooting with position-dependent curvature f''(Y(t)) along a base path.

    This is the only conjugate-point route available for non-quadratic
    potentials; the base trajectory must cover [t1, t2].
    """
    _check_interval(damping, t1, t2)
    _check_steps(n_steps, 1000)
    tol = 1e-9 * (t2 - t1)
    if t1 < base.t1 - tol or t2 > base.t2 + tol:
        raise ValueError("window outside the base trajectory")

    def curvature(t):  # f''(Y(t)): a column (m, 1) for a column of times, a float for a float
        ddf = pot.second_deriv(base._hermite(np.clip(np.ravel(t), base.t1, base.t2))[0])
        return ddf if np.ndim(t) else float(ddf[0, 0])

    zeros = tuple(_shoot(damping.coefficient, curvature, t1, t2, n_steps))
    return ConjugateReport(None, t1, t2, zeros, "shooting")


# --------------------------------------------------------------------------
# first conjugate time and classification


def first_conjugate_time(spec: LagrangianSpec, eigen_lambda: float, t1: float,
                         t_max: float | None = None) -> float | None:
    """Earliest time conjugate to t1, or None.

    Constant damping is fully analytic: none when alpha >= 2 sqrt(lam) (to 4 ulps),
    otherwise t1 + 2 pi / sqrt(4 lam - alpha^2).  Vanishing damping (c = 3)
    searches the Bessel cross-product condition up to t1 + 50/sqrt(lam)
    (a safety cap; the asymptotic oscillation guarantees a root well before
    it); other c values shoot over the same span, up to the first zero.
    """
    lam = float(eigen_lambda)
    if not 0 < lam < math.inf:
        raise ValueError("eigen_lambda must be positive and finite")
    damping = spec.damping
    cap = t1 + _SEARCH_SPAN / math.sqrt(lam)
    # the searched window: [t1, t_max], or [t1, cap] without one
    _check_interval(damping, t1, cap if t_max is None else t_max)
    if isinstance(damping, Constant):
        if damping.alpha >= 2.0 * math.sqrt(lam) * (1.0 - 4.0 * sys.float_info.epsilon):
            return None
        return t1 + 2.0 * math.pi / math.sqrt(4.0 * lam - damping.alpha ** 2)
    if t_max is not None:
        cap = max(cap, t_max)
    if damping.c == 3.0:
        return next(_cross_product_roots(lam, t1, cap), None)
    n = max(4000, int(400 * (cap - t1) * math.sqrt(lam)))
    return next(_shoot(damping.coefficient, lambda t: lam, t1, cap, n), None)


def classify(pot: QuadraticDiagonal, damping, t1: float, t2: float) -> Classification:
    """Minimizer/saddle/at-boundary verdict for the flow's path on [t1, t2].

    Each eigendirection contributes an independent conjugacy condition (the
    Jacobi system diagonalizes), and the verdict is their conjunction.  The
    Legendre factor P = w(t) is structurally positive (t^c with t > 0, or
    e^{alpha t}), so only conjugate points can break minimality.
    """
    if not isinstance(pot, QuadraticDiagonal):
        raise ValueError("classification needs a diagonal quadratic potential")
    _check_interval(damping, t1, t2)
    spec = LagrangianSpec(damping, pot)
    taus = [first_conjugate_time(spec, lam, t1, t_max=t2) for lam in pot.eigenvalues]
    # the earliest tau up to the band |tau - t2| <= 1e-9 decides: inside the
    # band at_boundary, below it saddle
    tau, lam = min(((tau, lam) for tau, lam in zip(taus, pot.eigenvalues)
                    if tau is not None and tau <= t2 + 1e-9), default=(None, None))
    return Classification(
        verdict="minimizer" if tau is None else "saddle" if tau < t2 - 1e-9 else "at_boundary",
        t1=t1,
        t2=t2,
        eigenvalues=tuple(float(v) for v in pot.eigenvalues),
        first_conjugate_times=tuple(taus),
        binding_eigenvalue=None if lam is None else float(lam),
    )


# --------------------------------------------------------------------------
# closed-form second variations for the probe families


def epsilon_star(u: float, beta: float) -> float:
    """Half-width at which the triangle-probe second variation changes sign.

    With u = beta c^2, the admissible root of the quartic numerator is
    eps^2 = (15 - 5u + sqrt(25 u^2 - 60 u + 225)) / (3 beta); the
    discriminant is positive for every u >= 0, and eps^2 decreases from
    10/beta (u = 0) to 3/beta (u -> inf).
    """
    if u < 0 or beta <= 0:
        raise ValueError("need u >= 0 and beta > 0")
    disc = math.sqrt(25.0 * u * u - 60.0 * u + 225.0)
    return math.sqrt((15.0 - 5.0 * u + disc) / (3.0 * beta))


def triangle_d2j_closed(beta: float, c: float, eps: float, sigma: float = 1.0) -> float:
    """Second variation of the ideal unit triangle on (c-eps, c+eps) under
    the t^3 weight:  -sigma^2 c (3 beta eps^4/10 + (beta c^2 - 3) eps^2
    - 3 c^2) / (3 eps)."""
    num = 3.0 * beta * eps ** 4 / 10.0 + (beta * c * c - 3.0) * eps * eps - 3.0 * c * c
    return -sigma * sigma * num * c / (3.0 * eps)


def sinusoid_d2j_closed(t1: float, t2: float, k: int, sigma: float = 1.0) -> float:
    """Second variation of sinusoid(k) for the exp(t) weight with unit
    curvature (alpha = beta = 1), in the same normalization as
    `second_variation` (the quadratic form 0.5 int (P h'^2 + Q h^2) dt):

        e^{t1} (e^T - 1) k^2 pi^2 (2 k^2 pi^2 - T^2)
        / (2 T^2 (4 k^2 pi^2 + T^2)),      T = t2 - t1.

    Negative exactly when T > sqrt(2) k pi.
    """
    _check_interval(None, t1, t2)
    if k < 1:
        raise ValueError("need k >= 1")
    span = t2 - t1
    kk = (k * math.pi) ** 2
    # e^t2 - e^t1 as e^t1 expm1(span), which keeps a short span free of
    # cancellation, while e^t1 is a normal double and the product does not
    # overflow; else as -e^t2 expm1(-span), which overflows only with e^t2
    # and keeps the digits a subnormal or zero e^t1 would lose
    try:
        e1 = math.exp(t1)
        growth = e1 * math.expm1(span) if e1 >= sys.float_info.min else None
    except OverflowError:
        growth = None
    if growth is None:
        growth = -math.exp(t2) * math.expm1(-span)
    num = growth * kk * (2.0 * kk - span * span)
    return sigma * sigma * num / (2.0 * span * span * (4.0 * kk + span * span))


def saddle_witness(beta: float, t1: float, t2: float) -> dict | None:
    """Explicit indefiniteness certificate for vanishing damping 3/t.

    Returns two centered triangle probes with second variations of opposite
    sign (small half-width positive, large negative), or None when the
    interval is too short to admit the negative-direction probe.
    NumericalError when eps* is not finite (beta c^2 overflows).
    """
    damping = Vanishing(3.0)
    _check_interval(damping, t1, t2)
    c = 0.5 * (t1 + t2)
    eps_max = 0.5 * (t2 - t1)
    star = epsilon_star(beta * c * c, beta)
    if not math.isfinite(star):
        raise NumericalError(f"epsilon* is not finite: beta={beta}, [{t1}, {t2}]")
    if star >= eps_max * (1.0 - 1e-9):
        return None
    spec = LagrangianSpec(damping, QuadraticDiagonal([beta]))
    out = {}
    for label, eps in (("small", 0.5 * min(star, eps_max)),
                       ("large", 0.5 * (star + eps_max))):
        # the corner blend must stay inside (t1, t2) when eps is close to eps_max
        h = triangle(c, eps, t1, t2, delta=min(eps / 1000.0, 0.5 * (eps_max - eps)))
        out[label] = {
            "perturbation": h.descriptor(),
            "d2j_quadrature": second_variation(spec, t1, t2, h),
            "d2j_closed_form": triangle_d2j_closed(beta, c, eps),
        }
    out["epsilon_star"] = star
    return out
