"""Action functional and its first and second variations.

The Lagrangian family is w(t) * (0.5 |Y'|^2 - f(Y)) with time weight
w(t) = t^c (vanishing damping c/t) or exp(alpha t) (constant damping).
Quadrature is composite Simpson, split at the knot times of piecewise
perturbations so every smooth piece is integrated at full fourth order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DampingSchedule, Trajectory, Vanishing
from .potentials import Polynomial1D, Potential, QuadraticDiagonal


@dataclass(frozen=True)
class LagrangianSpec:
    """Weight family (from the damping schedule) plus the objective.

    zero_potential drops the f term entirely (the free-motion limit),
    which is occasionally useful for analytic checks.
    """

    damping: DampingSchedule
    pot: Potential
    zero_potential: bool = False

    def weight(self, t):
        return self.damping.weight(t)

    def _f_rows(self, xs: np.ndarray) -> np.ndarray:
        if self.zero_potential:
            return np.zeros(len(xs))
        return self.pot.value_rows(xs)

    def _check_time(self, t_min: float):
        if isinstance(self.damping, Vanishing) and t_min <= 0:
            raise ValueError("vanishing-damping Lagrangian needs t > 0")

    def descriptor(self) -> dict:
        d = {"damping": self.damping.descriptor(),
             "potential": self.pot.descriptor()}
        if self.zero_potential:
            d["zero_potential"] = True
        return d


@dataclass(frozen=True)
class PQCoefficients:
    """Second-variation coefficients: P = L_{Y'Y'}, Q_i = -lam_i * w(t)."""

    p: float
    q: np.ndarray


def lagrangian(spec: LagrangianSpec, y, ydot, t: float) -> float:
    """Pointwise L(y, y', t) = w(t) (0.5 |y'|^2 - f(y))."""
    spec._check_time(t)
    ydot = np.atleast_1d(np.asarray(ydot, dtype=float))
    kinetic = 0.5 * float(np.dot(ydot, ydot))
    fval = 0.0 if spec.zero_potential else spec.pot.value(y)
    return float(spec.weight(t)) * (kinetic - fval)


def pq_coefficients(spec: LagrangianSpec, t: float) -> PQCoefficients:
    spec._check_time(t)
    if not isinstance(spec.pot, QuadraticDiagonal):
        raise ValueError("P/Q coefficients need a diagonal quadratic potential")
    w = float(spec.weight(t))
    lam = np.zeros(spec.pot.dim) if spec.zero_potential else spec.pot.eigenvalues
    return PQCoefficients(p=w, q=-lam * w)


def _simpson(vals: np.ndarray, step: float) -> float:
    """Composite Simpson over a uniform grid with an even interval count."""
    n = len(vals) - 1
    if n % 2 != 0:
        raise ValueError("composite Simpson needs an even number of intervals")
    return (step / 3.0) * (vals[0] + vals[-1]
                           + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())


def _segment_slices(traj: Trajectory):
    """Index ranges of the uniform segments delimited by the knot times."""
    if not traj.knots:
        return [(0, len(traj.t) - 1)]
    bounds = [0]
    for k in traj.knots:
        idx = int(np.argmin(np.abs(traj.t - k)))
        if abs(traj.t[idx] - k) > 1e-9:
            raise ValueError("knot time missing from the trajectory grid")
        bounds.append(idx)
    bounds.append(len(traj.t) - 1)
    return list(zip(bounds[:-1], bounds[1:]))


def action(spec: LagrangianSpec, curve: Trajectory) -> float:
    """Composite-Simpson action integral along a sampled curve.

    The grid (or each knot-delimited segment of it) must be uniform with an
    even number of intervals.
    """
    spec._check_time(curve.t1)
    total = 0.0
    for i0, i1 in _segment_slices(curve):
        t = curve.t[i0:i1 + 1]
        d = np.diff(t)
        if np.any(np.abs(d - d[0]) > 1e-12 * max(abs(t[0]), abs(t[-1]))):
            raise ValueError("segment grid is not uniform")
        kinetic = 0.5 * np.einsum("ij,ij->i", curve.v[i0:i1 + 1], curve.v[i0:i1 + 1])
        integrand = np.asarray(spec.weight(t), dtype=float) \
            * (kinetic - spec._f_rows(curve.x[i0:i1 + 1]))
        total += _simpson(integrand, float(d[0]))
    return float(total)


def _check_admissible(h, t1: float, t2: float):
    if abs(h.t1 - t1) > 1e-9 or abs(h.t2 - t2) > 1e-9:
        raise ValueError("perturbation interval does not match")
    scale = max(1.0, abs(h.sigma))
    ends = np.abs(h.value(np.array([t1, t2])))
    if np.any(ends > 1e-12 * scale):
        raise ValueError("perturbation must vanish at both endpoints")


def _span_grids(t1: float, t2: float, inner_knots, n_steps: int):
    """Even Simpson node counts for each inter-knot span, ~n_steps total.

    Short spans (blend windows) keep a 32-interval floor; their integrands
    carry the sharpest derivatives, so skimping there costs real accuracy.
    """
    bounds = [t1, *sorted(k for k in inner_knots if t1 < k < t2), t2]
    total = t2 - t1
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = max(32, 2 * math.ceil(n_steps * (b - a) / total / 2.0))
        yield np.linspace(a, b, n + 1)


def first_variation(spec: LagrangianSpec, curve: Trajectory, h,
                    n_steps: int = 4096) -> float:
    """delta J[Y; h] = int (L_Y . h + L_{Y'} . h') dt.

    Vanishes (to quadrature accuracy) when the curve solves the
    Euler-Lagrange equation.
    """
    spec._check_time(curve.t1)
    _check_admissible(h, curve.t1, curve.t2)
    comp = h.component
    total = 0.0
    for nodes in _span_grids(curve.t1, curve.t2, h.interior_knots(), n_steps):
        xs, vs = curve.sample(nodes)
        w = np.asarray(spec.weight(nodes), dtype=float)
        hv = h.value(nodes)
        hd = h.deriv(nodes)
        if spec.zero_potential:
            g = np.zeros(len(nodes))
        else:
            g = spec.pot.grad_rows(xs)[:, comp]
        integrand = w * (vs[:, comp] * hd - g * hv)
        total += _simpson(integrand, float(nodes[1] - nodes[0]))
    return float(total)


def _q_values(spec: LagrangianSpec, nodes: np.ndarray, comp: int,
              base: Trajectory | None) -> np.ndarray:
    """Q(t) = L_YY - d/dt L_YY' along the relevant eigendirection."""
    w = np.asarray(spec.weight(nodes), dtype=float)
    if spec.zero_potential:
        return np.zeros(len(nodes))
    if isinstance(spec.pot, QuadraticDiagonal):
        return -spec.pot.eigenvalues[comp] * w
    if isinstance(spec.pot, Polynomial1D):
        if base is None:
            raise ValueError("Polynomial1D second variation needs a base trajectory")
        xs, _ = base.sample(nodes)
        return -spec.pot.second_deriv(xs[:, 0]) * w
    raise ValueError("unsupported potential kind")


def second_variation(spec: LagrangianSpec, t1: float, t2: float, h,
                     n_steps: int = 4096, base: Trajectory | None = None) -> float:
    """delta^2 J[h] = 0.5 int (P h'^2 + Q h^2) dt.

    For quadratic potentials Q is independent of the base curve, so none is
    needed; Polynomial1D requires `base` to evaluate f'' along it.
    """
    spec._check_time(t1)
    _check_admissible(h, t1, t2)
    comp = h.component
    total = 0.0
    for nodes in _span_grids(t1, t2, h.interior_knots(), n_steps):
        w = np.asarray(spec.weight(nodes), dtype=float)
        q = _q_values(spec, nodes, comp, base)
        hv = h.value(nodes)
        hd = h.deriv(nodes)
        # an overflowing weight makes d2J non-finite; callers check the result
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = 0.5 * (w * hd * hd + q * hv * hv)
            total += _simpson(integrand, float(nodes[1] - nodes[0]))
    return float(total)


def second_variation_report(spec: LagrangianSpec, t1: float, t2: float, h,
                            n_steps: int = 4096,
                            base: Trajectory | None = None) -> dict:
    """JSON-ready record of one second-variation evaluation."""
    return {
        "value": second_variation(spec, t1, t2, h, n_steps=n_steps, base=base),
        "t1": t1,
        "t2": t2,
        "perturbation": h.descriptor(),
        "spec": spec.descriptor(),
    }


def _l_cross(spec: LagrangianSpec, nodes: np.ndarray) -> np.ndarray:
    # L_YY' vanishes identically for both weight families; kept as an
    # explicit term so the two second-variation forms are separate code paths.
    return np.zeros(len(nodes))


def second_variation_taylor(spec: LagrangianSpec, t1: float, t2: float, h,
                            n_steps: int = 4096) -> float:
    """Same quadratic form, pre-integration-by-parts:
    0.5 int (L_YY h^2 + 2 L_YY' h h' + L_Y'Y' h'^2) dt."""
    spec._check_time(t1)
    _check_admissible(h, t1, t2)
    comp = h.component
    total = 0.0
    for nodes in _span_grids(t1, t2, h.interior_knots(), n_steps):
        w = np.asarray(spec.weight(nodes), dtype=float)
        l_yy = _q_values(spec, nodes, comp, None)  # = -lam w = L_YY here
        cross = _l_cross(spec, nodes)
        hv = h.value(nodes)
        hd = h.deriv(nodes)
        integrand = 0.5 * (l_yy * hv * hv + 2.0 * cross * hv * hd + w * hd * hd)
        total += _simpson(integrand, float(nodes[1] - nodes[0]))
    return float(total)
