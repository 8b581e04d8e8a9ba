"""Action functional and its first and second variations.

The Lagrangian family is w(t) * (0.5 |Y'|^2 - f(Y)) with time weight
w(t) = t^c (vanishing damping c/t) or exp(alpha t) (constant damping).
Quadrature is composite Simpson, split at the knot times of piecewise
perturbations so every smooth piece is integrated at full fourth order.
The variations evaluate the weight, the curve and the probe (h and h'
together) once over the nodes of all spans, then sum each span's Simpson
integral over its slice of that one integrand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (DampingSchedule, Trajectory, _check_interval, _check_steps,
                       _uniform_step)
from .perturbations import _check_admissible
from .potentials import Polynomial1D, Potential, QuadraticDiagonal


@dataclass(frozen=True)
class LagrangianSpec:
    """Weight family (from the damping schedule) plus the objective."""

    damping: DampingSchedule
    pot: Potential

    def weight(self, t):
        return self.damping.weight(t)

    def descriptor(self) -> dict:
        return {"damping": self.damping.descriptor(),
                "potential": self.pot.descriptor()}


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
    _check_interval(spec.damping, curve.t1, curve.t2)
    total = 0.0
    for i0, i1 in _segment_slices(curve):
        t = curve.t[i0:i1 + 1]
        step = _uniform_step(t)
        kinetic = 0.5 * np.einsum("ij,ij->i", curve.v[i0:i1 + 1], curve.v[i0:i1 + 1])
        integrand = np.asarray(spec.weight(t), dtype=float) \
            * (kinetic - spec.pot.value_rows(curve.x[i0:i1 + 1]))
        total += _simpson(integrand, step)
    return float(total)


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


def _span_nodes(t1: float, t2: float, inner_knots, n_steps: int):
    """The nodes of every span's grid in one array (a knot shared by two
    spans appears once in each), and each span's (start, stop, step)."""
    grids = list(_span_grids(t1, t2, inner_knots, n_steps))
    spans, start = [], 0
    for g in grids:
        spans.append((start, start + len(g), float(g[1] - g[0])))
        start += len(g)
    return np.concatenate(grids), spans


def _span_simpson(vals: np.ndarray, spans) -> float:
    """Sum of the composite-Simpson integrals of each span's slice of vals."""
    total = 0.0
    for i0, i1, step in spans:
        total += _simpson(vals[i0:i1], step)
    return total


def first_variation(spec: LagrangianSpec, curve: Trajectory, h,
                    n_steps: int = 4096) -> float:
    """delta J[Y; h] = int (L_Y . h + L_{Y'} . h') dt.

    Vanishes (to quadrature accuracy) when the curve solves the
    Euler-Lagrange equation.
    """
    _check_interval(spec.damping, curve.t1, curve.t2)
    _check_steps(n_steps, 1)
    _check_admissible(h, curve.t1, curve.t2, spec.pot.dim)
    comp = h.component
    nodes, spans = _span_nodes(curve.t1, curve.t2, h.interior_knots(), n_steps)
    xs, vs = curve.sample(nodes)
    w = np.asarray(spec.weight(nodes), dtype=float)
    hv, hd = h._values(nodes)
    g = spec.pot.grad_rows(xs)[:, comp]
    return float(_span_simpson(w * (vs[:, comp] * hd - g * hv), spans))


def _q_values(spec: LagrangianSpec, w: np.ndarray, nodes: np.ndarray, comp: int,
              base: Trajectory | None) -> np.ndarray:
    """Q(t) = L_YY - d/dt L_YY' along the relevant eigendirection, from the
    weight w at the nodes."""
    if isinstance(spec.pot, QuadraticDiagonal):
        return -spec.pot.eigenvalues[comp] * w
    if isinstance(spec.pot, Polynomial1D):
        if base is None:
            raise ValueError("Polynomial1D second variation needs a base trajectory")
        xs = base._hermite(nodes)[0]
        return -spec.pot.second_deriv(xs[:, 0]) * w
    raise ValueError("unsupported potential kind")


def second_variation(spec: LagrangianSpec, t1: float, t2: float, h,
                     n_steps: int = 4096, base: Trajectory | None = None) -> float:
    """delta^2 J[h] = 0.5 int (P h'^2 + Q h^2) dt.

    For quadratic potentials Q is independent of the base curve, so none is
    needed; Polynomial1D requires `base` to evaluate f'' along it.
    """
    _check_interval(spec.damping, t1, t2)
    _check_steps(n_steps, 1)
    _check_admissible(h, t1, t2, spec.pot.dim)
    nodes, spans = _span_nodes(t1, t2, h.interior_knots(), n_steps)
    w = np.asarray(spec.weight(nodes), dtype=float)
    q = _q_values(spec, w, nodes, h.component, base)
    hv, hd = h._values(nodes)
    # an overflowing weight makes d2J non-finite; callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = 0.5 * (w * hd * hd + q * hv * hv)
        return float(_span_simpson(integrand, spans))

