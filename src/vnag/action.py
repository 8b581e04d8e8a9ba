"""Action functional and its first and second variations.

The Lagrangian family is w(t) * (0.5 |Y'|^2 - f(Y)) with time weight
w(t) = t^c (vanishing damping c/t) or exp(alpha t) (constant damping).
Quadrature is composite Simpson, split at the knot times of piecewise
perturbations so every smooth piece is integrated at full fourth order.
Every integral evaluates its integrand once over the nodes of all spans (`action`
over the curve's grid, the variations over span grids one pass builds, as np.linspace
would) and sums each span's Simpson integral over its slice (`_span_simpson`).
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


def _span_simpson(vals: np.ndarray, spans) -> float:
    """Sum of the composite-Simpson integrals of each span's slice of vals."""
    total = 0.0
    for i0, i1, step in spans:
        total += _simpson(vals[i0:i1], step)
    return total


def action(spec: LagrangianSpec, curve: Trajectory) -> float:
    """Composite-Simpson action integral along a sampled curve.

    The grid (or each knot-delimited segment of it) must be uniform with an
    even number of intervals, and each knot must be one of its interior grid times.
    """
    _check_interval(spec.damping, curve.t1, curve.t2)
    # exact: perturb_curve puts each knot on its grid (linspace ends at its stop)
    knots, last = np.unique(curve.knots), len(curve.t) - 1
    at = np.searchsorted(curve.t, knots)
    if not np.all((0 < at) & (at < last) & (curve.t[np.minimum(at, last)] == knots)):
        raise ValueError("knot time missing from the trajectory grid")
    bounds = [0, *at, last]
    spans = [(i0, i1 + 1, _uniform_step(curve.t[i0:i1 + 1]))
             for i0, i1 in zip(bounds[:-1], bounds[1:])]
    kinetic = 0.5 * np.einsum("ij,ij->i", curve.v, curve.v)
    integrand = np.asarray(spec.damping.weight(curve.t), dtype=float) \
        * (kinetic - spec.pot.value_rows(curve.x))
    return float(_span_simpson(integrand, spans))


def _span_nodes(t1: float, t2: float, inner_knots, n_steps: int):
    """Even Simpson node counts for each inter-knot span, ~n_steps total: the
    nodes of every span's grid in one array (a knot shared by two spans
    appears once in each), and each span's (start, stop, step).

    Short spans (blend windows) keep a 32-interval floor; their integrands
    carry the sharpest derivatives, so skimping there costs real accuracy.
    """
    bounds = [t1, *sorted(k for k in inner_knots if t1 < k < t2), t2]
    # per span in Python numbers, the IEEE operations of numpy's array arithmetic;
    # counts past 2^62 intervals, and the inf or nan of a span past the float range,
    # take the 32-interval floor, as 2 ceil(x) in int64 wraps below it
    n, step, stop = [], [], [0]
    for a, b in zip(bounds, bounds[1:]):
        x = n_steps * (b - a) / (t2 - t1) / 2.0
        n.append(k := max(32, 2 * math.ceil(x)) if x < 2.0 ** 62 else 32)
        step.append((b - a) / k)
        stop.append(stop[-1] + k + 1)
    # np.linspace(a, b, n + 1) for every span at once: i step + a, the last node b;
    # a step that underflows to 0 takes numpy's branch, (i / n) (b - a)
    size = np.add(n, 1)
    i = np.arange(stop[-1]) - np.repeat(stop[:-1], size)
    if 0.0 in step:
        i = np.where(np.repeat(np.equal(step, 0.0), size), i / np.repeat(n, size), i)
        step = [s or b - a for s, a, b in zip(step, bounds, bounds[1:])]
    nodes = i * np.repeat(step, size) + np.repeat(bounds[:-1], size)
    nodes[np.subtract(stop[1:], 1)] = bounds[1:]
    return nodes, [(s - k - 1, s, float(nodes[s - k] - nodes[s - k - 1]))
                   for k, s in zip(n, stop[1:])]


def _probe_nodes(spec: LagrangianSpec, t1: float, t2: float, h, n_steps: int):
    """The variations' shared prologue: check the window, n_steps and h, then
    the span nodes and spans, the weight w and (h, h') at the nodes."""
    _check_interval(spec.damping, t1, t2)
    _check_steps(n_steps, 1)
    nodes, spans = _span_nodes(t1, t2, h.interior_knots(), n_steps)
    hv, hd = h.values(nodes)
    _check_admissible(h, t1, t2, spec.pot.dim, hv)
    return nodes, spans, np.asarray(spec.damping.weight(nodes), dtype=float), hv, hd


def first_variation(spec: LagrangianSpec, curve: Trajectory, h,
                    n_steps: int = 4096) -> float:
    """delta J[Y; h] = int (L_Y . h + L_{Y'} . h') dt.

    Vanishes (to quadrature accuracy) when the curve solves the
    Euler-Lagrange equation.
    """
    nodes, spans, w, hv, hd = _probe_nodes(spec, curve.t1, curve.t2, h, n_steps)
    xs, vs = curve.sample(nodes)
    g = spec.pot.grad_rows(xs)[:, h.component]
    return float(_span_simpson(w * (vs[:, h.component] * hd - g * hv), spans))


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
    nodes, spans, w, hv, hd = _probe_nodes(spec, t1, t2, h, n_steps)
    q = _q_values(spec, w, nodes, h.component, base)
    # an overflowing weight makes d2J non-finite; callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = 0.5 * (w * hd * hd + q * hv * hv)
        return float(_span_simpson(integrand, spans))
