"""Admissible displacement curves h with h(t1) = h(t2) = 0.

Three families: C^1-blended triangular bumps, sinusoids, and seeded random
Fourier-sine combinations.  All evaluate h(t) and h'(t) anywhere on
[t1, t2], know their non-smooth knot times, and scale by sigma.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _check_interval

# Corner-blend shape coefficients.  The triangle's corners are replaced on
# windows of half-width delta by quartic arcs whose slope profile preserves
# both int h' dt and int (h')^2 dt across each window; with that choice the
# blend changes the second variation only at O((delta/eps)^2) instead of
# O(delta/eps) for a plain quadratic rounding.
_Q_UP = (3.0 * math.sqrt(21.0) - 7.0) / 8.0  # rising/falling corners
_S_APEX = -2.0 * _Q_UP                       # apex


def _g_up(u):
    return 0.5 * (1.0 + u) + _Q_UP * u * (1.0 - u * u)


def _big_g_up(u):
    return u / 2 + u * u / 4 + 0.25 + _Q_UP * (u * u / 2 - u ** 4 / 4 - 0.25)


def _g_apex(u):
    return -u + _S_APEX * (u - u ** 3)


def _big_g_apex(u):
    return (1.0 - u * u) / 2 - (_S_APEX / 4.0) * (1.0 - u * u) ** 2


@dataclass(frozen=True)
class Perturbation:
    """A displacement curve vanishing at both interval endpoints.

    `component` selects the coordinate axis the (scalar) profile acts on
    when applied to multidimensional curves.  h and h' are evaluated
    together in one pass over the times (`values`).
    """

    kind: str
    t1: float
    t2: float
    sigma: float = 1.0
    component: int = 0
    params: tuple = ()
    knots: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not 0 <= self.sigma < math.inf:  # NaN fails too
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(h(t), h'(t)) from one pass over t; a triangle fills sorted t by slices."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        hv, hd = _KINDS[self.kind][0](self, t.ravel())
        return self.sigma * hv.reshape(t.shape), self.sigma * hd.reshape(t.shape)

    def _triangle(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, eps, delta = self.params
        unsorted = not np.all(t[:-1] <= t[1:])
        order = np.argsort(t, kind="stable") if unsorted else slice(None)
        ts = t[order]
        hv, hd = np.zeros(len(ts)), np.zeros(len(ts))
        inv = 1.0 / eps
        # straight pieces are closed intervals and blend windows open, so a
        # knot belongs to the straight piece beside it: the sorted times are cut
        # after a knot where a window opens (side "right"), before one where it closes
        right = np.searchsorted(ts, (c - eps - delta, c - delta, c + eps - delta), "right")
        left = np.searchsorted(ts, (c - eps + delta, c + delta, c + eps + delta), "left")
        up, ap, dn = map(slice, right, left)
        rise, fall = map(slice, left[:2], right[1:])
        hd[rise] = inv
        hd[fall] = -inv
        hv[rise] = (ts[rise] - (c - eps)) * inv
        hv[fall] = (c + eps - ts[fall]) * inv
        # the falling corner mirrors the rising one: one evaluation on both windows
        u = np.concatenate([ts[up] - (c - eps), (c + eps) - ts[dn]]) / delta
        g, big_g, k = _g_up(u) * inv, (delta * inv) * _big_g_up(u), up.stop - up.start
        hd[up], hv[up], hd[dn], hv[dn] = g[:k], big_g[:k], -g[k:], big_g[k:]
        u = (ts[ap] - c) / delta
        hd[ap] = _g_apex(u) * inv
        hv[ap] = 1.0 - delta * inv + (delta * inv) * _big_g_apex(u)
        back = np.argsort(order) if unsorted else order  # to the caller's order
        return hv[back], hd[back]

    def _sinusoid(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (k,) = self.params
        span = self.t2 - self.t1
        w = k * math.pi / span
        s = (t - self.t1) / span
        inside = (s > 0.0) & (s < 1.0)
        hv, hd = np.zeros_like(t), np.zeros_like(t)
        arg = w * (t[inside] - self.t1)
        hv[inside] = np.sin(arg)
        hd[inside] = w * np.cos(arg)
        # h' does not vanish at the endpoints; only h is clamped to 0
        hd[s <= 0.0] = w
        hd[s >= 1.0] = w * math.cos(k * math.pi)
        return hv, hd

    def _fourier(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeffs = self.params[3]
        span = self.t2 - self.t1
        s = (t - self.t1) / span
        # h' is the mode sum everywhere; h is clamped to 0 outside (t1, t2)
        acc_v, hd = np.zeros_like(t), np.zeros_like(t)
        for k, a in enumerate(coeffs, start=1):
            w = k * math.pi / span
            arg = w * (t - self.t1)
            acc_v += a * np.sin(arg)
            hd += a * (w * np.cos(arg))
        return np.where((s > 0.0) & (s < 1.0), acc_v, 0.0), hd

    # ---- derived quantities ----

    def interior_knots(self) -> tuple:
        return tuple(k for k in self.knots if self.t1 < k < self.t2)

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "t1": self.t1, "t2": self.t2,
             "sigma": self.sigma, "component": self.component}
        d.update(zip(_KINDS[self.kind][1], self.params))
        return d


# each kind's evaluator and the names of its leading params (fourier's coefficients go unnamed)
_KINDS = {"triangle": (Perturbation._triangle, ("c", "eps", "delta")),
          "sinusoid": (Perturbation._sinusoid, ("k",)),
          "fourier": (Perturbation._fourier, ("seed", "n_modes", "decay"))}


def triangle(c: float, eps: float, t1: float, t2: float,
             delta: float | None = None) -> Perturbation:
    """Unit-height triangular bump on (c-eps, c+eps), C^1 via corner blends.

    delta is the blend half-width, default eps/1000 (must be <= eps/100).
    """
    _check_interval(None, t1, t2)
    if not (t1 < c - eps and c + eps < t2):
        raise ValueError("need eps < min(c - t1, t2 - c)")
    if delta is None:
        delta = eps / 1000.0
    if not 0 < delta <= eps / 100.0:
        raise ValueError("need 0 < delta <= eps/100")
    knots = (c - eps - delta, c - eps + delta, c - delta,
             c + delta, c + eps - delta, c + eps + delta)
    return Perturbation("triangle", t1, t2, params=(c, eps, delta), knots=knots)


def sinusoid(k: int, t1: float, t2: float) -> Perturbation:
    """h(t) = sin(k pi (t - t1) / (t2 - t1)) for integer k >= 1."""
    _check_interval(None, t1, t2)
    if int(k) != k or k < 1:
        raise ValueError("k must be an integer >= 1")
    return Perturbation("sinusoid", t1, t2, params=(int(k),))


def fourier_sine(seed: int, n_modes: int, decay: float,
                 t1: float, t2: float) -> Perturbation:
    """Random admissible probe: sum_k a_k sin(k pi (t-t1)/(t2-t1)).

    Coefficients are standard normal draws from a PCG64 generator seeded by
    `seed`, scaled by k^(-decay); the same arguments always reproduce the
    same curve.
    """
    _check_interval(None, t1, t2)
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if int(n_modes) != n_modes:
        raise ValueError("n_modes must be an integer")
    if not math.isfinite(decay):
        raise ValueError("decay must be finite")
    if decay <= 0:
        raise ValueError("decay must be positive")
    rng = np.random.default_rng(int(seed))
    raw = rng.standard_normal(int(n_modes))
    coeffs = tuple(float(a) * float(k) ** (-decay)
                   for k, a in enumerate(raw, start=1))
    return Perturbation("fourier", t1, t2,
                        params=(int(seed), int(n_modes), float(decay), coeffs))


def scale(h: Perturbation, sigma: float) -> Perturbation:
    """Pointwise sigma * h; the second variation scales by sigma^2."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return dataclasses.replace(h, sigma=h.sigma * sigma)


def _check_admissible(h: Perturbation, t1: float, t2: float, dim: int, hv: np.ndarray):
    """The one admissibility rule: h lives on [t1, t2] (to 1e-9 of its
    length), acts on a coordinate below dim and vanishes at both ends (hv[0], hv[-1])."""
    tol = 1e-9 * (t2 - t1)
    if abs(h.t1 - t1) > tol or abs(h.t2 - t2) > tol:
        raise ValueError("perturbation interval does not match")
    if not 0 <= h.component < dim:
        raise ValueError(f"perturbation component {h.component} out of range "
                         f"for dimension {dim}")
    ends = np.abs(hv[[0, -1]])
    if np.any(ends > 1e-12 * max(1.0, abs(h.sigma))):
        raise ValueError("perturbation must vanish at both endpoints")


def perturb_curve(base: Trajectory, h: Perturbation) -> Trajectory:
    """Sampled base + h (values and velocities) on a grid containing h's knots.

    With a knot-free h the base grid is reused verbatim.  Otherwise the
    interval is re-gridded span by span between knots, each span uniform
    with an even interval count at roughly the base resolution, so that the
    action quadrature integrates each smooth piece at full order.
    """
    # a knot outside base's window (h then fails the window check) must not grow the grid
    inner = sorted(k for k in h.interior_knots() if base.t1 < k < base.t2)
    t = base.t
    if inner:
        bounds = [base.t1, *inner, base.t2]
        step = (base.t2 - base.t1) / (len(base.t) - 1)
        pieces = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            # 32-interval floor: the narrow blend windows hold the sharpest
            # integrand derivatives the action quadrature will see
            n = max(32, 2 * round((b - a) / (2.0 * step)))
            seg = np.linspace(a, b, n + 1)  # ends at b exactly, so each knot is on the grid
            pieces.append(seg if not pieces else seg[1:])
        t = np.concatenate(pieces)
    hv, hd = h.values(t)
    _check_admissible(h, base.t1, base.t2, base.dim, hv)
    x, v = base.sample(t) if inner else (base.x.copy(), base.v.copy())
    x[:, h.component] += hv
    v[:, h.component] += hd
    return Trajectory(t, x, v, knots=tuple(inner))
