"""Damped second-order flows and their diagnostics.

Integrates

    X'' + d(t) X' + grad f(X) = 0

with vanishing damping d(t) = c/t or constant damping d(t) = alpha, plus
the generalized exponential-schedule dynamics

    X'' + (e^a(t) - a'(t)) X' + e^(2 a(t) + b(t)) grad f(X) = 0

for Euclidean geometry.  All integration is classical fixed-step RK4 in
phase space (X, V); fixed grids are what the quadrature and conjugate-point
machinery downstream require.  Linear systems (quadratic flows in x - x*, and
Jacobi fields) chain per-direction 2x2 RK4 step maps by a chunked prefix
scan; nonlinear flows step sequentially.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .potentials import Potential, QuadraticDiagonal

_UNIFORM_RTOL = 1e-12
_CHUNK = 4096  # steps x directions per scan chunk; bounds the propagator's memory


@dataclass(frozen=True)
class Vanishing:
    """Damping coefficient c/t (default c = 3); only defined for t > 0."""

    c: float = 3.0

    def coefficient(self, t):
        return self.c / t

    def weight(self, t):
        """Lagrangian time weight t^c."""
        return np.power(t, self.c)

    def descriptor(self) -> dict:
        return {"kind": "vanishing", "c": self.c}


@dataclass(frozen=True)
class Constant:
    """Constant damping coefficient alpha >= 0."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    def coefficient(self, t):
        return self.alpha if np.isscalar(t) else np.full_like(np.asarray(t, float), self.alpha)

    def weight(self, t):
        """Lagrangian time weight exp(alpha * t); an array overflows to inf."""
        with np.errstate(over="ignore"):
            return np.exp(self.alpha * np.asarray(t, dtype=float)) if not np.isscalar(t) \
                else math.exp(self.alpha * t)

    def descriptor(self) -> dict:
        return {"kind": "constant", "alpha": self.alpha}


DampingSchedule = Vanishing | Constant


def damping_regime(alpha: float, beta: float, tol: float = 1e-12) -> str:
    """Classify constant damping against curvature beta.

    Returns "underdamped", "critical" (within tol of 2*sqrt(beta)) or
    "overdamped".
    """
    crit = 2.0 * math.sqrt(beta)
    if abs(alpha - crit) <= tol * max(1.0, crit):
        return "critical"
    return "underdamped" if alpha < crit else "overdamped"


@dataclass(frozen=True)
class Trajectory:
    """A sampled C^1 curve: times t, positions x (n, d), velocities v (n, d).

    Integrator output is always uniformly gridded.  Perturbed curves may be
    piecewise uniform; `knots` lists the interior times where the grid (and
    the curve's smoothness) may break.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or len(t) < 2 or x.shape != (len(t), x.shape[1]) or v.shape != x.shape:
            raise ValueError("inconsistent trajectory arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        for arr in (t, x, v):
            arr.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def t1(self) -> float:
        return float(self.t[0])

    @property
    def t2(self) -> float:
        return float(self.t[-1])

    @property
    def is_uniform(self) -> bool:
        d = np.diff(self.t)
        # tolerance on the time scale, not the step: linspace carries
        # last-ulp jitter proportional to |t|
        tol = _UNIFORM_RTOL * max(abs(self.t[0]), abs(self.t[-1]))
        return bool(np.all(np.abs(d - d[0]) <= tol))

    @property
    def step(self) -> float:
        if not self.is_uniform:
            raise ValueError("trajectory grid is not uniform")
        return float(self.t[1] - self.t[0])

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Cubic-Hermite evaluation of (x, v) at arbitrary times in range."""
        q = np.atleast_1d(np.asarray(times, dtype=float))
        if q.min() < self.t[0] - 1e-12 or q.max() > self.t[-1] + 1e-12:
            raise ValueError("sample times outside trajectory range")
        i = np.clip(np.searchsorted(self.t, q, side="right") - 1, 0, len(self.t) - 2)
        w = self.t[i + 1] - self.t[i]
        s = np.clip((q - self.t[i]) / w, 0.0, 1.0)
        s2, s3 = s * s, s * s * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        x0, x1 = self.x[i], self.x[i + 1]
        v0, v1 = self.v[i], self.v[i + 1]
        wc = w[:, None]
        xs = h00[:, None] * x0 + h10[:, None] * wc * v0 + h01[:, None] * x1 + h11[:, None] * wc * v1
        vs = ((6 * s2 - 6 * s)[:, None] * (x0 - x1)) / wc \
            + (3 * s2 - 4 * s + 1)[:, None] * v0 + (3 * s2 - 2 * s)[:, None] * v1
        return xs, vs

    def to_csv(self) -> str:
        """CSV serialization: t,x_0..x_{d-1},v_0..v_{d-1}, 17 significant digits."""
        d = self.dim
        header = ",".join(["t"] + [f"x_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)])
        lines = [header]
        for k in range(len(self.t)):
            row = [self.t[k], *self.x[k], *self.v[k]]
            lines.append(",".join(f"{val:.17g}" for val in row))
        return "\n".join(lines) + "\n"


def _rk4(rhs: Callable, y0: np.ndarray, t1: float, t2: float, n_steps: int) -> np.ndarray:
    """Classical RK4 on a first-order system; returns (n_steps+1, len(y0))."""
    h = (t2 - t1) / n_steps
    out = np.empty((n_steps + 1, len(y0)))
    y = np.array(y0, dtype=float)
    out[0] = y
    # divergence surfaces as NaN/inf in the state, reported as NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = t1 + i * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[i + 1] = y
            if not np.all(np.isfinite(y)):
                raise NumericalError("non-finite state encountered during integration")
    return out


def _step_maps(dampf, qfn, t, h):
    """RK4 maps M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of y' = [[0, 1], [-q, -d]] y
    over [t, t + h], one per start time in t (m,) and direction, as four
    (m, k) entry arrays; qfn(times) broadcasts against (m, k)."""
    def coef(s):
        return -qfn(s), -dampf(s)[:, None]

    mid = coef(t + 0.5 * h)
    k = (0.0, 1.0, *coef(t))
    ks = [k]
    for (a, b), c in ((mid, 0.5 * h), (mid, 0.5 * h), (coef(t + h), h)):
        # next K = [[0, 1], [a, b]] (I + c K)
        p00, p01, p10, p11 = 1.0 + c * k[0], c * k[1], c * k[2], 1.0 + c * k[3]
        k = (p10, p11, a * p00 + b * p10, a * p01 + b * p11)
        ks.append(k)
    c = h / 6.0
    s = [k1 + 2.0 * (k2 + k3) + k4 for k1, k2, k3, k4 in zip(*ks)]
    return [1.0 + c * s[0], c * s[1], c * s[2], 1.0 + c * s[3]]


def _linear_chunks(dampf, qfn, y0, u0, t1: float, h: float, n_steps: int):
    """March y'' = -d(t) y' - q(t) y per direction from (y, y') = (y0, u0) (k,) at
    t1 over n_steps RK4 steps of size h.  Yields (i0, y, y') per chunk of
    m = _CHUNK // k steps from step i0 on, y and y' (m, k) at the step ends;
    step maps from one pass, running products from a Hillis-Steele scan."""
    m = max(1, _CHUNK // y0.size)
    y, u = y0, u0
    for i0 in range(0, n_steps, m):
        # divergence surfaces as NaN/inf in the state, reported as NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            p = _step_maps(dampf, qfn, t1 + h * np.arange(i0, min(i0 + m, n_steps)), h)
            s = 1
            while s < len(p[0]):  # p[i] <- p[i] p[i - s]
                a, b = [e[s:] for e in p], [e[:-s] for e in p]
                a[0][:], a[1][:], a[2][:], a[3][:] = (
                    a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                    a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
                s *= 2
            ys, us = p[0] * y + p[1] * u, p[2] * y + p[3] * u
            if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(us))):
                raise NumericalError("non-finite state encountered during integration")
        y, u = ys[-1], us[-1]
        yield i0, ys, us


def _propagate(dampf, qfn, y0, u0, t1: float, t2: float, n_steps: int):
    """States (n_steps + 1, k) of `_linear_chunks` on the uniform grid over [t1, t2]."""
    ys, us = np.empty((2, n_steps + 1, y0.size))
    ys[0], us[0] = y0, u0
    for i0, y, u in _linear_chunks(dampf, qfn, y0, u0, t1, (t2 - t1) / n_steps, n_steps):
        ys[i0 + 1:i0 + 1 + len(y)], us[i0 + 1:i0 + 1 + len(y)] = y, u
    return ys, us


def _check_interval(damping, t1: float, t2: float, n_steps: int):
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    if n_steps < 2:
        raise ValueError("need n_steps >= 2")
    if isinstance(damping, Vanishing) and t1 <= 0:
        raise ValueError("vanishing damping requires t1 > 0")


def integrate_flow(pot: Potential, damping: DampingSchedule, x0, v0,
                   t1: float, t2: float, n_steps: int) -> Trajectory:
    """Integrate X'' + d(t) X' + grad f(X) = 0 from (x0, v0)."""
    _check_interval(damping, t1, t2, n_steps)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    d = x0.size
    if v0.size != d or d != pot.dim:
        raise ValueError("x0/v0 dimension mismatch with potential")
    coef = damping.coefficient
    t = np.linspace(t1, t2, n_steps + 1)
    if isinstance(pot, QuadraticDiagonal):
        # linear in x - x*: one 2x2 system per eigendirection
        xs, vs = _propagate(coef, lambda s: pot.eigenvalues, x0 - pot.xstar, v0, t1, t2, n_steps)
        xs += pot.xstar
        return Trajectory(t, xs, vs)

    def rhs(t, y):
        return np.concatenate((y[d:], -coef(t) * y[d:] - pot.grad(y[:d])))

    ys = _rk4(rhs, np.concatenate((x0, v0)), t1, t2, n_steps)
    return Trajectory(t, ys[:, :d], ys[:, d:])


def integrate_gradient_flow(pot: Potential, x0, t1: float, t2: float,
                            n_steps: int) -> Trajectory:
    """Integrate the first-order flow X' = -grad f(X); v holds X'."""
    _check_interval(None, t1, t2, n_steps)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def rhs(t, y):
        return -pot.grad(y)

    ys = _rk4(rhs, x0, t1, t2, n_steps)
    return Trajectory(np.linspace(t1, t2, n_steps + 1), ys, -pot.grad_rows(ys))


# --------------------------------------------------------------------------
# generalized exponential-schedule dynamics


@dataclass(frozen=True)
class TimeFunction:
    """A scalar function of time with (optionally analytic) derivative."""

    fn: Callable[[float], float]
    deriv_fn: Callable[[float], float] | None = None

    def value(self, t: float) -> float:
        return float(self.fn(t))

    def deriv(self, t: float, fd_step: float = 1e-6) -> float:
        if self.deriv_fn is not None:
            return float(self.deriv_fn(t))
        return (self.fn(t + fd_step) - self.fn(t - fd_step)) / (2.0 * fd_step)


@dataclass(frozen=True)
class BregmanParams:
    """Schedule triple (a, b, g) for the generalized Lagrangian dynamics.

    Only the Euclidean geometry is supported; `psi` is an interface stub and
    anything other than "euclidean" is rejected at integration time.
    """

    alpha: TimeFunction
    beta: TimeFunction
    gamma: TimeFunction
    psi: str = "euclidean"


def nesterov_recovering_params() -> BregmanParams:
    """The schedule that reproduces the c=3 vanishing-damping flow exactly.

    a(t) = log(2/t), b(t) = 2 log(t/2), g(t) = 2 log t.  Note b carries a
    -log 4 offset relative to 2 log t; the offset does not affect b'(t) (so
    the ideal-scaling equalities still hold) but it is required for the
    force term e^(2a+b) to equal one.
    """
    return BregmanParams(
        alpha=TimeFunction(lambda t: math.log(2.0 / t), lambda t: -1.0 / t),
        beta=TimeFunction(lambda t: 2.0 * math.log(t / 2.0), lambda t: 2.0 / t),
        gamma=TimeFunction(lambda t: 2.0 * math.log(t), lambda t: 2.0 / t),
    )


def integrate_bregman_flow(params: BregmanParams, pot: Potential, x0, v0,
                           t1: float, t2: float, n_steps: int) -> Trajectory:
    """Integrate X'' + (e^a - a') X' + e^(2a+b) grad f(X) = 0 (Euclidean)."""
    if params.psi != "euclidean":
        raise ValueError("only the Euclidean geometry psi is supported")
    _check_interval(None, t1, t2, n_steps)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    d = x0.size
    if v0.size != d or d != pot.dim:
        raise ValueError("x0/v0 dimension mismatch with potential")

    def rhs(t, y):
        a = params.alpha.value(t)
        damp = math.exp(a) - params.alpha.deriv(t)
        force = math.exp(2.0 * a + params.beta.value(t))
        return np.concatenate((y[d:], -damp * y[d:] - force * pot.grad(y[:d])))

    ys = _rk4(rhs, np.concatenate((x0, v0)), t1, t2, n_steps)
    return Trajectory(np.linspace(t1, t2, n_steps + 1), ys[:, :d], ys[:, d:])


@dataclass(frozen=True)
class IdealScalingReport:
    holds: bool
    max_violation: float


def check_ideal_scaling(params: BregmanParams, t_grid, tol: float = 1e-9) -> IdealScalingReport:
    """Sample b'(t) <= e^a(t) and g'(t) = e^a(t) on the grid."""
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        ea = math.exp(params.alpha.value(t))
        worst = max(worst, params.beta.deriv(t) - ea, abs(params.gamma.deriv(t) - ea))
    return IdealScalingReport(holds=bool(worst <= tol), max_violation=float(max(worst, 0.0)))


def el_residual(traj: Trajectory, pot: Potential, damping: DampingSchedule) -> float:
    """Max interior norm of X'' + d(t) X' + grad f(X), with X'' a centered
    difference of the stored velocities."""
    if len(traj.t) < 4:
        raise ValueError("need at least 4 grid points")
    h = traj.step
    acc = (traj.v[2:] - traj.v[:-2]) / (2.0 * h)
    t_in = traj.t[1:-1]
    coef = np.asarray(damping.coefficient(t_in), dtype=float)
    res = acc + coef[:, None] * traj.v[1:-1] + pot.grad_rows(traj.x[1:-1])
    return float(np.max(np.linalg.norm(res, axis=1)))


def constant_damping_solution(lam: float, alpha: float, x0: float, v0: float,
                              t: np.ndarray, t0: float = 0.0) -> np.ndarray:
    """Closed-form solution of x'' + alpha x' + lam x = 0 from (x0, v0) at t0."""
    t = np.asarray(t, dtype=float) - t0
    disc = alpha * alpha - 4.0 * lam
    if abs(disc) < 1e-12 * max(1.0, alpha * alpha):
        r = -alpha / 2.0
        c2 = v0 - r * x0
        return (x0 + c2 * t) * np.exp(r * t)
    if disc > 0:
        s = math.sqrt(disc)
        r1, r2 = (-alpha + s) / 2.0, (-alpha - s) / 2.0
        c1 = (v0 - r2 * x0) / (r1 - r2)
        c2 = x0 - c1
        return c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)
    w = math.sqrt(-disc) / 2.0
    decay = np.exp(-alpha * t / 2.0)
    c2 = (v0 + alpha * x0 / 2.0) / w
    return decay * (x0 * np.cos(w * t) + c2 * np.sin(w * t))
