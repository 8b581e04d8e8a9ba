"""Damped second-order flows and their diagnostics.

Integrates

    X'' + d(t) X' + s(t) grad f(X) = 0

where the schedule gives the damping d and the force factor s: vanishing
damping d(t) = c/t and constant damping d(t) = alpha, both with s = 1, and
the Euclidean Bregman-Lagrangian schedule (a, b, g) with

    d(t) = e^a(t) - a'(t),    s(t) = e^(2 a(t) + b(t)).

`integrate_flow` is the one second-order integrator for all three: classical
fixed-step RK4 in phase space (X, V), on the fixed grids the quadrature and
conjugate-point code need.  Linear systems (quadratic flows in x - x*, and
Jacobi fields) chain per-direction 2x2 RK4 step maps, each entry at its
natural broadcast shape, by a buffered chunked prefix scan; one-dimensional
nonlinear flows step in Python floats (f' inlined; gradient flows call it).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .potentials import Polynomial1D, Potential, QuadraticDiagonal

_UNIFORM_RTOL = 1e-12
_CHUNK = 4096  # steps (x directions) per chunk; bounds the propagator's and _march's memory


@dataclass(frozen=True)
class Vanishing:
    """Damping coefficient c/t (default c = 3); only defined for t > 0.

    c must be finite.  c <= 0 is accepted: the weight t^c stays positive
    for t > 0, so the Legendre condition still holds.
    """

    c: float = 3.0

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")

    def coefficient(self, t):
        return self.c / t

    def force(self, t):
        return 1.0

    def weight(self, t):
        """Lagrangian time weight t^c; it may overflow to inf."""
        with np.errstate(over="ignore"):
            return np.power(t, self.c)

    def descriptor(self) -> dict:
        return {"kind": "vanishing", "c": self.c}


@dataclass(frozen=True)
class Constant:
    """Constant damping coefficient alpha >= 0."""

    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")

    def coefficient(self, t):
        """alpha at any t, a float or an array of times, as `force` gives 1.0."""
        return self.alpha

    def force(self, t):
        return 1.0

    def weight(self, t):
        """Lagrangian time weight exp(alpha * t); it may overflow to inf."""
        with np.errstate(over="ignore"):
            return np.exp(self.alpha * np.asarray(t, dtype=float))

    def descriptor(self) -> dict:
        return {"kind": "constant", "alpha": self.alpha}


DampingSchedule = Vanishing | Constant


def _uniform_step(t: np.ndarray) -> float:
    """The step of a uniform time grid; ValueError if the grid is not
    uniform.  The tolerance is on the time scale, not the step: linspace
    carries last-ulp jitter proportional to |t|."""
    d = np.diff(t)
    if not np.all(np.abs(d - d[0]) <= _UNIFORM_RTOL * max(abs(t[0]), abs(t[-1]))):
        raise ValueError("time grid is not uniform")
    return float(d[0])


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
    def step(self) -> float:
        return _uniform_step(self.t)

    def _hermite(self, times):
        """Cubic-Hermite positions (n, d) at times in range, with each time's interval
        i, its width w (n, 1) and the fraction s of it, which `sample` reuses."""
        q = np.atleast_1d(np.asarray(times, dtype=float))
        tol = 1e-12 * (self.t[-1] - self.t[0])
        if q.min() < self.t[0] - tol or q.max() > self.t[-1] + tol:
            raise ValueError("sample times outside trajectory range")
        i = np.clip(np.searchsorted(self.t, q, side="right") - 1, 0, len(self.t) - 2)
        w = (self.t[i + 1] - self.t[i])[:, None]
        s = np.clip((q - self.t[i]) / w[:, 0], 0.0, 1.0)
        s2, s3 = s * s, s * s * s
        h00, h10, h01, h11 = 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2
        xs = h00[:, None] * self.x[i] + h10[:, None] * w * self.v[i] \
            + h01[:, None] * self.x[i + 1] + h11[:, None] * w * self.v[i + 1]
        return xs, i, w, s

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Cubic-Hermite (x, v) at arbitrary times in range: `_hermite`'s x, its derivative v."""
        xs, i, w, s = self._hermite(times)
        s2 = s * s
        vs = ((6 * s2 - 6 * s)[:, None] * (self.x[i] - self.x[i + 1])) / w \
            + (3 * s2 - 4 * s + 1)[:, None] * self.v[i] + (3 * s2 - 2 * s)[:, None] * self.v[i + 1]
        return xs, vs


def _step_maps(dampf, qfn, t, h):
    """RK4 maps M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of y' = [[0, 1], [-q, -d]] y
    over [t, t + h] from a float t or a column (m, 1) of them, as M's four entries.
    d = dampf(times) and q = qfn(times), and so the entries, keep their natural
    broadcast shapes: a float, a (k,) row, an (m, 1) column or (m, k)."""
    def coef(s):
        return -qfn(s), -dampf(s)

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
    m = _CHUNK // k steps from step i0 on, y and y' (m, k) at the step ends.  Step
    maps fill one (2, 2, m, k) buffer; a Hillis-Steele scan makes it the running
    products in place, each pass two broadcast multiplies into product buffers and
    one add.  The three buffers hold 96 max(_CHUNK, k) bytes."""
    m = max(1, _CHUNK // y0.size)
    buf, prod0, prod1 = np.empty((3, 2, 2, m, y0.size))
    y, u = y0, u0
    for i0 in range(0, n_steps, m):
        n = min(m, n_steps - i0)
        p = buf[:, :, :n]
        # divergence surfaces as NaN/inf in the state, reported as NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            p[0, 0], p[0, 1], p[1, 0], p[1, 1] = _step_maps(
                dampf, qfn, (t1 + h * np.arange(i0, i0 + n))[:, None], h)
            s = 1
            while s < n:  # p[i] <- p[i] p[i - s]
                a, b = p[:, :, s:], p[:, :, :-s]
                np.multiply(a[:, 0, None], b[None, 0], out=prod0[:, :, :n - s])
                np.multiply(a[:, 1, None], b[None, 1], out=prod1[:, :, :n - s])
                np.add(prod0[:, :, :n - s], prod1[:, :, :n - s], out=a)
                s *= 2
            ys, us = p[0, 0] * y + p[0, 1] * u, p[1, 0] * y + p[1, 1] * u
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


def _check_interval(damping, t1: float, t2: float):
    """The one time-window rule: finite t1 < t2, and t1 > 0 under vanishing
    damping (c/t and the weight t^c are defined only for t > 0)."""
    if not (math.isfinite(t1) and math.isfinite(t2) and t1 < t2):
        raise ValueError(f"need finite t1 < t2, got [{t1}, {t2}]")
    if isinstance(damping, Vanishing) and t1 <= 0:
        raise ValueError("vanishing damping requires t1 > 0")


def _check_steps(n_steps, minimum: int):
    """The one step-count rule: an integer n_steps >= minimum."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) \
            or n_steps < minimum:
        raise ValueError(f"need an integer n_steps >= {minimum}, got {n_steps!r}")


def _march(pot: Polynomial1D, damping, x: float, v: float, t1: float, h: float, n_steps: int):
    """Classical RK4 in Python floats for X'' + d(t) X' + s(t) f'(X) = 0 on a Polynomial1D from
    (x, v) at t1; returns x and v, (n_steps + 1,) each, on the grid.  Per chunk of steps, d and
    s come from one array call each over the step starts, midpoints (stages 2 and 3) and ends,
    a scalar repeated; f' is inlined in grad_rows' operation order."""
    ap, q, xstar, hh, h6 = pot.a * pot.p, pot.p - 1, pot.xstar, 0.5 * h, h / 6.0
    xs, vs = np.full(n_steps + 1, x), np.full(n_steps + 1, v)  # filled chunk by chunk
    try:
        for i0 in range(0, n_steps, _CHUNK):
            t = t1 + h * np.arange(i0, min(i0 + _CHUNK, n_steps))
            path_x, path_v = [], []
            with np.errstate(over="ignore"):  # an infinite d or s surfaces in the state
                sched = [itertools.repeat(float(r), len(t)) if np.ndim(r) == 0 else r.tolist()
                         for s in (t, t + hh, t + h)
                         for r in (damping.coefficient(s), damping.force(s))]
            for d1, s1, d2, s2, d4, s4 in zip(*sched):
                b1 = -d1 * v - s1 * (ap * (x - xstar) ** q)
                a2 = v + hh * b1
                b2 = -d2 * a2 - s2 * (ap * (x + hh * v - xstar) ** q)
                a3 = v + hh * b2
                b3 = -d2 * a3 - s2 * (ap * (x + hh * a2 - xstar) ** q)
                a4 = v + h * b3
                b4 = -d4 * a4 - s4 * (ap * (x + h * a3 - xstar) ** q)
                x = x + h6 * (v + 2.0 * a2 + 2.0 * a3 + a4)
                v = v + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                path_x.append(x)
                path_v.append(v)
            xs[i0 + 1:i0 + 1 + len(t)], vs[i0 + 1:i0 + 1 + len(t)] = path_x, path_v
    except OverflowError as exc:  # float ** raises where numpy gives inf
        raise NumericalError("non-finite state encountered during integration") from exc
    # divergence that stays below OverflowError surfaces as NaN/inf in the state
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise NumericalError("non-finite state encountered during integration")
    return xs, vs


def integrate_flow(pot: Potential, damping: DampingSchedule | BregmanParams, x0, v0,
                   t1: float, t2: float, n_steps: int) -> Trajectory:
    """Integrate X'' + d(t) X' + s(t) grad f(X) = 0 from (x0, v0), with
    d = damping.coefficient and s = damping.force."""
    _check_interval(damping, t1, t2)
    _check_steps(n_steps, 2)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if v0.size != x0.size or x0.size != pot.dim:
        raise ValueError("x0/v0 dimension mismatch with potential")
    coef, force = damping.coefficient, damping.force
    t = np.linspace(t1, t2, n_steps + 1)
    if isinstance(pot, QuadraticDiagonal):
        # linear in x - x*: one 2x2 system per eigendirection
        xs, vs = _propagate(coef, lambda s: force(s) * pot.eigenvalues,
                            x0 - pot.xstar, v0, t1, t2, n_steps)
        xs += pot.xstar
        return Trajectory(t, xs, vs)
    xs, vs = _march(pot, damping, float(x0[0]), float(v0[0]), t1, (t2 - t1) / n_steps, n_steps)
    return Trajectory(t, xs, vs)


def integrate_gradient_flow(pot: Potential, x0, t1: float, t2: float,
                            n_steps: int) -> Trajectory:
    """Integrate the first-order flow X' = -grad f(X) by RK4; v holds X'."""
    _check_interval(None, t1, t2)
    _check_steps(n_steps, 2)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != pot.dim:
        raise ValueError("x0 dimension mismatch with potential")
    h = (t2 - t1) / n_steps
    if isinstance(pot, QuadraticDiagonal):
        # one RK4 step scales x - x* by R(-z), z = h lam: the quartic Taylor
        # polynomial of exp(-z)
        z = h * pot.eigenvalues
        with np.errstate(over="ignore", invalid="ignore"):
            r = 1.0 - z + z ** 2 / 2.0 - z ** 3 / 6.0 + z ** 4 / 24.0
            xs = pot.xstar + (x0 - pot.xstar) * r ** np.arange(n_steps + 1)[:, None]
    else:  # RK4 in Python floats, states stored per chunk as in _march
        x, grad, hh, h6 = float(x0[0]), pot.grad_rows, 0.5 * h, h / 6.0
        xs = np.full(n_steps + 1, x)
        try:
            for i0 in range(0, n_steps, _CHUNK):
                path = []
                for _ in range(min(_CHUNK, n_steps - i0)):
                    a1 = -grad(x)
                    a2 = -grad(x + hh * a1)
                    a3 = -grad(x + hh * a2)
                    a4 = -grad(x + h * a3)
                    x = x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                    path.append(x)
                xs[i0 + 1:i0 + 1 + len(path)] = path
        except OverflowError as exc:
            raise NumericalError("non-finite state encountered during integration") from exc
    if not np.all(np.isfinite(xs)):
        raise NumericalError("non-finite state encountered during integration")
    return Trajectory(np.linspace(t1, t2, n_steps + 1), xs, -pot.grad_rows(xs))


# --------------------------------------------------------------------------
# generalized exponential-schedule dynamics


@dataclass(frozen=True)
class TimeFunction:
    """A scalar function of time with its derivative."""

    fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]

    def value(self, t: float) -> float:
        return float(self.fn(t))

    def deriv(self, t: float) -> float:
        return float(self.deriv_fn(t))


@dataclass(frozen=True)
class BregmanParams:
    """Schedule triple (a, b, g) of the Euclidean Bregman Lagrangian.

    As a schedule for `integrate_flow` it gives the damping e^a - a' and the
    force factor e^(2a+b); g enters only the ideal-scaling conditions.  The
    TimeFunctions are evaluated point by point.  No command uses it; it is
    kept because the Bregman-Lagrangian family is the one the paper studies,
    and tests check that the vanishing-damping flow is a member of it.
    """

    alpha: TimeFunction
    beta: TimeFunction
    gamma: TimeFunction

    def coefficient(self, t):
        return _pointwise(lambda s: math.exp(self.alpha.value(s)) - self.alpha.deriv(s), t)

    def force(self, t):
        return _pointwise(lambda s: math.exp(2.0 * self.alpha.value(s) + self.beta.value(s)), t)


def _pointwise(fn: Callable[[float], float], t):
    """fn at a scalar t, or an array of fn in an array t's shape; overflow is NumericalError."""
    try:
        return fn(t) if np.ndim(t) == 0 else np.reshape([fn(s) for s in np.ravel(t)], np.shape(t))
    except OverflowError as exc:
        raise NumericalError("damping schedule overflows float64") from exc


def nesterov_recovering_params() -> BregmanParams:
    """The schedule that reproduces the c=3 vanishing-damping flow exactly.

    a(t) = log(2/t), b(t) = 2 log(t/2), g(t) = 2 log t.  Note b carries a
    -log 4 offset relative to 2 log t; the offset does not affect b'(t) (so
    the ideal-scaling equalities still hold) but it is required for the
    force term e^(2a+b) to equal one.  Kept as the paper's link between the
    Bregman family and Nesterov's flow: tests check that it meets the
    ideal-scaling conditions and reproduces that flow.
    """
    return BregmanParams(
        alpha=TimeFunction(lambda t: math.log(2.0 / t), lambda t: -1.0 / t),
        beta=TimeFunction(lambda t: 2.0 * math.log(t / 2.0), lambda t: 2.0 / t),
        gamma=TimeFunction(lambda t: 2.0 * math.log(t), lambda t: 2.0 / t),
    )


@dataclass(frozen=True)
class IdealScalingReport:
    """Result of `check_ideal_scaling`: whether the conditions hold on the
    grid, and by how much they fail at worst."""

    holds: bool
    max_violation: float


def check_ideal_scaling(params: BregmanParams, t_grid) -> IdealScalingReport:
    """Sample b'(t) <= e^a(t) and g'(t) = e^a(t) on the grid, to 1e-9.

    These ideal-scaling conditions define the Bregman-Lagrangian family
    whose stationary paths the library classifies; no command calls this,
    and tests use it to check that `nesterov_recovering_params` meets them.
    """
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        ea = math.exp(params.alpha.value(t))
        worst = max(worst, params.beta.deriv(t) - ea, abs(params.gamma.deriv(t) - ea))
    return IdealScalingReport(holds=bool(worst <= 1e-9), max_violation=float(max(worst, 0.0)))


def el_residual(traj: Trajectory, pot: Potential,
                damping: DampingSchedule | BregmanParams) -> float:
    """Max interior norm of X'' + d(t) X' + s(t) grad f(X), with X'' a
    centered difference of the stored velocities, over chunks of _CHUNK rows
    (max is exact, and a NaN in any chunk stays NaN)."""
    n = len(traj.t)
    if n < 4:
        raise ValueError("need at least 4 grid points")
    h = traj.step
    worst = []
    for i in range(1, n - 1, _CHUNK):
        j = min(i + _CHUNK, n - 1)
        acc = (traj.v[i + 1:j + 1] - traj.v[i - 1:j - 1]) / (2.0 * h)
        coef = np.reshape(damping.coefficient(traj.t[i:j]), (-1, 1))
        force = np.reshape(damping.force(traj.t[i:j]), (-1, 1))
        res = acc + coef * traj.v[i:j] + force * pot.grad_rows(traj.x[i:j])
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(res, axis=1)
            # a finite row whose squares overflow: m * |row / m|, m its largest entry
            big = np.isinf(norm) & np.isfinite(res).all(axis=1)
            m = np.max(np.abs(res[big]), axis=1, keepdims=True)
            norm[big] = m[:, 0] * np.linalg.norm(res[big] / m, axis=1)
        worst.append(np.max(norm))
    return float(np.max(worst))


def constant_damping_solution(lam: float, alpha: float, x0: float, v0: float,
                              t: np.ndarray, t0: float = 0.0) -> np.ndarray:
    """Closed-form solution of x'' + alpha x' + lam x = 0 from (x0, v0) at t0."""
    t = np.asarray(t, dtype=float) - t0
    disc = alpha * alpha - 4.0 * lam
    if abs(disc) <= 1e-12 * max(alpha * alpha, 4.0 * lam):  # critical, relative to the larger term
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
