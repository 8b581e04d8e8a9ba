"""Independent references and the checkers that compare the program against them.

Nothing here imports vnag.  Every reference is either recomputed with scipy
(Bessel functions of general order, Brent root finding, adaptive quadrature,
an adaptive high-order ODE solver) or recoded from the closed forms of the
paper.  Every checker returns a list of problems; an empty list means the
program's result passed.  scipy is imported inside the functions that use it,
so it loads only when the checks run, after the timed rounds, and stays out
of peak_rss_mb.

Tolerances come from the error of the method under test, never from the
program's present output:

* Bessel route (closed form): the library documents 1e-10 relative accuracy
  for J1/Y1, which moves a simple zero of the cross product by about that
  much relative; ``BESSEL_ROOT_RTOL`` allows ten times that.
* RK4 (flows, shooting): ``rk4_error`` bounds the global error of n fixed
  steps of size h on a linear system whose matrix has spectral radius rho by
  ``SAFETY * n * (h rho)^5 / 120`` times the solution's amplitude, the sum of
  the RK4 local truncation errors, plus accumulated rounding.
* Simpson quadrature of the probe second variations: the corner blends of a
  triangle probe move d2J by O((delta/eps)^2) = 1e-6 of its terms, and
  Simpson's own error is far below that at the node counts used.
"""
from __future__ import annotations

import math

import numpy as np

SAFETY = 10.0
BESSEL_ROOT_RTOL = 1e-9
ROUNDING = 2.2e-16
BOUNDARY_BAND = 1e-9  # classify's absolute at_boundary band
TRIANGLE_BLEND_RTOL = 1e-4  # 100 * (delta/eps)^2 with the default delta = eps/1000
QUAD_RTOL = 1e-8


# --------------------------------------------------------------------------
# conjugate times for vanishing damping c/t:  h'' + (c/t) h' + lam h = 0
#
# h(t) = t^-nu (A J_nu(s) + B Y_nu(s)),  s = sqrt(lam) t,  nu = (c - 1)/2,
# and h(t1) = 0 makes its zeros those of J_nu(s1) Y_nu(s) - Y_nu(s1) J_nu(s).


def conjugate_times(c: float, lam: float, t1: float, t_max: float,
                    max_roots: int | None = None) -> list:
    """Zeros t in (t1, t_max] of the Bessel cross product, by brentq.

    The bracketing grid steps pi/16 in s; for c >= 2 consecutive zeros are
    at least pi apart in s (Sturm comparison of u = s^(nu+1/2) h with
    u'' + u = 0), so no zero is skipped.
    """
    from scipy import optimize, special
    nu = 0.5 * (c - 1.0)
    rb = math.sqrt(lam)
    s1 = rb * t1
    j1, y1 = special.jv(nu, s1), special.yv(nu, s1)

    def w(s):
        return j1 * special.yv(nu, s) - y1 * special.jv(nu, s)

    grid = np.arange(s1 + math.pi / 16.0, rb * t_max, math.pi / 16.0)
    grid = np.append(grid, rb * t_max)
    vals = w(grid)
    roots = []
    for a, b, wa, wb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if wa * wb < 0.0:
            roots.append(optimize.brentq(w, a, b, xtol=1e-15, rtol=1e-15) / rb)
            if max_roots is not None and len(roots) >= max_roots:
                break
    return roots


def first_conjugate_time(c: float, lam: float, t1: float, t2: float):
    """First conjugate time, searched up to classify's cap max(t2, t1 + 50/sqrt(lam))."""
    roots = conjugate_times(c, lam, t1, max(t2, t1 + 50.0 / math.sqrt(lam)), 1)
    return roots[0] if roots else None


def bessel_flow(c: float, lam, x0, v0, t1: float, t: np.ndarray,
                deriv: bool = False) -> np.ndarray:
    """x(t), or x'(t) with deriv=True, for x'' + (c/t) x' + lam x = 0 from
    (x0, v0) at t1.

    lam, x0, v0 may be arrays (one entry per eigendirection); returns
    shape (len(t), len(lam)).
    """
    from scipy import special
    nu = 0.5 * (c - 1.0)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), lam.shape)
    v0 = np.broadcast_to(np.asarray(v0, dtype=float), lam.shape)
    rb = np.sqrt(lam)
    s1 = rb * t1
    # x = t^-nu (A J_nu(s) + B Y_nu(s)); at t1:
    # A J + B Y = x0 t1^nu,  A J' + B Y' = (v0 + nu x0 / t1) t1^nu / sqrt(lam)
    j, y = special.jv(nu, s1), special.yv(nu, s1)
    jp, yp = special.jvp(nu, s1), special.yvp(nu, s1)
    r1 = x0 * t1 ** nu
    r2 = (v0 + nu * x0 / t1) * t1 ** nu / rb
    det = j * yp - jp * y
    a = (r1 * yp - r2 * y) / det
    b = (j * r2 - jp * r1) / det
    tt = np.asarray(t, dtype=float)[:, None]
    s = rb[None, :] * tt
    x = tt ** -nu * (a * special.jv(nu, s) + b * special.yv(nu, s))
    if not deriv:
        return x
    return -nu * x / tt + tt ** -nu * rb * (a * special.jvp(nu, s) + b * special.yvp(nu, s))


def constant_flow(alpha: float, lam, x0, v0, t1: float, t: np.ndarray) -> np.ndarray:
    """x(t) for x'' + alpha x' + lam x = 0 from (x0, v0) at t1: damped
    exponentials (alpha^2 > 4 lam) or damped sinusoids (alpha^2 < 4 lam)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), lam.shape)
    v0 = np.broadcast_to(np.asarray(v0, dtype=float), lam.shape)
    tau = np.asarray(t, dtype=float)[:, None] - t1
    out = np.empty((tau.shape[0], lam.size))
    for i, (lm, a, b) in enumerate(zip(lam, x0, v0)):
        disc = alpha * alpha - 4.0 * lm
        if disc > 0:
            g = math.sqrt(disc) / 2.0
            r1, r2 = -alpha / 2.0 + g, -alpha / 2.0 - g
            k1 = (b - r2 * a) / (r1 - r2)
            out[:, i] = k1 * np.exp(r1 * tau[:, 0]) + (a - k1) * np.exp(r2 * tau[:, 0])
        else:
            om = math.sqrt(-disc) / 2.0
            k2 = (b + alpha * a / 2.0) / om
            out[:, i] = np.exp(-alpha * tau[:, 0] / 2.0) * (
                a * np.cos(om * tau[:, 0]) + k2 * np.sin(om * tau[:, 0]))
    return out


def spectral_radius(lam: float, damping_max: float) -> float:
    """Largest |eigenvalue| of [[0, 1], [-lam, -d]] over d in [0, damping_max]."""
    d = damping_max
    disc = d * d - 4.0 * lam
    if disc >= 0:
        return (d + math.sqrt(disc)) / 2.0
    return math.sqrt(lam)


def rk4_error(n_steps: int, step: float, rho: float, amplitude: float) -> float:
    """Global error bound for n fixed RK4 steps (see the module docstring)."""
    return (SAFETY * n_steps * (step * rho) ** 5 / 120.0
            + SAFETY * n_steps * ROUNDING) * amplitude


def jacobi_unit(c: float, lam: float, t1: float, t) -> tuple:
    """(h, h') of the Jacobi solution with h(t1) = 0, h'(t1) = 1."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (bessel_flow(c, lam, 0.0, 1.0, t1, t)[:, 0],
            bessel_flow(c, lam, 0.0, 1.0, t1, t, deriv=True)[:, 0])


def shooting_root_tol(c: float, lam: float, t1: float, t2: float,
                      n_steps: int, tau: float) -> float:
    """Error bound on a shooting conjugate time near tau: the RK4 bound on h
    divided by |h'(tau)|, plus the 1e-12 refinement tolerance."""
    grid = np.linspace(t1, t2, 2001)
    h, _ = jacobi_unit(c, lam, t1, grid)
    _, hp_tau = jacobi_unit(c, lam, t1, tau)
    rho = spectral_radius(lam, c / t1)
    err_h = rk4_error(n_steps, (t2 - t1) / n_steps, rho, float(np.max(np.abs(h))))
    return err_h / abs(float(hp_tau[0])) + 1e-11 * max(1.0, tau)


# --------------------------------------------------------------------------
# x^4 along its own flow: coupled flow + Jacobi system by DOP853


def quartic_conjugate_times(x0: float, t0: float, w0: float, t_cap: float) -> tuple:
    """Zeros of h in (w0, t_cap) for h'' + (3/t) h' + f''(X) h = 0, h(w0) = 0,
    h'(w0) = 1, along X'' + (3/t) X' + f'(X) = 0, f = x^4, X(t0) = x0,
    X'(t0) = 0.  Returns (zeros, |h'| at each zero, max |h| on the window)."""
    from scipy import integrate

    def flow(t, y):
        return [y[1], -3.0 / t * y[1] - 4.0 * y[0] ** 3]

    tol = dict(method="DOP853", rtol=1e-12, atol=1e-14)
    pre = integrate.solve_ivp(flow, (t0, w0), [x0, 0.0], **tol)
    xw, vw = pre.y[0, -1], pre.y[1, -1]

    def coupled(t, y):
        return [y[1], -3.0 / t * y[1] - 4.0 * y[0] ** 3,
                y[3], -3.0 / t * y[3] - 12.0 * y[0] ** 2 * y[2]]

    def h_zero(t, y):
        return y[2]

    sol = integrate.solve_ivp(coupled, (w0, t_cap), [xw, vw, 0.0, 1.0],
                              events=h_zero, dense_output=True, **tol)
    keep = [i for i, t in enumerate(sol.t_events[0]) if t > w0 * (1 + 1e-9) + 1e-12]
    zeros = [float(sol.t_events[0][i]) for i in keep]
    slopes = [abs(float(sol.y_events[0][i][3])) for i in keep]
    h_max = float(np.max(np.abs(sol.sol(np.linspace(w0, t_cap, 4001))[2])))
    return zeros, slopes, h_max


# --------------------------------------------------------------------------
# second variations: 0.5 int (w h'^2 - lam w h^2) dt


def triangle_d2j(beta: float, c: float, eps: float) -> tuple:
    """(value, scale) of d2J for the ideal triangle on (c-eps, c+eps) under
    the t^3 weight; scale is the same sum with every term taken positive."""
    terms = (3.0 * beta * eps ** 4 / 10.0, (beta * c * c - 3.0) * eps * eps, -3.0 * c * c)
    k = c / (3.0 * eps)
    return -k * sum(terms), k * sum(abs(x) for x in terms)


def sinusoid_d2j(t1: float, t2: float, k: int) -> float:
    """d2J of sin(k pi (t-t1)/T) for the exp(t) weight and unit curvature."""
    span = t2 - t1
    kk = (k * math.pi) ** 2
    return (math.exp(t1) * math.expm1(span) * kk * (2.0 * kk - span * span)
            / (2.0 * span * span * (4.0 * kk + span * span)))


def epsilon_star(beta: float, c: float) -> float:
    """Positive root in eps of the triangle d2J numerator."""
    u = beta * c * c
    return math.sqrt((15.0 - 5.0 * u + math.sqrt(25.0 * u * u - 60.0 * u + 225.0))
                     / (3.0 * beta))


def fourier_coeffs(seed: int, n_modes: int, decay: float) -> np.ndarray:
    """The documented probe: standard normal PCG64 draws scaled by k^-decay."""
    raw = np.random.default_rng(int(seed)).standard_normal(int(n_modes))
    return raw * np.arange(1, n_modes + 1, dtype=float) ** (-decay)


def quad_d2j(weight, lam: float, h, hd, t1: float, t2: float) -> tuple:
    """(value, scale) of 0.5 int w (h'^2 - lam h^2) by adaptive quadrature."""
    from scipy import integrate
    kw = dict(limit=400, epsabs=0.0, epsrel=1e-13)
    p = integrate.quad(lambda t: weight(t) * hd(t) ** 2, t1, t2, **kw)[0]
    q = integrate.quad(lambda t: weight(t) * h(t) ** 2, t1, t2, **kw)[0]
    return 0.5 * (p - lam * q), 0.5 * (p + lam * q)


def fourier_d2j(weight, lam: float, coeffs, t1: float, t2: float) -> tuple:
    span = t2 - t1
    ks = np.arange(1, len(coeffs) + 1) * math.pi / span

    def h(t):
        return float(np.dot(coeffs, np.sin(ks * (t - t1))))

    def hd(t):
        return float(np.dot(coeffs * ks, np.cos(ks * (t - t1))))

    return quad_d2j(weight, lam, h, hd, t1, t2)


# --------------------------------------------------------------------------
# checkers


def check_close(label: str, got, want, tol: float) -> list:
    """Absolute comparison of two arrays (or numbers) within tol."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        return [f"{label}: max error {err:.3e} > tolerance {tol:.3e}"]
    return []


def check_roots(label: str, got, want, tols) -> list:
    """Same number of roots, each within its tolerance."""
    got = list(got)
    if len(got) != len(want):
        return [f"{label}: {len(got)} roots, reference has {len(want)}"]
    out = []
    for i, (g, w, tol) in enumerate(zip(got, want, tols)):
        if not abs(g - w) <= tol:
            out.append(f"{label}: root {i} = {g!r}, reference {w!r} (tol {tol:.1e})")
    return out


def expected_verdict(taus, lams, t2: float) -> tuple:
    """Verdict and binding eigenvalue recomputed from reference conjugate times,
    with classify's rule: saddle if some tau < t2 - band, at_boundary if some
    |tau - t2| <= band, else minimizer."""
    inside = [(tau, lam) for tau, lam in zip(taus, lams)
              if tau is not None and tau < t2 - BOUNDARY_BAND]
    boundary = [(tau, lam) for tau, lam in zip(taus, lams)
                if tau is not None and abs(tau - t2) <= BOUNDARY_BAND]
    if inside:
        return "saddle", float(min(inside)[1])
    if boundary:
        return "at_boundary", float(min(boundary)[1])
    return "minimizer", None


def check_classification(label: str, cls: dict, c: float, lams, t1: float,
                         t2: float, ref_taus, tau_tols) -> list:
    """Compare a classify() record (as a dict) with reference conjugate times."""
    out = []
    got_taus = cls["first_conjugate_times"]
    if len(got_taus) != len(lams):
        return [f"{label}: {len(got_taus)} conjugate times for {len(lams)} directions"]
    for lam, g, w, tol in zip(lams, got_taus, ref_taus, tau_tols):
        if (g is None) != (w is None):
            out.append(f"{label}: lam={lam}: tau {g!r}, reference {w!r}")
        elif g is not None and not abs(g - w) <= tol:
            out.append(f"{label}: lam={lam}: tau {g!r}, reference {w!r} (tol {tol:.1e})")
    # a tau within its tolerance of t2 may legitimately fall on either side
    ambiguous = any(w is not None and abs(w - t2) <= tol + BOUNDARY_BAND
                    for w, tol in zip(ref_taus, tau_tols))
    verdict, binding = expected_verdict(ref_taus, lams, t2)
    if not ambiguous and (cls["verdict"], cls["binding_eigenvalue"]) != (verdict, binding):
        out.append(f"{label}: verdict {cls['verdict']}/{cls['binding_eigenvalue']}, "
                   f"reference {verdict}/{binding}")
    if c == 3.0 and (t2 - t1) > math.sqrt(40.0 / max(lams)) and cls["verdict"] != "saddle":
        out.append(f"{label}: window longer than sqrt(40/beta_max) is not a saddle")
    return out


def check_witness(label: str, witness, beta: float, t1: float, t2: float) -> list:
    """Signs small > 0 > large, each value near the triangle closed form; None
    only when eps* leaves no room for the wide probe."""
    c, eps_max = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
    star = epsilon_star(beta, c)
    if witness is None:
        if star < eps_max * (1.0 - 1e-6):
            return [f"{label}: no witness although eps*={star:.6g} < {eps_max:.6g}"]
        return []
    out = []
    if not abs(witness["epsilon_star"] - star) <= 1e-12 * star:
        out.append(f"{label}: epsilon_star {witness['epsilon_star']!r}, reference {star!r}")
    for key, sign in (("small", 1.0), ("large", -1.0)):
        d2 = witness[key]["d2j_quadrature"]
        eps = witness[key]["perturbation"]["eps"]
        val, scale = triangle_d2j(beta, c, eps)
        if not sign * d2 > 0:
            out.append(f"{label}: witness {key} d2J = {d2!r} has the wrong sign")
        if not abs(d2 - val) <= TRIANGLE_BLEND_RTOL * scale:
            out.append(f"{label}: witness {key} d2J {d2!r}, closed form {val!r}")
    return out
