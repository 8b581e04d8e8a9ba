"""Library bit identity: the digest of every result of a fixed list of calls.

The calls are drawn once from a fixed `random.Random` seed and go straight
to the library, below any CLI run: `_j1_y1` on log-uniform points and one
ulp either side of each region seam, `_cross_product_roots` to its first
root and to its last, `conjugate_points_bessel`, `first_conjugate_time` at
c = 3, triangle `values` on sorted, unsorted and span-grid times,
`_span_nodes`, `second_variation` and `saddle_witness`; then flows:
`integrate_flow` on quadratics (1, 2 and 100 directions) and on
polynomials of degree 2, 4 and 6 under three dampings, `el_residual` on
each of those flows, `integrate_gradient_flow`, `jacobi_solution`,
`conjugate_points_shooting` and `conjugate_points_along`; then constant
damping, whose step maps do not depend on time: `integrate_flow` at 1, 2 and
100 directions with step counts either side of one and two chunks, undamped,
under- and overdamped, one divergent flow and fig3's 24,000-step flow, and
`jacobi_solution` and `conjugate_points_shooting` at 10,000 and 20,000
steps; then `first_variation`, `perturb_curve`, and sinusoid and Fourier
`values` on their own, ends and one ulp past them included; last
`first_conjugate_time` under c = 2.5, 4 and 0.5 and under- and overdamped
constant damping, with and without `t_max`, `classify` at c = 3, c = 2.5 and
constant damping on two and three directions, and the closed forms
`constant_damping_solution`, `epsilon_star`, `triangle_d2j_closed`,
`sinusoid_d2j_closed` and `jacobi_closed_vanishing`.  Each result is
digested through `float.hex` and array bytes, so a change of one ulp, or of
the sign of a zero, changes it; a call that raises is digested by its
exception type and message.  Every call runs with warnings raised as
errors, so a digest does not depend on the caller's warning filter.

`library.sha256` records one digest per case; `tests/test_golden.py`
compares against it, and `bless.py` rewrites it together with the other
manifests.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import warnings
from pathlib import Path

import numpy as np

from vnag import (Constant, LagrangianSpec, Polynomial1D, QuadraticDiagonal, Vanishing,
                  classify, conjugate_points_along, conjugate_points_bessel,
                  conjugate_points_shooting, constant_damping_solution, el_residual,
                  epsilon_star, first_conjugate_time, first_variation, fourier_sine,
                  integrate_flow, integrate_gradient_flow, jacobi_closed_vanishing,
                  jacobi_solution, perturb_curve, saddle_witness, scale, second_variation,
                  sinusoid, sinusoid_d2j_closed, triangle, triangle_d2j_closed)
from vnag.action import _span_nodes
from vnag.bessel import _j1_y1
from vnag.jacobi import _cross_product_roots

LIBRARY_MANIFEST = Path(__file__).resolve().parent / "library.sha256"
SEED = 26


def _canon(v) -> str:
    """A text form of a result that keeps every bit of every float."""
    if isinstance(v, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return f"array({v.dtype.str}, {v.shape}, {data})"
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(_canon, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k!r}: {_canon(x)}" for k, x in sorted(v.items())) + "}"
    if hasattr(v, "to_dict"):
        return f"{type(v).__name__}{_canon(v.to_dict())}"
    return repr(v)


def _digest(call) -> str:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = _canon(call())
    except Exception as e:  # the exception is the result this case pins
        text = f"raised {type(e).__name__}: {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def cases() -> list:
    """[(name, zero-argument call)] in a fixed order."""
    rng = random.Random(SEED)

    def lu(lo, hi):  # log-uniform on [lo, hi]
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    xs = [lu(1e-12, 1e3) for _ in range(40000)]
    for i in range(40):
        out.append((f"j1_y1/loguniform/{i:02d}",
                    lambda xs=xs[1000 * i:1000 * (i + 1)]: [_j1_y1(x) for x in xs]))
    for seam in (1e-10, 4.5, *(x0 + 0.5 for x0 in range(5, 20)), 20.0):
        pts = [math.nextafter(math.nextafter(seam, 0.0), 0.0), math.nextafter(seam, 0.0), seam,
               math.nextafter(seam, math.inf)]
        out.append((f"j1_y1/seam/{seam!r}", lambda pts=pts: [_j1_y1(x) for x in pts]))
    for x in (0.0, 1e-320, 1e-308, 1e300):
        out.append((f"j1_y1/edge/{x!r}", lambda x=x: _j1_y1(x)))

    windows = []
    for _ in range(300):
        beta, t1 = lu(1e-4, 1e4), lu(1e-3, 1e2)
        windows.append((beta, t1, t1 + lu(0.05, 60.0) / math.sqrt(beta)))
    # a window shorter than a scan cell, an empty one, s1 past the float
    # resolution of a scan step, s1 where Y1 overflows, s1 below 1e-10
    windows += [(1.0, 1.0, 1.0 + 1e-12), (1.0, 2.0, 1.0), (1.0, 1e17, 2e17), (1.0, 1e-320, 5.0),
                (1e-30, 1.0, 1e16), (2.5, 0.4, 9.0)]
    for i, (beta, t1, t_max) in enumerate(windows):
        out.append((f"cross_product_roots/{i:03d}", lambda a=(beta, t1, t_max): [
            list(itertools.islice(_cross_product_roots(*a), 1)), list(_cross_product_roots(*a))]))

    for i in range(60):
        beta, t1 = lu(1e-3, 1e3), lu(1e-2, 10.0)
        t2 = t1 + lu(0.1, 60.0) / math.sqrt(beta)
        out.append((f"conjugate_points_bessel/{i:02d}",
                    lambda a=(beta, t1, t2): conjugate_points_bessel(*a)))
    out.append(("conjugate_points_bessel/t1=0",
                lambda: conjugate_points_bessel(1.0, 0.0, 5.0)))

    spec3 = LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([1.0]))
    for i in range(80):
        lam, t1 = lu(1e-4, 1e4), lu(1e-3, 1e2)
        t_max = None if i % 2 else t1 + lu(0.1, 60.0) / math.sqrt(lam)
        out.append((f"first_conjugate_time/{i:02d}",
                    lambda a=(lam, t1, t_max): first_conjugate_time(spec3, *a)))
    out.append(("first_conjugate_time/lam=0", lambda: first_conjugate_time(spec3, 0.0, 1.0)))

    for i in range(40):
        t1 = lu(0.01, 10.0)
        t2 = t1 + lu(0.1, 100.0)
        c = rng.uniform(t1, t2)
        eps = rng.uniform(0.01, 0.999) * min(c - t1, t2 - c)
        h = triangle(c, eps, t1, t2, None if i % 3 else eps * rng.uniform(1e-4, 1e-2))
        knots = [q for k in h.knots for q in (math.nextafter(k, -math.inf), k,
                                              math.nextafter(k, math.inf))]
        t = np.array([rng.uniform(t1, t2) for _ in range(300)] + knots + [t1, t2])
        ts = np.sort(t)
        grid = _span_nodes(t1, t2, h.interior_knots(), 4096)[0]
        for label, times in (("sorted", ts), ("unsorted", t), ("grid", grid),
                             ("2d", t[:300].reshape(20, 15))):
            out.append((f"triangle_values/{i:02d}/{label}", lambda h=h, x=times: h.values(x)))

    for i in range(60):
        t1 = rng.uniform(-10.0, 10.0)
        t2 = t1 + lu(1e-6, 1e3)
        knots = [rng.uniform(t1 - 0.2 * (t2 - t1), t2 + 0.2 * (t2 - t1))
                 for _ in range(rng.randrange(9))]
        n_steps = rng.choice((1, 7, 64, 100, 4096, 20000))
        out.append((f"span_nodes/{i:02d}", lambda a=(t1, t2, knots, n_steps): _span_nodes(*a)))
    for args in ((0.0, 1e-321, (), 4096), (1, 5, (), 64), (1, 5, (2, 3.5), 64),
                 (0.0, 1.0, (0.5, 0.5), 10)):
        out.append((f"span_nodes/{args!r}", lambda a=args: _span_nodes(*a)))

    dampings = (Vanishing(3.0), Vanishing(2.5), Constant(0.5))
    for i in range(36):
        damping = dampings[i % 3]
        t1 = lu(0.05, 5.0)
        t2 = t1 + lu(0.5, 20.0)
        kind = (i // 3) % 4
        if kind < 2:
            c = rng.uniform(t1, t2)
            h = triangle(c, rng.uniform(0.05, 0.95) * min(c - t1, t2 - c), t1, t2)
        elif kind == 2:
            h = sinusoid(rng.randrange(1, 5), t1, t2)
        else:
            h = fourier_sine(rng.randrange(100), rng.randrange(1, 9), 1.5, t1, t2)
        spec = LagrangianSpec(damping, QuadraticDiagonal([lu(1e-2, 1e2)]))
        n_steps = rng.choice((64, 1000, 4096))
        out.append((f"second_variation/{i:02d}",
                    lambda a=(spec, t1, t2, h, n_steps): second_variation(*a)))

    for i in range(30):
        beta, t1 = lu(1e-2, 1e2), lu(0.1, 10.0)
        t2 = t1 + lu(0.5, 40.0) / math.sqrt(beta)
        out.append((f"saddle_witness/{i:02d}", lambda a=(beta, t1, t2): saddle_witness(*a)))
    out.append(("saddle_witness/inf", lambda: saddle_witness(1e300, 1.0, 1e10)))

    flows = []  # (name, potential, damping, x0, v0, t1, t2, n_steps)
    for i in range(36):
        k = (1, 2, 100)[(i // 3) % 3]
        pot = QuadraticDiagonal([lu(1e-2, 1e2) for _ in range(k)],
                                [rng.uniform(-2.0, 2.0) for _ in range(k)])
        t1 = lu(0.05, 5.0)
        flows.append((f"quadratic/{i:02d}", pot, dampings[i % 3],
                      [rng.uniform(-2.0, 2.0) for _ in range(k)],
                      [rng.uniform(-1.0, 1.0) for _ in range(k)],
                      t1, t1 + lu(0.5, 20.0), rng.choice((2, 3, 64, 500, 1000, 5000))))
    for i in range(24):
        xstar = rng.uniform(0.5, 3.0) * rng.choice((-1, 1))
        pot = Polynomial1D(lu(0.1, 10.0), (2, 4, 6)[i % 3], xstar)
        t1 = lu(0.05, 5.0)
        flows.append((f"polynomial/{i:02d}", pot, dampings[(i // 3) % 3],
                      pot.xstar + rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                      t1, t1 + lu(0.5, 20.0), rng.choice((2, 3, 100, 500, 1000, 5000))))
    # a quadratic and a quartic step far past RK4's stability limit
    flows += [("quadratic/unstable", QuadraticDiagonal([1e6]), Vanishing(3.0), [1.0], [0.0],
               1.0, 100.0, 100),
              ("polynomial/unstable", Polynomial1D(1.0, 4, 0.5), Constant(0.5), 3.0, 0.0,
               0.5, 50.0, 20)]
    for name, *a in flows:
        out.append((f"integrate_flow/{name}", lambda a=a: _trajectory(integrate_flow(*a))))
    for name, pot, damping, *a in flows:
        out.append((f"el_residual/{name}", lambda a=(pot, damping, *a):
                    el_residual(integrate_flow(*a), a[0], a[1])))

    for i in range(20):
        k = (1, 3)[i % 2]
        pot = QuadraticDiagonal([lu(1e-2, 1e2) for _ in range(k)],
                                [rng.uniform(-2.0, 2.0) for _ in range(k)]) if i % 4 < 2 \
            else Polynomial1D(lu(0.1, 10.0), rng.choice((2, 4, 6)), rng.uniform(-3.0, 3.0))
        x0 = [rng.uniform(-2.0, 2.0) for _ in range(pot.dim)]
        t1 = rng.uniform(-5.0, 5.0)
        a = (pot, x0, t1, t1 + lu(0.5, 20.0), rng.choice((2, 100, 5000)))
        out.append((f"integrate_gradient_flow/{i:02d}",
                    lambda a=a: _trajectory(integrate_gradient_flow(*a))))

    for i in range(24):
        spec = LagrangianSpec(dampings[i % 3], QuadraticDiagonal([1.0]))
        lam, t1 = lu(1e-3, 1e3), lu(0.05, 5.0)
        a = (spec, lam, t1, t1 + lu(0.5, 30.0) / math.sqrt(lam))
        n_solution, n_shooting = rng.choice((1, 100, 4000, 10000)), rng.choice((1000, 20000))
        out.append((f"jacobi_solution/{i:02d}", lambda a=a, n=n_solution: jacobi_solution(*a, n)))
        out.append((f"conjugate_points_shooting/{i:02d}",
                    lambda a=a, n=n_shooting: conjugate_points_shooting(*a, n)))

    for i in range(12):
        pot = Polynomial1D(lu(0.1, 10.0), (2, 4)[(i // 3) % 2], rng.uniform(-2.0, 2.0))
        t1 = lu(0.1, 2.0)
        t2 = t1 + lu(5.0, 30.0)
        base = (pot, dampings[i % 3], pot.xstar + rng.uniform(-1.0, 1.0), 0.0, t1, t2, 2000)
        w1 = rng.uniform(t1, 0.5 * (t1 + t2))
        window = (w1, rng.uniform(w1 + 1.0, t2), rng.choice((1000, 20000)))
        out.append((f"conjugate_points_along/{i:02d}", lambda b=base, w=window:
                    conjugate_points_along(integrate_flow(*b), b[0], b[1], *w)))

    # constant damping, whose step maps do not depend on time: chunk counts
    # around one chunk (m steps at k directions), undamped, under- and overdamped
    for k in (1, 2, 100):
        m = 4096 // k
        for n_steps in (m - 1, m, m + 1, 2 * m + 3):
            for zeta in (0.0, rng.uniform(0.05, 0.9), rng.uniform(1.1, 3.0)):
                lams = [lu(0.5, 2.0) for _ in range(k)]
                pot = QuadraticDiagonal(lams, [rng.uniform(-2.0, 2.0) for _ in range(k)])
                t1 = lu(0.05, 5.0)
                a = (pot, Constant(2.0 * zeta * math.sqrt(min(lams) if zeta < 1 else max(lams))),
                     [rng.uniform(-2.0, 2.0) for _ in range(k)],
                     [rng.uniform(-1.0, 1.0) for _ in range(k)], t1, t1 + lu(0.5, 10.0), n_steps)
                out.append((f"integrate_flow/constant/k={k}/n={n_steps}/zeta={zeta:.3f}",
                            lambda a=a: _trajectory(integrate_flow(*a))))
    # past RK4's stability limit, non-finite in the fourth chunk; fig3's 24,000-step flow
    out.append(("integrate_flow/constant/unstable", lambda: _trajectory(integrate_flow(
        QuadraticDiagonal([1e4]), Constant(0.0), [1.0], [0.0], 0.0, 570.0, 20000))))
    out.append(("integrate_flow/constant/fig3", lambda: _trajectory(integrate_flow(
        QuadraticDiagonal([0.04, 0.0008]), Constant(0.2), [1.0, 1.0], [0.0, 0.0],
        0.01, 300.0, 24000))))
    for i in range(12):
        lam, t1 = lu(1e-2, 1e2), lu(0.05, 5.0)
        alpha = (0.0, rng.uniform(0.1, 1.9), rng.uniform(2.1, 4.0))[i % 3] * math.sqrt(lam)
        spec = LagrangianSpec(Constant(alpha), QuadraticDiagonal([1.0]))
        a = (spec, lam, t1, t1 + lu(0.5, 30.0) / math.sqrt(lam), (10000, 20000)[(i // 3) % 2])
        out.append((f"jacobi_solution/constant/{i:02d}", lambda a=a: jacobi_solution(*a)))
        out.append((f"conjugate_points_shooting/constant/{i:02d}",
                    lambda a=a: conjugate_points_shooting(*a)))

    for i in range(12):
        k = (1, 3)[i % 2]
        pot = QuadraticDiagonal([lu(1e-2, 1e2) for _ in range(k)],
                                [rng.uniform(-2.0, 2.0) for _ in range(k)]) if i % 4 < 2 \
            else Polynomial1D(lu(0.1, 10.0), rng.choice((2, 4)), rng.uniform(-2.0, 2.0))
        damping = dampings[i % 3]
        t1 = lu(0.1, 2.0)
        t2 = t1 + lu(1.0, 20.0)
        base = integrate_flow(pot, damping, [rng.uniform(-2.0, 2.0) for _ in range(pot.dim)],
                              [0.0] * pot.dim, t1, t2, rng.choice((100, 1000, 5000)))
        c = rng.uniform(t1 + 0.1 * (t2 - t1), t2 - 0.1 * (t2 - t1))
        h = (triangle(c, rng.uniform(0.05, 0.95) * min(c - t1, t2 - c), t1, t2),
             sinusoid(rng.randrange(1, 5), t1, t2),
             fourier_sine(rng.randrange(100), rng.randrange(1, 9), 1.5, t1, t2))[i % 3]
        h = scale(h, rng.uniform(0.1, 2.0)) if i % 2 else h
        h = dataclasses.replace(h, component=rng.randrange(pot.dim))
        spec = LagrangianSpec(damping, pot)
        out.append((f"first_variation/{i:02d}", lambda a=(spec, base, h, rng.choice(
            (64, 1000, 4096))): first_variation(*a)))
        out.append((f"perturb_curve/{i:02d}", lambda a=(base, h): _trajectory(perturb_curve(*a))))

    for i in range(20):
        t1 = rng.uniform(-10.0, 10.0)
        t2 = t1 + lu(1e-3, 1e3)
        h = sinusoid(rng.randrange(1, 9), t1, t2) if i % 2 else \
            fourier_sine(rng.randrange(100), rng.randrange(1, 17), rng.uniform(0.5, 3.0), t1, t2)
        # inside, the ends, one ulp either side of them, and past them
        ends = [math.nextafter(t1, -math.inf), t1, math.nextafter(t1, math.inf),
                math.nextafter(t2, -math.inf), t2, math.nextafter(t2, math.inf)]
        t = np.array([rng.uniform(t1, t2) for _ in range(200)] + ends
                     + [t1 - 0.1 * (t2 - t1), t2 + 0.1 * (t2 - t1)])
        for label, times in (("sorted", np.sort(t)), ("unsorted", t),
                             ("2d", t[:200].reshape(10, 20))):
            out.append((f"{h.kind}_values/{i:02d}/{label}", lambda h=h, x=times: h.values(x)))

    # the shooting route of first_conjugate_time (c != 3) and its constant-damping
    # formula, under- and overdamped; classify on every route
    fct_dampings = (("c=2.5", lambda lam: Vanishing(2.5)), ("c=4", lambda lam: Vanishing(4.0)),
                    ("c=0.5", lambda lam: Vanishing(0.5)),
                    ("under", lambda lam: Constant(rng.uniform(0.0, 1.9) * math.sqrt(lam))),
                    ("over", lambda lam: Constant(rng.uniform(2.1, 4.0) * math.sqrt(lam))))
    for label, damping_for in fct_dampings:
        for i in range(6):
            lam, t1 = lu(1e-3, 1e3), lu(1e-2, 10.0)
            spec = LagrangianSpec(damping_for(lam), QuadraticDiagonal([1.0]))
            t_max = None if i % 2 else t1 + lu(0.1, 60.0) / math.sqrt(lam)
            out.append((f"first_conjugate_time/{label}/{i}",
                        lambda a=(spec, lam, t1, t_max): first_conjugate_time(*a)))
    for label, damping in (("c=3", Vanishing(3.0)), ("c=2.5", Vanishing(2.5)),
                           ("constant", Constant(rng.uniform(0.1, 2.0)))):
        for i in range(6):
            pot = QuadraticDiagonal([lu(1e-2, 1e2) for _ in range(2 + i % 2)])
            t1 = lu(0.05, 5.0)
            a = (pot, damping, t1, t1 + lu(0.5, 30.0) / math.sqrt(min(pot.eigenvalues)))
            out.append((f"classify/{label}/{i}", lambda a=a: classify(*a)))

    # the closed forms: critical, under- and overdamped solutions, probe
    # second variations and eps*, and the Bessel Jacobi field down to t1 ~ 1e-200
    for i in range(12):
        lam = lu(1e-2, 1e2)
        alpha = (2.0, rng.uniform(0.0, 1.9), rng.uniform(2.1, 4.0))[i % 3] * math.sqrt(lam)
        t0 = rng.uniform(-5.0, 5.0)
        t = np.array([t0 + lu(1e-3, 30.0) for _ in range(50)])
        out.append((f"constant_damping_solution/{i:02d}", lambda a=(
            lam, alpha, rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), t, t0):
            constant_damping_solution(*a)))
    eps_args = [(lu(1e-6, 1e6), lu(1e-4, 1e4)) for _ in range(40)]
    out.append(("epsilon_star/loguniform", lambda: [epsilon_star(*a) for a in eps_args]))
    for a in ((0.0, 1.0), (1.2, 1.0), (1e300, 1.0), (-1.0, 1.0), (1.0, 0.0)):
        out.append((f"epsilon_star/{a!r}", lambda a=a: epsilon_star(*a)))
    tri_args = [(lu(1e-3, 1e3), lu(0.1, 10.0), lu(1e-3, 10.0), lu(0.1, 10.0)) for _ in range(40)]
    out.append(("triangle_d2j_closed/loguniform",
                lambda: [triangle_d2j_closed(*a) for a in tri_args]))
    sin_args = []
    for _ in range(40):
        t1 = rng.uniform(-50.0, 50.0)
        sin_args.append((t1, t1 + lu(1e-6, 100.0), rng.randrange(1, 9), lu(0.1, 10.0)))
    out.append(("sinusoid_d2j_closed/random", lambda: [sinusoid_d2j_closed(*a) for a in sin_args]))
    # e^t1 overflowing, subnormal and zero; a span below one ulp; k = 0
    for a in ((700.0, 720.0, 1), (-720.0, -700.0, 2), (-800.0, -1.0, 1), (-1000.0, -999.0, 1),
              (1.0, 1.0, 1), (0.0, 1.0, 0)):
        out.append((f"sinusoid_d2j_closed/{a!r}", lambda a=a: sinusoid_d2j_closed(*a)))
    for i in range(20):
        beta, t1 = lu(1e-3, 1e3), lu(1e-3, 1e2)
        ts = [t1 + lu(1e-6, 60.0) / math.sqrt(beta) for _ in range(20)]
        out.append((f"jacobi_closed_vanishing/{i:02d}",
                    lambda a=(beta, t1), ts=ts: [jacobi_closed_vanishing(*a, t) for t in ts]))
    for a in ((1.0, 1e-200, 1.0), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0)):
        out.append((f"jacobi_closed_vanishing/{a!r}", lambda a=a: jacobi_closed_vanishing(*a)))
    return out


def _trajectory(traj):
    """A Trajectory's arrays (it has no to_dict)."""
    return traj.t, traj.x, traj.v


def produce() -> dict:
    """{case name: sha256 of its result}."""
    return {name: _digest(call) for name, call in cases()}
