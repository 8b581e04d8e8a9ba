"""Library bit identity: the digest of every result of a fixed list of calls.

The calls are drawn once from a fixed `random.Random` seed and go straight
to the library, below any CLI run: `_j1_y1` on log-uniform points and one
ulp either side of each region seam, `_cross_product_roots` with and
without `max_roots`, `conjugate_points_bessel`, `first_conjugate_time` at
c = 3, triangle `values` on sorted, unsorted and span-grid times,
`_span_nodes`, `second_variation` and `saddle_witness`; then flows:
`integrate_flow` on quadratics (1, 2 and 100 directions) and on
polynomials of degree 2, 4 and 6 under three dampings, `el_residual` on
each of those flows, `integrate_gradient_flow`, `jacobi_solution`,
`conjugate_points_shooting` and `conjugate_points_along`.  Each result is
digested through `float.hex` and array bytes, so a change of one ulp, or of
the sign of a zero, changes it; a call that raises is digested by its
exception type and message.  Every call runs with warnings raised as
errors, so a digest does not depend on the caller's warning filter.

`library.sha256` records one digest per case; `tests/test_golden.py`
compares against it, and `bless.py` rewrites it together with the other
manifests.
"""
from __future__ import annotations

import hashlib
import math
import random
import warnings
from pathlib import Path

import numpy as np

from vnag import (Constant, LagrangianSpec, Polynomial1D, QuadraticDiagonal, Vanishing,
                  conjugate_points_along, conjugate_points_bessel,
                  conjugate_points_shooting, el_residual, first_conjugate_time,
                  fourier_sine, integrate_flow, integrate_gradient_flow,
                  jacobi_solution, saddle_witness, second_variation, sinusoid,
                  triangle)
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
            _cross_product_roots(*a, max_roots=1), _cross_product_roots(*a)]))

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
    return out


def _trajectory(traj):
    """A Trajectory's arrays (it has no to_dict)."""
    return traj.t, traj.x, traj.v


def produce() -> dict:
    """{case name: sha256 of its result}."""
    return {name: _digest(call) for name, call in cases()}
