import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vnag import (Constant, LagrangianSpec, Perturbation, QuadraticDiagonal, Trajectory,
                  Vanishing, action,
                  first_variation, fourier_sine, integrate_flow,
                  perturb_curve, scale, second_variation, sinusoid, triangle,
                  triangle_d2j_closed)
from vnag.action import _span_nodes


def test_admissibility_all_kinds():
    t1, t2 = 0.5, 6.5
    probes = [triangle(3.0, 1.0, t1, t2), sinusoid(3, t1, t2),
              fourier_sine(123, 8, 1.2, t1, t2)]
    for h in probes:
        ends = np.abs(h.values(np.array([t1, t2]))[0])
        assert np.all(ends <= 1e-14)


def test_triangle_shape():
    h = triangle(2.0, 1.0, 0.5, 3.5)
    delta = 1.0 / 1000.0
    # height one at the apex, up to the blend correction <= delta/eps
    assert abs(h.values(np.array([2.0]))[0][0] - 1.0) <= delta / 1.0
    # identically zero (value and slope) outside the support
    t_out = np.array([0.5, 0.9, 3.2, 3.5])
    hv, hd = h.values(t_out)
    assert np.all(hv == 0.0) and np.all(hd == 0.0)
    # area converges to eps (unit triangle) as delta -> 0
    t = np.linspace(0.5, 3.5, 300001)
    v = h.values(t)[0]
    area = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
    assert abs(area - 1.0) <= 1e-4


def test_triangle_is_c1():
    # value and slope agree across every knot (left/right limits)
    h = triangle(2.0, 1.0, 0.5, 3.5, delta=1e-3)
    for k in h.knots:
        left = np.array([k - 1e-12])
        right = np.array([k + 1e-12])
        (lv, ld), (rv, rd) = h.values(left), h.values(right)
        assert abs((lv - rv)[0]) <= 1e-9
        assert abs((ld - rd)[0]) <= 1e-6


def test_triangle_validation():
    with pytest.raises(ValueError):
        triangle(2.0, 1.8, 0.5, 3.5)  # support hits t1
    with pytest.raises(ValueError):
        triangle(2.0, 1.0, 0.5, 3.5, delta=0.5)  # blend too wide


def test_sinusoid_values():
    h = sinusoid(1, 1.0, 3.0)
    assert h.values(np.array([2.0]))[0][0] == pytest.approx(1.0)
    h2 = sinusoid(2, 1.0, 3.0)
    assert h2.values(np.array([2.0]))[0][0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(h2.values(np.array([1.0, 3.0]))[0] == 0.0)
    with pytest.raises(ValueError):
        sinusoid(0, 1.0, 3.0)


def test_fourier_determinism():
    a = fourier_sine(7, 6, 1.5, 0.0, 4.0)
    b = fourier_sine(7, 6, 1.5, 0.0, 4.0)
    assert a.params == b.params
    t = np.linspace(0.0, 4.0, 100)
    np.testing.assert_array_equal(a.values(t)[0], b.values(t)[0])
    c = fourier_sine(8, 6, 1.5, 0.0, 4.0)
    assert not np.array_equal(a.values(t)[0], c.values(t)[0])


def test_fourier_single_mode_is_sinusoid():
    h = fourier_sine(3, 1, 1.0, 0.0, 2.0)
    coeff = h.params[3][0]
    s = sinusoid(1, 0.0, 2.0)
    t = np.linspace(0.0, 2.0, 64)
    np.testing.assert_allclose(h.values(t)[0], coeff * s.values(t)[0], atol=1e-15)


def test_scale():
    h = sinusoid(1, 0.0, 2.0)
    z = scale(h, 0.0)
    t = np.linspace(0.0, 2.0, 50)
    assert np.all(z.values(t)[0] == 0.0)
    for doubled, single in zip(scale(h, 2.0).values(t), h.values(t)):
        np.testing.assert_array_equal(doubled, 2.0 * single)
    with pytest.raises(ValueError):
        scale(h, -1.0)


def test_non_finite_sigma_is_rejected():
    # NaN passed `sigma < 0`, and its second variation came back NaN without an error
    h = sinusoid(1, 0.0, 2.0)
    for make in (lambda s: scale(h, s), lambda s: dataclasses.replace(h, sigma=s),
                 lambda s: Perturbation("sinusoid", 0.0, 2.0, sigma=s, params=(1,))):
        for sigma in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="sigma must be"):
                make(sigma)
    for sigma in (math.nan, math.inf):  # a product that is not finite, also 0 * inf
        with pytest.raises(ValueError, match="sigma must be finite"):
            scale(scale(h, 0.0), sigma)
    with pytest.raises(ValueError, match="sigma must be finite"):
        scale(scale(h, 1e200), 1e200)


_PROBES = {"triangle": triangle(2.0, 1.0, 0.5, 3.5), "sinusoid": sinusoid(2, 0.5, 3.5),
           "fourier": fourier_sine(5, 6, 1.5, 0.5, 3.5)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(sigma=3.0, kind="triangle")
@example(sigma=0.0, kind="fourier")
@given(sigma=st.floats(1e-3, 1e3), kind=st.sampled_from(sorted(_PROBES)))
def test_scale_is_quadratic_in_d2j(sigma, kind):
    # d2J[sigma h] = sigma^2 d2J[h], and dJ[Y; sigma h] = sigma dJ[Y; h] on
    # the constant curve Y = 1, where dJ = -int t^3 h dt is far from zero
    spec = LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([1.0]))
    h = _PROBES[kind]
    base = second_variation(spec, 0.5, 3.5, h)
    scaled = second_variation(spec, 0.5, 3.5, scale(h, sigma))
    assert abs(scaled - sigma * sigma * base) <= 1e-12 * sigma * sigma * abs(base)
    t = np.linspace(0.5, 3.5, 257)
    curve = Trajectory(t, np.ones_like(t), np.zeros_like(t))
    first = first_variation(spec, curve, h)
    scaled = first_variation(spec, curve, scale(h, sigma))
    assert abs(scaled - sigma * first) <= 1e-12 * sigma * abs(first)


def test_triangle_blend_limit():
    # the blended bump converges to the ideal-triangle closed form
    spec = LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([1.0]))
    closed = triangle_d2j_closed(1.0, 2.0, 1.0)
    for delta in (1e-2, 1e-3):
        h = triangle(2.0, 1.0, 0.5, 3.5, delta=delta)
        quad = second_variation(spec, 0.5, 3.5, h)
        assert abs(quad - closed) / abs(closed) <= 10.0 * delta / 1.0


def test_perturb_curve_zero_is_identity():
    pot = QuadraticDiagonal([1.0])
    base = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 5.0, 200)
    h = scale(sinusoid(1, 1.0, 5.0), 0.0)
    out = perturb_curve(base, h)
    np.testing.assert_array_equal(out.t, base.t)
    np.testing.assert_array_equal(out.x, base.x)
    np.testing.assert_array_equal(out.v, base.v)


def test_perturb_curve_keeps_endpoints():
    pot = QuadraticDiagonal([1.0])
    base = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 5.0, 200)
    out = perturb_curve(base, triangle(3.0, 1.0, 1.0, 5.0))
    np.testing.assert_allclose(out.x[0], base.x[0], atol=1e-14)
    np.testing.assert_allclose(out.x[-1], base.x[-1], atol=1e-14)
    assert out.t[0] == base.t[0] and out.t[-1] == base.t[-1]


def test_perturb_curve_interval_mismatch():
    pot = QuadraticDiagonal([1.0])
    base = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 5.0, 200)
    with pytest.raises(ValueError):
        perturb_curve(base, sinusoid(1, 1.0, 6.0))
    # the window is checked on the values of h over the new grid; knots of a
    # far larger window do not size that grid
    with pytest.raises(ValueError, match="interval does not match"):
        perturb_curve(base, triangle(2.5e12, 1e12, 1.0, 5e12))


def test_increment_decomposition(warm_state):
    # quadratic f: J[Y+h] - J[Y] = dJ[Y;h] + d2J[h] up to quadrature error
    pot = QuadraticDiagonal([1.0])
    spec = LagrangianSpec(Vanishing(3.0), pot)
    x1, v1 = warm_state
    base = integrate_flow(pot, Vanishing(3.0), [x1], [v1], 1.0, 9.0, 4000)
    for h in (triangle(5.0, 2.0, 1.0, 9.0), scale(sinusoid(2, 1.0, 9.0), 0.7)):
        lhs = action(spec, perturb_curve(base, h)) - action(spec, base)
        rhs = first_variation(spec, base, h) + second_variation(spec, 1.0, 9.0, h)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_descriptor_round_trip():
    h = triangle(2.0, 1.0, 0.5, 3.5)
    d = h.descriptor()
    assert d["kind"] == "triangle" and d["c"] == 2.0 and d["eps"] == 1.0
    d2 = fourier_sine(5, 4, 2.0, 0.0, 1.0).descriptor()
    assert d2["seed"] == 5 and d2["n_modes"] == 4


def _old_profile(h, t, deriv):
    """sigma * h(t) or sigma * h'(t) as evaluated before h and h' shared one
    pass: one call per quantity, the triangle picking its pieces with five
    masks built anew on each call."""
    from vnag.perturbations import _big_g_apex, _big_g_up, _g_apex, _g_up
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    span = h.t2 - h.t1
    s = (t - h.t1) / span
    if h.kind == "triangle":
        c, eps, delta = h.params
        inv = 1.0 / eps
        rise = (t >= c - eps + delta) & (t <= c - delta)
        fall = (t >= c + delta) & (t <= c + eps - delta)
        if deriv:
            out[rise] = inv
            out[fall] = -inv
        else:
            out[rise] = (t[rise] - (c - eps)) * inv
            out[fall] = (c + eps - t[fall]) * inv
        up = (t > c - eps - delta) & (t < c - eps + delta)
        ap = (t > c - delta) & (t < c + delta)
        dn = (t > c + eps - delta) & (t < c + eps + delta)
        if np.any(up):
            u = (t[up] - (c - eps)) / delta
            out[up] = _g_up(u) * inv if deriv else (delta * inv) * _big_g_up(u)
        if np.any(ap):
            u = (t[ap] - c) / delta
            out[ap] = _g_apex(u) * inv if deriv else 1.0 - delta * inv + (delta * inv) * _big_g_apex(u)
        if np.any(dn):
            u = (t[dn] - (c + eps)) / delta
            out[dn] = -_g_up(-u) * inv if deriv else (delta * inv) * _big_g_up(-u)
    elif h.kind == "sinusoid":
        (k,) = h.params
        w = k * math.pi / span
        inside = (s > 0.0) & (s < 1.0)
        arg = w * (t[inside] - h.t1)
        out[inside] = w * np.cos(arg) if deriv else np.sin(arg)
        if deriv:
            out[s <= 0.0] = w
            out[s >= 1.0] = w * math.cos(k * math.pi)
    else:
        inside = (s > 0.0) & (s < 1.0) if not deriv else np.ones_like(t, dtype=bool)
        ti = t[inside]
        acc = np.zeros_like(ti)
        for k, a in enumerate(h.params[3], start=1):
            w = k * math.pi / span
            acc += a * (w * np.cos(w * (ti - h.t1)) if deriv else np.sin(w * (ti - h.t1)))
        out[inside] = acc
    return h.sigma * out


def _ulp_neighbourhood(points):
    pts = [q for p in points for q in (math.nextafter(p, -math.inf), p,
                                       math.nextafter(p, math.inf))]
    return np.array(pts)


def test_one_pass_matches_per_call_formulas():
    # at every knot, one ulp either side of it and on a dense grid, h and h'
    # are bit-identical to the per-call formulas; a knot belongs to the
    # straight piece beside it (closed), never to the blend window (open).
    # Each probe is evaluated on unsorted times, on the same times sorted and
    # on its quadrature nodes: the triangle fills sorted times by slices and
    # sorts other times first
    t1, t2 = 0.5, 6.5
    probes = [triangle(3.0, 1.0, t1, t2), triangle(3.1, 2.2, t1, t2, delta=0.02),
              scale(triangle(2.0, 0.7, t1, t2, delta=1e-5), 3.5),
              sinusoid(1, t1, t2), scale(sinusoid(4, t1, t2), 0.25),
              fourier_sine(123, 8, 1.2, t1, t2), scale(fourier_sine(7, 3, 0.6, t1, t2), 2.0)]
    for h in probes:
        marks = [t1, t2, *h.knots]
        if h.kind == "triangle":
            c, eps, _ = h.params
            marks += [c, c - eps, c + eps]
        t = np.concatenate([_ulp_neighbourhood(marks), np.linspace(t1 - 0.1, t2 + 0.1, 2001)])
        for times in (t, np.sort(t), _span_nodes(t1, t2, h.interior_knots(), 4096)[0]):
            hv, hd = h.values(times)
            for got, deriv in ((hv, False), (hd, True)):
                want = _old_profile(h, times, deriv)
                assert np.array_equal(got, want), (h.kind, deriv)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        # times of any shape, element for element
        for got, flat in zip(h.values(t[:2000].reshape(40, 50)), h.values(t[:2000])):
            assert got.shape == (40, 50) and np.array_equal(got.ravel(), flat)


def test_interval_match_is_relative_to_the_window():
    # a probe on [0, 1e-12] does not live on [1e-12, 2e-12], however tiny the gap
    spec = LagrangianSpec(Constant(1.0), QuadraticDiagonal([1.0]))
    for h in (sinusoid(1, 0.0, 1e-12), triangle(0.5e-12, 0.25e-12, 0.0, 1e-12)):
        with pytest.raises(ValueError, match="interval does not match"):
            second_variation(spec, 1e-12, 2e-12, h)
    # probes built from the window's own floats pass, at tiny and at huge times
    spec = LagrangianSpec(Constant(0.0), QuadraticDiagonal([1.0]))
    for t1, t2 in ((1e-12, 2e-12), (1e13, 1e13 + 10.0)):
        c, eps = (t1 + t2) / 2.0, (t2 - t1) / 4.0
        for h in (sinusoid(1, t1, t2), triangle(c, eps, t1, t2)):
            assert math.isfinite(second_variation(spec, t1, t2, h))


@pytest.mark.parametrize("build, message", [
    (lambda: fourier_sine(1, 0, 1.0, 0.0, 1.0), "n_modes"),
    (lambda: fourier_sine(1, 3, 0.0, 0.0, 1.0), "decay"),
    (lambda: Perturbation("square", 0.0, 1.0), "unknown perturbation kind"),
    (lambda: fourier_sine(1, 2.5, 1.0, 0.0, 1.0), "n_modes"),
    (lambda: fourier_sine(1, 3, math.nan, 0.0, 1.0), "decay"),
], ids=["n_modes", "decay", "kind", "n_modes_fraction", "decay_nan"])
def test_probe_arguments_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()
