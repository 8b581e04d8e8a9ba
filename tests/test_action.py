import dataclasses
import functools
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vnag import (Constant, LagrangianSpec, Perturbation, Polynomial1D, QuadraticDiagonal,
                  Trajectory, Vanishing, action, first_variation, fourier_sine, integrate_flow,
                  perturb_curve, scale, second_variation, sinusoid, triangle)
from vnag.action import _simpson, _span_nodes
from vnag.cli import main


def _spec(beta=1.0, damping=None):
    return LagrangianSpec(damping or Vanishing(3.0), QuadraticDiagonal([beta]))


def test_action_constant_curve_is_zero():
    spec = _spec()
    t = np.linspace(1.0, 5.0, 41)
    flat = Trajectory(t, np.zeros((41, 1)), np.zeros((41, 1)))
    assert action(spec, flat) == 0.0


def test_action_free_motion():
    # integral of t^3 / 2 over [1, 2] = 15/8; x = x* makes f = 0
    spec = LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([1.0]))
    t = np.linspace(1.0, 2.0, 101)
    curve = Trajectory(t, np.zeros_like(t), np.ones_like(t))
    assert action(spec, curve) == pytest.approx(15.0 / 8.0, abs=1e-12)


def test_action_unweighted_sine():
    # weight 1 (alpha = 0): 0.5 * int cos^2 - sin^2 over [0, pi] = 0
    spec = LagrangianSpec(Constant(0.0), QuadraticDiagonal([1.0]))
    t = np.linspace(0.0, math.pi, 201)
    curve = Trajectory(t, np.sin(t), np.cos(t))
    assert action(spec, curve) == pytest.approx(0.0, abs=1e-10)


def test_action_requires_even_interval_count():
    spec = _spec()
    t = np.linspace(1.0, 2.0, 100)  # 99 intervals
    curve = Trajectory(t, t.copy(), np.ones_like(t))
    with pytest.raises(ValueError):
        action(spec, curve)


def test_action_rejects_nonuniform():
    spec = _spec()
    t = np.array([1.0, 1.1, 1.3, 1.6, 2.0])
    curve = Trajectory(t, t.copy(), np.ones_like(t))
    with pytest.raises(ValueError):
        action(spec, curve)


def test_simpson_fourth_order():
    # smooth non-polynomial integrand: error drops ~16x per grid doubling
    # x = x* makes f = 0: the integrand is exp(2t) / 2
    spec = LagrangianSpec(Constant(0.0), QuadraticDiagonal([1.0]))
    exact = (math.exp(2.0) - 1.0) / 4.0

    def err(n):
        t = np.linspace(0.0, 1.0, n + 1)
        curve = Trajectory(t, np.zeros_like(t), np.exp(t))
        return abs(action(spec, curve) - exact)

    ratio = err(8) / err(16)
    assert 12.0 <= ratio <= 22.0


def test_first_variation_vanishes_on_extremal(warm_state):
    pot = QuadraticDiagonal([1.0])
    spec = LagrangianSpec(Vanishing(3.0), pot)
    x1, v1 = warm_state
    curve = integrate_flow(pot, Vanishing(3.0), [x1], [v1], 1.0, 10.0, 4000)
    for h in (sinusoid(1, 1.0, 10.0), triangle(4.0, 1.5, 1.0, 10.0),
              scale(sinusoid(3, 1.0, 10.0), 2.5)):
        dj = first_variation(spec, curve, h)
        hv, hd = h.values(curve.t)
        assert abs(dj) <= 1e-5 * (1.0 + np.max(np.abs(hv)) + np.max(np.abs(hd)))


def test_first_variation_zero_perturbation():
    pot = QuadraticDiagonal([1.0])
    spec = LagrangianSpec(Vanishing(3.0), pot)
    curve = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 3.0, 200)
    h = scale(sinusoid(1, 1.0, 3.0), 0.0)
    assert first_variation(spec, curve, h) == 0.0


def test_first_variation_constant_curve_oracle():
    # Y = 1 constant, f = x^2/2: dJ = -int t^3 h(t) dt (independent quadrature)
    spec = _spec()
    t = np.linspace(1.0, 3.0, 513)
    curve = Trajectory(t, np.ones_like(t), np.zeros_like(t))
    h = sinusoid(1, 1.0, 3.0)
    expected = -float(mp.quad(lambda u: u ** 3 * mp.sin(mp.pi * (u - 1) / 2), [1, 3]))
    assert first_variation(spec, curve, h) == pytest.approx(expected, abs=1e-10)


def test_second_variation_triangle_value():
    # closed form at (beta, c, eps) = (1, 2, 1): 10.7 * 2/3 = 7.1333...
    spec = _spec()
    h = triangle(2.0, 1.0, 0.5, 3.5)
    assert second_variation(spec, 0.5, 3.5, h) == pytest.approx(7.13333333, abs=1e-3)


def test_second_variation_sinusoid_value():
    # alpha = beta = 1, k = 1 on [0, 2pi]: -(e^{2 pi} - 1)/32, cross-checked
    # against an independent high-precision quadrature of the quadratic form
    spec = LagrangianSpec(Constant(1.0), QuadraticDiagonal([1.0]))
    h = sinusoid(1, 0.0, 2.0 * math.pi)
    got = second_variation(spec, 0.0, 2.0 * math.pi, h, n_steps=8192)
    expected = -(math.exp(2.0 * math.pi) - 1.0) / 32.0
    oracle = 0.5 * float(mp.quad(
        lambda u: mp.e ** u * (0.25 * mp.cos(u / 2) ** 2 - mp.sin(u / 2) ** 2),
        [0, 2 * mp.pi]))
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_second_variation_zero():
    spec = _spec()
    h = scale(sinusoid(1, 1.0, 3.0), 0.0)
    assert second_variation(spec, 1.0, 3.0, h) == 0.0


def test_quadratic_identity():
    # boundary-pinned curves: J[sigma h] = sigma^2 d2J[h] for quadratic f
    spec = _spec()
    n = 4096
    t = np.linspace(1.0, 9.0, n + 1)
    zero = Trajectory(t, np.zeros((n + 1, 1)), np.zeros((n + 1, 1)))
    h = triangle(5.0, 2.0, 1.0, 9.0)
    d2j = second_variation(spec, 1.0, 9.0, h)
    for sig in (1.0, 3.0, 10.0):
        j = action(spec, perturb_curve(zero, scale(h, sig)))
        assert abs(j - sig * sig * d2j) <= 1e-9 * abs(sig * sig * d2j)


def test_base_curve_independence(warm_state):
    # d2J extracted from increments agrees across two different base curves
    pot = QuadraticDiagonal([1.0])
    spec = LagrangianSpec(Vanishing(3.0), pot)
    x1, v1 = warm_state
    n = 8192
    grid = np.linspace(1.0, 9.0, n + 1)
    bases = [integrate_flow(pot, Vanishing(3.0), [x1], [v1], 1.0, 9.0, n),
             Trajectory(grid, np.ones((n + 1, 1)), np.zeros((n + 1, 1)))]
    h = triangle(5.0, 2.0, 1.0, 9.0)
    d2j = second_variation(spec, 1.0, 9.0, h, n_steps=n)
    for base in bases:
        inc = (action(spec, perturb_curve(base, h)) - action(spec, base)
               - first_variation(spec, base, h, n_steps=n))
        assert abs(inc - d2j) <= 1e-9 * abs(d2j)


def test_admissibility_enforced():
    # one rule for second_variation, first_variation and perturb_curve: the
    # probe's interval, its component and its values at both ends
    spec = _spec()
    curve = Trajectory(np.linspace(1.0, 3.0, 65), np.zeros((65, 1)), np.zeros((65, 1)))
    bad = [sinusoid(1, 1.0, 4.0),  # interval mismatch
           dataclasses.replace(sinusoid(1, 1.0, 3.0), component=1),
           Perturbation("triangle", 1.0, 3.0, params=(1.0, 0.5, 0.005))]  # h(t1) = 1
    for h in bad:
        for call in (lambda: second_variation(spec, 1.0, 3.0, h),
                     lambda: first_variation(spec, curve, h),
                     lambda: perturb_curve(curve, h)):
            with pytest.raises(ValueError):
                call()


def test_second_variation_report_schema(tmp_path):
    # the record `vnag second-variation` writes for each probe
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 0.5, "t2": 3.5},
        "perturbations": [{"kind": "triangle", "c": 2.0, "eps": 1.0}]}))
    assert main(["second-variation", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    (rep,) = json.loads((tmp_path / "report.json").read_text())["results"]["table"]
    assert set(rep) == {"value", "t1", "t2", "perturbation", "spec", "d2j_quadrature",
                        "d2j_closed_form", "relative_difference"}
    assert rep["value"] == rep["d2j_quadrature"] == pytest.approx(7.13333333, abs=1e-3)
    assert rep["perturbation"]["kind"] == "triangle"
    assert rep["spec"]["damping"] == {"kind": "vanishing", "c": 3.0}
    assert rep["spec"]["potential"]["kind"] == "quadratic"


# ---------------------------------------------- one pass against the span loop


def _span_grids(t1, t2, inner_knots, n_steps):
    """Each span's own grid, cut from the one array of nodes."""
    nodes, spans = _span_nodes(t1, t2, inner_knots, n_steps)
    return [nodes[i0:i1] for i0, i1, _ in spans]


def _second_variation_per_span(spec, t1, t2, h, n_steps, base=None):
    """The span-by-span evaluation that second_variation replaced: weight, Q,
    h and h' evaluated anew on each inter-knot span."""
    total = 0.0
    for nodes in _span_grids(t1, t2, h.interior_knots(), n_steps):
        w = np.asarray(spec.damping.weight(nodes), dtype=float)
        if isinstance(spec.pot, QuadraticDiagonal):
            q = -spec.pot.eigenvalues[h.component] * w
        else:
            q = -spec.pot.second_deriv(base.sample(nodes)[0][:, 0]) * w
        hv, hd = h.values(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = 0.5 * (w * hd * hd + q * hv * hv)
            total += _simpson(integrand, float(nodes[1] - nodes[0]))
    return float(total)


def _first_variation_per_span(spec, curve, h, n_steps):
    """The span-by-span evaluation that first_variation replaced."""
    comp = h.component
    total = 0.0
    for nodes in _span_grids(curve.t1, curve.t2, h.interior_knots(), n_steps):
        xs, vs = curve.sample(nodes)
        w = np.asarray(spec.damping.weight(nodes), dtype=float)
        hv, hd = h.values(nodes)
        g = spec.pot.grad_rows(xs)[:, comp]
        integrand = w * (vs[:, comp] * hd - g * hv)
        total += _simpson(integrand, float(nodes[1] - nodes[0]))
    return float(total)


_DAMPINGS = (Vanishing(3.0), Vanishing(2.5), Constant(0.7))


@functools.lru_cache(maxsize=None)
def _quartic_base(i):
    """A quartic-potential flow covering every window drawn below."""
    return integrate_flow(Polynomial1D(1.0, 4), _DAMPINGS[i], [1.2], [0.0], 0.2, 9.5, 4000)


@st.composite
def _probe_cases(draw):
    i = draw(st.integers(0, len(_DAMPINGS) - 1))
    t1 = draw(st.floats(0.2, 3.0))
    t2 = t1 + draw(st.floats(1.0, 6.0))
    kind = draw(st.sampled_from(["triangle", "sinusoid", "fourier"]))
    if kind == "triangle":
        c = t1 + (t2 - t1) * draw(st.floats(0.2, 0.8))
        eps = min(c - t1, t2 - c) * draw(st.floats(0.05, 0.95))
        delta = draw(st.one_of(st.none(), st.floats(1e-4, 1.0).map(lambda f: f * eps / 100.0)))
        h = triangle(c, eps, t1, t2, delta=delta)
    elif kind == "sinusoid":
        h = sinusoid(draw(st.integers(1, 5)), t1, t2)
    else:
        h = fourier_sine(draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 8)),
                         draw(st.floats(0.5, 2.5)), t1, t2)
    h = scale(h, draw(st.floats(0.0, 20.0)))
    quartic = draw(st.booleans())
    if quartic:
        pot = Polynomial1D(1.0, 4)
    else:
        pot = QuadraticDiagonal([draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))])
        h = dataclasses.replace(h, component=draw(st.integers(0, 1)))
    return LagrangianSpec(_DAMPINGS[i], pot), h, draw(st.integers(64, 4096)), quartic, i


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_probe_cases())
def test_one_pass_variations_match_span_loop(case):
    # bit-identical: the one-pass integrand is the span loop's, node for node
    spec, h, n_steps, quartic, i = case
    t1, t2 = h.t1, h.t2
    base = _quartic_base(i) if quartic else None
    assert (second_variation(spec, t1, t2, h, n_steps=n_steps, base=base)
            == _second_variation_per_span(spec, t1, t2, h, n_steps, base))
    x0 = [1.2] if quartic else [1.0, -0.5]
    curve = integrate_flow(spec.pot, spec.damping, x0, np.zeros(len(x0)), t1, t2, 200)
    curve = perturb_curve(curve, scale(h, 0.5))
    assert (first_variation(spec, curve, h, n_steps=n_steps)
            == _first_variation_per_span(spec, curve, h, n_steps))


def _linspace_spans(t1, t2, inner_knots, n_steps):
    """The reference for `_span_nodes`: one np.linspace call per inter-knot
    span, the grids concatenated, and each span's (start, stop, step)."""
    bounds = [t1, *sorted(k for k in inner_knots if t1 < k < t2), t2]
    grids, spans = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = max(32, 2 * math.ceil(n_steps * (b - a) / (t2 - t1) / 2.0))
        grids.append(np.linspace(a, b, n + 1))
        start = spans[-1][1] if spans else 0
        spans.append((start, start + n + 1, float(grids[-1][1] - grids[-1][0])))
    return np.concatenate(grids), spans


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(t1=0.0, width=1e-321, fractions=[], n_steps=4096)  # the step underflows to 0
@example(t1=1.0, width=2.0, fractions=[0.5, 0.5001, 0.5002, 0.9, 0.9, 0.99999], n_steps=20000)
@example(t1=-3.0, width=1e-300, fractions=[0.25, 0.5, 0.75], n_steps=1)
@given(t1=st.floats(-1e6, 1e6),
       width=st.one_of(st.floats(1e-300, 1e6), st.floats(1e-323, 1e-300)),
       fractions=st.lists(st.one_of(st.floats(-0.1, 1.1), st.floats(0.0, 1e-3)), max_size=8),
       n_steps=st.integers(1, 20000))
def test_span_nodes_match_per_span_linspace(t1, width, fractions, n_steps):
    # bit for bit, with the spans' (start, stop, step): nodes, knots outside
    # the window dropped, short spans at the 32-interval floor, and numpy's
    # own branch where a span's step underflows to 0
    t2 = t1 + width
    assume(t1 < t2)
    knots = [t1 + width * f for f in fractions]
    nodes, spans = _span_nodes(t1, t2, knots, n_steps)
    want, want_spans = _linspace_spans(t1, t2, knots, n_steps)
    assert np.array_equal(nodes, want) and np.array_equal(np.signbit(nodes), np.signbit(want))
    assert spans == want_spans
    assert all(type(v) is int for span in spans for v in span[:2])


@pytest.mark.parametrize("knot", [2.0, 2.0 + 1e-10, math.nextafter(2.0, 3.0), 1.0, 3.5],
                         ids=["on_grid", "off_grid", "ulp_off_grid", "at_t1", "past_t2"])
def test_knot_must_be_a_grid_time(knot):
    # the knot splits the quadrature only where it equals an interior grid time exactly
    spec = _spec()
    t = np.concatenate([np.linspace(1.0, 2.0, 33), np.linspace(2.0, 3.0, 33)[1:]])
    curve = Trajectory(t, np.zeros_like(t), np.ones_like(t), knots=(knot,))
    if knot != 2.0:
        with pytest.raises(ValueError, match="knot time missing"):
            action(spec, curve)
    else:  # 0.5 int t^3 dt over [1, 3], exact under Simpson
        assert action(spec, curve) == pytest.approx(10.0, rel=1e-14)
