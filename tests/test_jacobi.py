import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vnag import (Constant, LagrangianSpec, Polynomial1D, QuadraticDiagonal,
                  Vanishing, classify, conjugate_points_along,
                  conjugate_points_bessel, conjugate_points_shooting,
                  epsilon_star, first_conjugate_time, integrate_flow,
                  jacobi_closed_vanishing, saddle_witness, second_variation,
                  sinusoid_d2j_closed, triangle, triangle_d2j_closed)
from vnag import (NumericalError, Trajectory, dynamics, first_variation, fourier_sine,
                  integrate_gradient_flow, jacobi, jacobi_solution, sinusoid)


def _vspec(beta=1.0):
    return LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([beta]))


def _cspec(alpha, beta=1.0):
    return LagrangianSpec(Constant(alpha), QuadraticDiagonal([beta]))


def jacobi_closed_constant(alpha, beta, t1, t):
    """Jacobi solution vanishing at t1 for constant damping alpha: critical
    within 1e-12 of alpha = 2 sqrt(beta), else under- or overdamped.

    The underdamped branch uses the phase-shifted form
    exp(-alpha t / 2) sin(omega (t - t1)), omega = sqrt(4 beta - alpha^2)/2,
    which has the same zero set as the textbook tan-based expression but no
    spurious singularities in t1.
    """
    crit = 2.0 * math.sqrt(beta)
    if abs(alpha - crit) <= 1e-12 * max(1.0, crit):
        return (t - t1) * math.exp(-math.sqrt(beta) * t)
    if alpha > crit:
        g = math.sqrt(alpha * alpha - 4.0 * beta) / 2.0
        return math.exp(-alpha * t / 2.0) * (math.exp(g * t) - math.exp(g * (2.0 * t1 - t)))
    omega = math.sqrt(4.0 * beta - alpha * alpha) / 2.0
    return math.exp(-alpha * t / 2.0) * math.sin(omega * (t - t1))


# ---------------------------------------------------------------- closed forms

def test_closed_vanishing_vanishes_at_t1():
    for beta, t1 in ((1.0, 1.0), (4.0, 0.7), (0.3, 2.5)):
        assert abs(jacobi_closed_vanishing(beta, t1, t1)) <= 1e-12


def test_closed_vanishing_satisfies_ode():
    # h'' + (3/t) h' + h = 0, residual by centered differences
    beta, t1 = 1.0, 1.0
    dt = 2e-4
    t = np.arange(1.0, 20.0, dt)
    h = np.array([jacobi_closed_vanishing(beta, t1, x) for x in t])
    hd = (h[2:] - h[:-2]) / (2 * dt)
    hdd = (h[2:] - 2 * h[1:-1] + h[:-2]) / dt ** 2
    res = np.abs(hdd + (3.0 / t[1:-1]) * hd + beta * h[1:-1])
    assert res.max() <= 1e-6


def test_closed_vanishing_zeros_match_cross_product():
    beta, t1 = 1.0, 1.0
    roots = conjugate_points_bessel(beta, t1, 20.0).conjugate_times
    assert len(roots) >= 3
    for r in roots:
        assert abs(jacobi_closed_vanishing(beta, t1, r)) <= 1e-9
    # and the closed form is nonzero strictly between consecutive roots
    mid = 0.5 * (roots[0] + roots[1])
    assert abs(jacobi_closed_vanishing(beta, t1, mid)) > 1e-3


_J11 = 3.8317059702075125  # the double nearest the first zero of J1


@pytest.mark.parametrize("beta, t1", [
    (1.0, 1.0), (4.0, 0.7), (0.3, 2.5), (1.0, _J11), (1.0, 1e-300), (1.0, 2.3e-308),
    (1.0, 1e-310),
], ids=["unit", "beta_4", "beta_0.3", "j1_zero", "tiny", "least_normal", "subnormal"])
def test_closed_vanishing_is_the_unit_slope_field(beta, t1):
    # h(t1) = 0, h'(t1) = 1 from every t1 > 0, a zero of J1 included
    if t1 < sys.float_info.min:  # Y1(s1) overflows float64
        with pytest.raises(NumericalError):
            jacobi_closed_vanishing(beta, t1, 2.0)
        return
    with mp.workdps(50):
        s1 = mp.sqrt(beta) * mp.mpf(t1)
        for t in (t1 + 0.5, t1 + 2.0, t1 + 7.3):
            s = mp.sqrt(beta) * mp.mpf(t)
            w = mp.besselj(1, s1) * mp.bessely(1, s) - mp.bessely(1, s1) * mp.besselj(1, s)
            ref = mp.pi * mp.mpf(t1) ** 2 / 2 * w / mp.mpf(t)
            assert abs(jacobi_closed_vanishing(beta, t1, t) - ref) <= 1e-12 * abs(ref)
    if t1 < 0.5:  # the march cannot start next to the singular damping at t = 0
        return
    ts, hs, _ = jacobi_solution(_vspec(beta), beta, t1, t1 + 10.0, 40000)
    ts, hs = ts[::40], hs[::40]
    closed = np.array([jacobi_closed_vanishing(beta, t1, t) for t in ts])
    assert np.max(np.abs(closed - hs)) <= 1e-10 * np.max(np.abs(hs))
    # shooting from the same start finds the closed form's zeros
    taus = conjugate_points_shooting(_vspec(beta), beta, t1, t1 + 10.0).conjugate_times
    assert taus
    assert max(abs(jacobi_closed_vanishing(beta, t1, tau)) for tau in taus) <= 1e-9


def test_closed_constant_critical_has_no_zero():
    t1 = 0.5
    t = np.linspace(t1 + 1e-9, 50.0, 5000)
    vals = np.array([jacobi_closed_constant(2.0, 1.0, t1, x) for x in t])
    assert np.all(vals > 0.0)


def test_closed_constant_underdamped_first_zero():
    # alpha = beta = 1 from t1 = 0: first zero at 2 pi / sqrt(3)
    target = 2.0 * math.pi / math.sqrt(3.0)
    lo, hi = 3.0, 4.0
    flo = jacobi_closed_constant(1.0, 1.0, 0.0, lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = jacobi_closed_constant(1.0, 1.0, 0.0, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    assert 0.5 * (lo + hi) == pytest.approx(target, abs=1e-9)


def test_closed_constant_overdamped_no_zero():
    t1 = 0.3
    t = np.linspace(t1 + 1e-9, 60.0, 6000)
    vals = np.array([jacobi_closed_constant(3.0, 1.0, t1, x) for x in t])
    assert np.all(vals != 0.0) and np.all(np.sign(vals) == np.sign(vals[0]))


# --------------------------------------------------------------------- shooting

def test_shooting_constant_damping_formula():
    rep = conjugate_points_shooting(_cspec(1.0), 1.0, 0.5, 10.0, n_steps=40000)
    want = [0.5 + 2.0 * k * math.pi / math.sqrt(3.0) for k in (1, 2)]
    assert len(rep.conjugate_times) == 2
    np.testing.assert_allclose(rep.conjugate_times, want, atol=1e-8)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@example(lam=1.0, ratio=0.5, t1=0.5, s=1e3)
@given(lam=st.floats(0.1, 10.0), ratio=st.floats(0.0, 0.8), t1=st.floats(-5.0, 5.0),
       s=st.floats(-50.0, 50.0))
def test_shooting_time_translation_constant_damping(lam, ratio, t1, s):
    # alpha constant: the Jacobi equation is autonomous, so shifting the
    # window by s shifts every conjugate time by s; three zeros, pi/omega
    # apart, lie in the window
    alpha = ratio * 2.0 * math.sqrt(lam)
    omega = math.sqrt(4.0 * lam - alpha * alpha) / 2.0
    t2 = t1 + 3.5 * math.pi / omega
    spec = _cspec(alpha, lam)
    base = conjugate_points_shooting(spec, lam, t1, t2).conjugate_times
    moved = conjugate_points_shooting(spec, lam, t1 + s, t2 + s).conjugate_times
    assert len(base) == len(moved) == 3
    np.testing.assert_allclose(moved, np.array(base) + s, rtol=0, atol=1e-8)


def test_shooting_finds_zeros_of_a_tiny_field():
    # h decays like exp(-2.5 t) to about 1e-217 by t = 200: past t ~ 146 the
    # product of two neighbouring nodes underflows, their signs still differ
    rep = conjugate_points_shooting(_cspec(5.0, 10.0), 10.0, 0.0, 200.0, n_steps=40000)
    omega = math.sqrt(4.0 * 10.0 - 25.0) / 2.0
    k = np.arange(1, len(rep.conjugate_times) + 1)
    assert len(rep.conjugate_times) == 123
    np.testing.assert_allclose(rep.conjugate_times, k * math.pi / omega, rtol=0, atol=1e-7)


def test_shooting_critical_empty():
    rep = conjugate_points_shooting(_cspec(2.0), 1.0, 0.0, 40.0, n_steps=20000)
    assert rep.conjugate_times == ()


def test_shooting_matches_bessel_roots():
    beta, t1 = 2.0, 1.2
    t2 = 12.0
    bes = conjugate_points_bessel(beta, t1, t2).conjugate_times
    sho = conjugate_points_shooting(_vspec(beta), beta, t1, t2,
                                    n_steps=40000).conjugate_times
    assert len(bes) == len(sho) >= 2
    np.testing.assert_allclose(sho, bes, atol=1e-8)


def test_shooting_zero_quality():
    # reported roots satisfy |h(tau)| <= 1e-9 max|h| for the closed form
    rep = conjugate_points_shooting(_cspec(1.0), 1.0, 0.0, 8.0, n_steps=20000)
    t = np.linspace(0.0, 8.0, 2000)
    hmax = max(abs(jacobi_closed_constant(1.0, 1.0, 0.0, x)) for x in t)
    for tau in rep.conjugate_times:
        assert abs(jacobi_closed_constant(1.0, 1.0, 0.0, tau)) <= 1e-9 * hmax


def test_shooting_preconditions():
    with pytest.raises(ValueError):
        conjugate_points_shooting(_vspec(), 1.0, 1.0, 5.0, n_steps=500)
    with pytest.raises(ValueError):
        conjugate_points_shooting(_vspec(), 1.0, 0.0, 5.0)


def test_conjugate_points_along_matches_constant_curvature():
    # p = 2 monomial has f'' = 2a everywhere: the along-path search must
    # agree with the eigenvalue-based one
    a = 0.5
    pot = Polynomial1D(a, 2, 0.0)
    base = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 0.5, 15.0, 8000)
    along = conjugate_points_along(base, pot, Vanishing(3.0), 1.0, 14.0,
                                   n_steps=20000).conjugate_times
    direct = conjugate_points_shooting(_vspec(2.0 * a), 2.0 * a, 1.0, 14.0,
                                       n_steps=20000).conjugate_times
    np.testing.assert_allclose(along, direct, atol=1e-7)


def test_along_curvature_float_matches_column(monkeypatch):
    # root refinement asks f''(Y(t)) at a float time, the march at a column of
    # times: a float comes back, equal to the column entry bit for bit, and so
    # are the step maps built on it
    pot = Polynomial1D(1.0, 4, 0.0)
    base = integrate_flow(pot, Vanishing(3.0), [1.5], [0.0], 0.2, 12.2, 6000)
    seen = {}
    monkeypatch.setattr(jacobi, "_shoot",
                        lambda dampf, qfn, *args, **kw: seen.update(dampf=dampf, qfn=qfn) or [])
    conjugate_points_along(base, pot, Vanishing(2.5), 1.0, 9.0, n_steps=5000)
    dampf, qfn = seen["dampf"], seen["qfn"]
    t = np.concatenate([np.linspace(1.0, 9.0, 11), base.t[100:103], [base.t1, base.t2]])
    col = qfn(t[:, None])
    maps = dynamics._step_maps(dampf, qfn, t[:, None], 0.05)
    assert col.shape == (len(t), 1)
    for j, tj in enumerate(t):
        q = qfn(float(tj))
        assert type(q) is float and q == col[j, 0]
        got = dynamics._step_maps(dampf, qfn, float(tj), 0.05)
        assert all(f == c[j, 0] for f, c in zip(got, maps))


# ----------------------------------------------------- first conjugate / classify

def test_first_conjugate_constant():
    spec = _cspec(2.0)
    assert first_conjugate_time(spec, 1.0, 0.0) is None
    spec = _cspec(1.0)
    assert first_conjugate_time(spec, 1.0, 2.0) == pytest.approx(
        2.0 + 2.0 * math.pi / math.sqrt(3.0), abs=1e-12)


def test_first_conjugate_vanishing_monotone_in_curvature():
    t1 = 1.0
    tau4 = first_conjugate_time(_vspec(4.0), 4.0, t1)
    tau1 = first_conjugate_time(_vspec(1.0), 1.0, t1)
    assert tau4 < tau1


def test_first_conjugate_near_zero_start_hits_flow_crossing():
    # 1-d case, t1 ~ 0: the first conjugate time coincides with the flow's
    # own first crossing of the optimizer (numerical check from t1 = 1e-3;
    # t1 = 0 itself is outside the admissible domain)
    beta = 1.0
    tau = first_conjugate_time(_vspec(beta), beta, 1e-3)
    pot = QuadraticDiagonal([beta])
    traj = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1e-3, 6.0, 60000)
    cross = np.where(traj.x[:-1, 0] * traj.x[1:, 0] < 0)[0]
    t_cross = traj.t[cross[0]]
    assert abs(tau - t_cross) <= 1e-3
    assert tau == pytest.approx(3.8317059702075123, abs=1e-5)


def test_closed_vanishing_not_identically_zero():
    # nontrivial solution: sup |h| over [t1, t1 + 1] is strictly positive
    for beta, t1 in ((1.0, 1.0), (3.0, 0.6)):
        t = np.linspace(t1, t1 + 1.0, 200)
        vals = np.array([jacobi_closed_vanishing(beta, t1, x) for x in t])
        assert np.max(np.abs(vals)) > 0.0


def test_root_search_terminates_at_large_times():
    # past t ~ 8192 one ulp exceeds 1e-12, so an absolute bracket width
    # alone can never be reached; both routes must still return
    cls = classify(QuadraticDiagonal([1.0]), Vanishing(3.0), 1e4, 1e4 + 10.0)
    assert cls.verdict == "saddle"
    assert abs(cls.first_conjugate_times[0] - (1e4 + math.pi)) <= 1e-6
    tau = first_conjugate_time(LagrangianSpec(Vanishing(2.5), QuadraticDiagonal([1.0])),
                               1.0, 1e4)
    assert abs(tau - (1e4 + math.pi)) <= 1e-6


def _check_time_scaling(c, lam, t1, k):
    # h(t/s) solves the Jacobi equation for lam/s^2 under the same c/t
    # damping, so tau(lam/s^2, s t1) = s tau(lam, t1).  With s a power of two
    # every floating-point operation scales exactly.
    s = 2.0 ** k
    tau = first_conjugate_time(LagrangianSpec(Vanishing(c), QuadraticDiagonal([lam])), lam, t1)
    scaled = first_conjugate_time(
        LagrangianSpec(Vanishing(c), QuadraticDiagonal([lam / s ** 2])), lam / s ** 2, s * t1)
    assert tau is not None and t1 < tau
    return tau, scaled, s


_lams = st.floats(min_value=0.05, max_value=20.0)
_t1s = st.floats(min_value=0.2, max_value=1e4)
_ks = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(lam=1.0, t1=1e4, k=1)
@example(lam=1.0, t1=1e4, k=-2)
@given(lam=_lams, t1=_t1s, k=_ks)
def test_time_scaling_bessel(lam, t1, k):
    # the Bessel route works in s = sqrt(lam) t, which both problems share
    tau, scaled, s = _check_time_scaling(3.0, lam, t1, k)
    assert scaled == s * tau


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@example(lam=1.0, t1=1e4, k=1)
@example(lam=1.0, t1=1e4, k=-2)
@given(lam=_lams, t1=_t1s, k=_ks)
def test_time_scaling_shooting(lam, t1, k):
    # shooting scales exactly too; only the absolute 1e-12 stopping width of
    # the root refinement does not
    tau, scaled, s = _check_time_scaling(2.5, lam, t1, k)
    assert abs(scaled - s * tau) <= 1e-10 * s * tau


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@example(beta=1.0, t1=1e4)
@example(beta=0.05, t1=5e4)
@given(beta=st.floats(min_value=0.05, max_value=20.0),
       t1=st.one_of(st.floats(min_value=0.2, max_value=50.0),
                    st.floats(min_value=1e4, max_value=1e5)))
def test_shooting_matches_bessel_random(beta, t1):
    # shooting and the Bessel cross-product condition are independent
    # routes to the same conjugate times for 3/t damping; about four roots
    # lie in a window 12/sqrt(beta) long
    t2 = t1 + 12.0 / math.sqrt(beta)
    bes = conjugate_points_bessel(beta, t1, t2).conjugate_times
    sho = conjugate_points_shooting(_vspec(beta), beta, t1, t2,
                                    n_steps=20000).conjugate_times
    assert len(bes) == len(sho) >= 3
    # compared in s = sqrt(beta) t, where both problems have unit frequency
    np.testing.assert_allclose(math.sqrt(beta) * np.array(sho),
                               math.sqrt(beta) * np.array(bes), rtol=0, atol=1e-8)


def test_first_conjugate_shooting_stops_at_first_root():
    # c != 3 marches only until the first sign change, so neither cost nor
    # memory grows with t2 once the first conjugate time is found
    pot = QuadraticDiagonal([1.0])
    short = classify(pot, Vanishing(2.5), 1.0, 20.0).first_conjugate_times[0]
    tracemalloc.start()
    try:
        long = classify(pot, Vanishing(2.5), 1.0, 1e4).first_conjugate_times[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert abs(long - short) <= 1e-9
    assert 4.0 < short < 4.5


def test_shooting_chunk_seams(monkeypatch):
    # seams every 7 steps must not move the marched field (to 1e-13
    # relative) or its zeros (to the 1e-12 stopping width of the refinement)
    spec = _vspec(1.7)
    roots = conjugate_points_shooting(spec, 1.7, 0.8, 14.0).conjugate_times
    _, h, hp = jacobi_solution(spec, 1.7, 0.8, 14.0)
    base = integrate_flow(Polynomial1D(1.0, 4, 0.0), Vanishing(3.0), [1.5], [0.0], 0.2, 8.2, 3000)
    along = conjugate_points_along(base, Polynomial1D(1.0, 4, 0.0), Vanishing(3.0),
                                   0.3, 8.0, n_steps=4000).conjugate_times
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    np.testing.assert_allclose(conjugate_points_shooting(spec, 1.7, 0.8, 14.0).conjugate_times,
                               roots, rtol=0, atol=1e-12)
    _, h7, hp7 = jacobi_solution(spec, 1.7, 0.8, 14.0)
    assert np.max(np.abs(h7 - h)) <= 1e-13 * np.max(np.abs(h))
    assert np.max(np.abs(hp7 - hp)) <= 1e-13 * np.max(np.abs(hp))
    assert len(along) >= 1
    np.testing.assert_allclose(
        conjugate_points_along(base, Polynomial1D(1.0, 4, 0.0), Vanishing(3.0),
                               0.3, 8.0, n_steps=4000).conjugate_times, along, rtol=0, atol=1e-12)


def test_classify_overdamped_minimizer():
    pot = QuadraticDiagonal([1.0])
    for alpha in (2.0, 2.5):
        for t2 in (10.0, 100.0):
            cls = classify(pot, Constant(alpha), 0.0, t2)
            assert cls.verdict == "minimizer"
            assert cls.binding_eigenvalue is None


def test_classify_underdamped_saddle():
    cls = classify(QuadraticDiagonal([1.0]), Constant(1.0), 0.0, 4.0)
    assert cls.verdict == "saddle"
    assert cls.binding_eigenvalue == 1.0


def test_classify_at_boundary():
    tau = 2.0 * math.pi / math.sqrt(3.0)
    cls = classify(QuadraticDiagonal([1.0]), Constant(1.0), 0.0, tau)
    assert cls.verdict == "at_boundary"


_TAU = 2.0 * math.pi / math.sqrt(3.0)  # alpha = 1, lam = 1; lam = 0.5 gives 2 pi


@pytest.mark.parametrize("t2, verdict, binding", [
    (_TAU - 2e-9, "minimizer", None),
    (_TAU - 0.5e-9, "at_boundary", 1.0),
    (_TAU + 0.5e-9, "at_boundary", 1.0),
    (_TAU + 2e-9, "saddle", 1.0),
    # tau lies 1.00000008e-9 below t2 but not below the rounded t2 - 1e-9:
    # in the band, whatever the rounding, and never a minimizer
    (3.6275987294684358, "at_boundary", 1.0),
    # the earlier tau of lam = 1 binds whatever lam = 0.5's tau does at t2
    (2.0 * math.pi - 2e-9, "saddle", 1.0),
    (2.0 * math.pi - 0.5e-9, "saddle", 1.0),
    (2.0 * math.pi + 0.5e-9, "saddle", 1.0),
    (2.0 * math.pi + 2e-9, "saddle", 1.0),
])
def test_classify_boundary_band(t2, verdict, binding):
    # constant damping alpha = 1 on [0, t2]: tau = 2 pi / sqrt(4 lam - 1);
    # the band is |tau - t2| <= 1e-9
    cls = classify(QuadraticDiagonal([1.0, 0.5]), Constant(1.0), 0.0, t2)
    assert (cls.verdict, cls.binding_eigenvalue) == (verdict, binding)


def test_classify_vanishing_threshold():
    # interval longer than sqrt(40/beta) must be a saddle
    cls = classify(QuadraticDiagonal([10.0]), Vanishing(3.0), 0.5, 0.5 + 2.1)
    assert cls.verdict == "saddle"


def test_classify_binding_is_sharpest_direction():
    pot = QuadraticDiagonal([0.5, 8.0])
    cls = classify(pot, Vanishing(3.0), 1.0, 9.0)
    assert cls.verdict == "saddle"
    assert cls.binding_eigenvalue == 8.0
    taus = cls.first_conjugate_times
    assert taus[1] < taus[0]


def test_classify_rejects_polynomial():
    with pytest.raises(ValueError):
        classify(Polynomial1D(1.0, 4), Vanishing(3.0), 1.0, 5.0)


# ------------------------------------------------------------- probe closed forms

def test_epsilon_star_values():
    assert epsilon_star(0.0, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert epsilon_star(4.0, 1.0) == pytest.approx(2.20767, abs=1e-5)
    # large-u limit: eps^2 * beta -> 3
    assert epsilon_star(1e7, 2.0) ** 2 * 2.0 == pytest.approx(3.0, abs=1e-5)


def test_triangle_closed_form():
    assert triangle_d2j_closed(1.0, 2.0, 1.0) == pytest.approx(
        10.7 * 2.0 / 3.0, rel=1e-12)
    star = epsilon_star(4.0, 1.0)
    assert abs(triangle_d2j_closed(1.0, 2.0, star)) <= 1e-12
    # sigma scaling
    assert triangle_d2j_closed(1.0, 2.0, 1.0, sigma=3.0) == pytest.approx(
        9.0 * triangle_d2j_closed(1.0, 2.0, 1.0), rel=1e-12)


def test_sinusoid_closed_form():
    val = sinusoid_d2j_closed(0.0, 2.0 * math.pi, 1)
    assert val == pytest.approx(-(math.exp(2 * math.pi) - 1.0) / 32.0, rel=1e-12)
    # sign threshold: negative exactly when T > sqrt(2) k pi
    for k in (1, 2, 3):
        thr = math.sqrt(2.0) * k * math.pi
        assert sinusoid_d2j_closed(0.0, thr * 1.05, k) < 0
        assert sinusoid_d2j_closed(0.0, thr * 0.95, k) > 0
    # e^(t2 - t1) overflows on [-1000, 6], but e^t2 - e^t1 does not; e^t1
    # underflows to 0 on [-800, -700] and is subnormal on [-720, -700], yet
    # e^t2 - e^t1 is a normal double on all three
    for t1, t2 in ((-1000, 6), (-800, -700), (-720, -700)):
        with mp.workdps(30):
            a, b = mp.mpf(t1), mp.mpf(t2)
            span, kk = b - a, mp.pi ** 2
            exact = ((mp.e ** b - mp.e ** a) * kk * (2 * kk - span ** 2)
                     / (2 * span ** 2 * (4 * kk + span ** 2)))
        assert sinusoid_d2j_closed(float(t1), float(t2), 1) == pytest.approx(
            float(exact), rel=1e-13, abs=0.0), (t1, t2)
    with pytest.raises(OverflowError):  # e^t1 and e^t2 both overflow
        sinusoid_d2j_closed(710.0, 716.0, 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.5, 8.0), c=st.floats(2.0, 8.0), frac=st.floats(0.05, 0.95))
def test_triangle_closed_form_matches_quadrature(beta, c, frac):
    # criterion 07's bound at random (beta, c, eps), with eps at least 10%
    # away from eps*, the root where a relative comparison is ill-posed
    t1 = 0.5
    eps = frac * (c - t1)
    star = epsilon_star(beta * c * c, beta)
    assume(abs(eps - star) >= 0.1 * star)
    t2 = c + eps + 1.0
    quad = second_variation(_vspec(beta), t1, t2, triangle(c, eps, t1, t2))
    closed = triangle_d2j_closed(beta, c, eps)
    assert abs(quad - closed) <= 1e-4 * abs(closed)


def test_sign_change_bracket():
    # the eps sign flip of the triangle d2J always lands inside
    # [sqrt(3/beta), sqrt(10/beta)]
    for beta in (0.5, 1.0, 3.0):
        for c in (1.0, 4.0, 20.0):
            star = epsilon_star(beta * c * c, beta)
            assert math.sqrt(3.0 / beta) <= star <= math.sqrt(10.0 / beta)
            assert triangle_d2j_closed(beta, c, 0.9 * star) > 0
            assert triangle_d2j_closed(beta, c, 1.1 * star) < 0


def test_saddle_witness():
    w = saddle_witness(1.0, 1.0, 9.0)
    assert w is not None
    assert w["small"]["d2j_quadrature"] > 0 > w["large"]["d2j_quadrature"]
    assert w["small"]["d2j_closed_form"] > 0 > w["large"]["d2j_closed_form"]
    # too short an interval: no wide-bump certificate available
    assert saddle_witness(1.0, 1.0, 2.0) is None
    # eps* just 0.12% below the half-width: the wide probe's corner blend
    # must shrink to stay inside the window
    beta, t1, t2 = 10.2316, 1.04398, 2.17227
    w = saddle_witness(beta, t1, t2)
    assert w is not None
    assert 0.99 * 0.5 * (t2 - t1) < w["epsilon_star"] < 0.5 * (t2 - t1)
    assert w["small"]["d2j_quadrature"] > 0 > w["large"]["d2j_quadrature"]
    for key in ("small", "large"):
        closed = w[key]["d2j_closed_form"]
        assert abs(w[key]["d2j_quadrature"] - closed) <= 1e-4 * abs(closed)


def test_saddle_witness_overflow():
    # on [1, 1e300] beta c^2 overflows and eps* is not finite
    with pytest.raises(NumericalError):
        saddle_witness(1.0, 1.0, 1e300)


def test_window_rule_at_every_entry_point():
    # finite t1 < t2, and t1 > 0 under c/t damping, wherever a window is taken
    pot = QuadraticDiagonal([1.0])
    spec = _vspec()
    base = integrate_flow(Polynomial1D(1.0, 4), Vanishing(3.0), [1.0], [0.0], 0.5, 9.0, 2000)
    calls = [
        lambda a, b: integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], a, b, 100),
        lambda a, b: integrate_gradient_flow(pot, [1.0], a, b, 100),
        lambda a, b: jacobi_solution(spec, 1.0, a, b, 100),
        lambda a, b: conjugate_points_shooting(spec, 1.0, a, b),
        lambda a, b: conjugate_points_bessel(1.0, a, b),
        lambda a, b: conjugate_points_along(base, Polynomial1D(1.0, 4), Vanishing(3.0), a, b),
        lambda a, b: first_conjugate_time(spec, 1.0, a, t_max=b),
        lambda a, b: first_conjugate_time(_cspec(1.0), 1.0, a, t_max=b),
        lambda a, b: classify(pot, Vanishing(3.0), a, b),
        lambda a, b: saddle_witness(1.0, a, b),
        lambda a, b: sinusoid(1, a, b),
        lambda a, b: fourier_sine(0, 3, 1.5, a, b),
        lambda a, b: triangle(3.0, 1.0, a, b),
        lambda a, b: sinusoid_d2j_closed(a, b, 1),
    ]
    windows = [(1.0, math.inf), (1.0, math.nan), (math.nan, 9.0), (-math.inf, 9.0),
               (5.0, 1.0), (2.0, 2.0)]
    for call in calls:
        for a, b in windows:
            with pytest.raises(ValueError):
                call(a, b)
    for a in (math.nan, math.inf):  # t1 alone, without t_max
        with pytest.raises(ValueError):
            first_conjugate_time(spec, 1.0, a)
        with pytest.raises(ValueError):
            first_conjugate_time(_cspec(1.0), 1.0, a)
    # t1 <= 0 under vanishing damping only
    for call in [calls[i] for i in (0, 2, 3, 4, 5, 6, 8, 9)]:
        with pytest.raises(ValueError):
            call(0.0, 9.0)
    h = sinusoid(1, 0.0, 9.0)
    with pytest.raises(ValueError):
        second_variation(spec, 0.0, 9.0, h)
    assert math.isfinite(second_variation(_cspec(1.0), 0.0, 9.0, h))


def test_step_count_rule_at_every_entry_point():
    # an integer n_steps at or above each entry point's floor
    pot = QuadraticDiagonal([1.0])
    spec = _vspec()
    base = integrate_flow(Polynomial1D(1.0, 4), Vanishing(3.0), [1.0], [0.0], 0.5, 9.0, 2000)
    curve = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 9.0, 100)
    h = sinusoid(1, 1.0, 9.0)
    calls = [
        (2, lambda n: integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1.0, 9.0, n)),
        (2, lambda n: integrate_gradient_flow(pot, [1.0], 1.0, 9.0, n)),
        (1, lambda n: jacobi_solution(spec, 1.0, 1.0, 5.0, n)),
        (1000, lambda n: conjugate_points_shooting(spec, 1.0, 1.0, 5.0, n)),
        (1000, lambda n: conjugate_points_along(base, Polynomial1D(1.0, 4), Vanishing(3.0),
                                                1.0, 5.0, n)),
        (1, lambda n: second_variation(spec, 1.0, 9.0, h, n)),
        (1, lambda n: first_variation(spec, curve, h, n)),
    ]
    for floor, call in calls:
        call(floor)
        for n in (floor - 1, 0, -1, float(floor), True, None):
            with pytest.raises(ValueError):
                call(n)


def test_shooting_route_returns_python_floats():
    spec = LagrangianSpec(Vanishing(2.5), QuadraticDiagonal([1.0]))
    tau = first_conjugate_time(spec, 1.0, 1.0)
    assert type(tau) is float
    rep = conjugate_points_shooting(spec, 1.0, 1.0, 12.0)
    assert rep.conjugate_times and all(type(z) is float for z in rep.conjugate_times)


def test_unresolvable_conjugate_time_raises():
    # lam = 1e300: the first conjugate time lies within one ulp of t1, where
    # the Bessel scan used to loop forever and shooting reported none
    for c in (3.0, 2.5):
        with pytest.raises(NumericalError):
            classify(QuadraticDiagonal([1e300]), Vanishing(c), 1.0, 6.0)


def test_quadrature_matches_triangle_closed_form():
    spec = _vspec(2.0)
    h = triangle(4.0, 1.1, 0.5, 9.0)
    quad = second_variation(spec, 0.5, 9.0, h)
    closed = triangle_d2j_closed(2.0, 4.0, 1.1)
    assert abs(quad - closed) <= 1e-4 * abs(closed)


def test_reports_serialize():
    rep = conjugate_points_bessel(1.0, 1.0, 12.0)
    d = rep.to_dict()
    assert d["method"] == "closed_form" and len(d["conjugate_times"]) >= 2
    cls = classify(QuadraticDiagonal([1.0]), Constant(1.0), 0.0, 4.0)
    cd = cls.to_dict()
    assert cd["verdict"] == "saddle" and cd["eigenvalues"] == [1.0]


def _outside_window():
    base = integrate_flow(Polynomial1D(1.0, 4), Vanishing(3.0), [1.0], [0.0], 1.0, 2.0, 100)
    return conjugate_points_along(base, Polynomial1D(1.0, 4), Vanishing(3.0), 1.0, 3.0)


@pytest.mark.parametrize("call, message", [
    (lambda: jacobi_closed_vanishing(1.0, 0.0, 2.0), "t1 > 0"),
    (_outside_window, "window outside"),
    (lambda: first_conjugate_time(_vspec(), 0.0, 1.0), "eigen_lambda"),
    (lambda: epsilon_star(-1.0, 1.0), "u >= 0"),
    (lambda: epsilon_star(1.0, 0.0), "beta > 0"),
    (lambda: sinusoid_d2j_closed(0.0, 1.0, 0), "k >= 1"),
], ids=["closed_t1", "along_window", "lambda", "eps_star_u", "eps_star_beta", "sinusoid_k"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _sample_past_tiny_curve():
    curve = Trajectory(np.array([0.0, 1e-14]), np.array([[1.0], [2.0]]), np.zeros((2, 1)))
    return curve.sample([5e-13])


def _window_past_tiny_base():
    quartic = Polynomial1D(1.0, 4)
    base = integrate_flow(quartic, Constant(1.0), [1.0], [0.0], 0.0, 1e-12, 100)
    return conjugate_points_along(base, quartic, Constant(1.0), 0.0, 1e-10)


@pytest.mark.parametrize("call, message", [
    (_sample_past_tiny_curve, "outside trajectory range"),
    (_window_past_tiny_base, "window outside"),
], ids=["sample_times", "along_window"])
def test_range_checks_scale_with_the_span(call, message):
    # a time 50 spans past a curve, or a window 100 times the base, is
    # outside it however short the curve is
    with pytest.raises(ValueError, match=message):
        call()


def test_root_scan_yields_an_exact_zero_first(monkeypatch):
    # w(s) = (s - s_k) cos(s) is exactly 0 at the ninth scan point s_k, the
    # first one past s1 + 3, where the scan starts evaluating w; the scan
    # yields that root first, as it does a refined sign change
    s_k = 1.0 + 1e-9  # beta = t1 = 1: the scan starts at s1 + 1e-9
    for _ in range(8):
        s_k += math.pi / 8.0
    monkeypatch.setattr(jacobi, "_cross_product", lambda s1: lambda s: (s - s_k) * math.cos(s))
    assert next(jacobi._cross_product_roots(1.0, 1.0, 10.0)) == s_k
    everything = list(jacobi._cross_product_roots(1.0, 1.0, 10.0))
    assert everything[0] == s_k and len(everything) > 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(s1=st.floats(1e-3, 1e3), beta=st.floats(1e-2, 1e2))
def test_cross_product_zeros_lie_more_than_pi_apart(s1, beta):
    # the gap the root scan steps over: w has one sign on a fine grid over
    # (s1, s1 + 3), and consecutive conjugate times lie more than pi apart in s
    w = jacobi._cross_product(s1)
    signs = {math.copysign(1.0, w(s1 + 3.0 * k / 600)) for k in range(1, 601)}
    assert len(signs) == 1
    t1 = s1 / math.sqrt(beta)
    roots = conjugate_points_bessel(beta, t1, t1 + 40.0 / math.sqrt(beta)).conjugate_times
    assert len(roots) >= 10
    assert min(np.diff((t1, *roots))) > math.pi / math.sqrt(beta)


def test_root_scan_does_not_evaluate_where_no_zero_can_lie(monkeypatch):
    # the scan evaluates w only in pi/8 cells that reach s1 + 3 or a root + 3;
    # the refinement's evaluations stay inside the cell of its root
    beta, t1, t_max = 2.0, 0.7, 40.0
    s1, ds = math.sqrt(beta) * t1, math.pi / 8.0
    calls, cross_product = [], jacobi._cross_product

    def recorded(s1):
        w = cross_product(s1)
        return lambda s: calls.append(s) or w(s)

    expected = list(jacobi._cross_product_roots(beta, t1, t_max))
    monkeypatch.setattr(jacobi, "_cross_product", recorded)
    roots = list(jacobi._cross_product_roots(beta, t1, t_max))
    assert roots == expected and len(roots) == 17
    for z in (s1, *(math.sqrt(beta) * r for r in roots)):
        assert not any(z + ds < s < z + 3.0 - ds for s in calls)
    # two or three scan points and about six refinement steps per root; a
    # scan of every cell adds eight points per root, one per pi/8
    assert len(calls) < 10 * len(roots)
