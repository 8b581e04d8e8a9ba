import itertools
import math

import numpy as np
import pytest

from vnag import (Constant, NumericalError, Polynomial1D, QuadraticDiagonal,
                  Trajectory, Vanishing, constant_damping_solution, el_residual,
                  integrate_flow, integrate_gradient_flow)
from vnag import dynamics
from vnag.experiments import trajectory_table
from vnag.numtext import csv


def test_critical_damping_closed_form():
    # alpha = 2 sqrt(beta) with (x0, v0) = (1, -1) collapses to exp(-t)
    pot = QuadraticDiagonal([1.0])
    traj = integrate_flow(pot, Constant(2.0), [1.0], [-1.0], 0.0, 5.0, 5000)
    assert np.max(np.abs(traj.x[:, 0] - np.exp(-traj.t))) <= 1e-8


def test_equilibrium_is_fixed():
    for pot, x0 in ((QuadraticDiagonal([2.0, 5.0], xstar=[1.0, -2.0]), [1.0, -2.0]),
                    (QuadraticDiagonal([1.0]), [0.0])):
        traj = integrate_flow(pot, Vanishing(3.0), x0, np.zeros(len(x0)), 0.5, 10.0, 500)
        assert np.max(np.abs(traj.x - np.asarray(x0))) <= 1e-14
        assert np.max(np.abs(traj.v)) <= 1e-14


def test_vanishing_damping_rate():
    # t^2 f(X(t)) stays bounded on [1, 20] (fine-grid reference value ~0.677)
    pot = QuadraticDiagonal([1.0])
    traj = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 0.01, 20.0, 20000)
    mask = traj.t >= 1.0
    t2f = traj.t[mask] ** 2 * 0.5 * traj.x[mask, 0] ** 2
    assert t2f.max() <= 8.0


def test_rk4_order():
    # global error on the critical-damping closed form drops ~16x per doubling
    pot = QuadraticDiagonal([1.0])

    def err(n):
        traj = integrate_flow(pot, Constant(2.0), [1.0], [0.0], 0.0, 5.0, n)
        ref = constant_damping_solution(1.0, 2.0, 1.0, 0.0, traj.t)
        return np.max(np.abs(traj.x[:, 0] - ref))

    ratio = err(200) / err(400)
    assert 12.0 <= ratio <= 20.0


def test_energy_dissipation():
    pot = QuadraticDiagonal([1.0, 3.0])
    traj = integrate_flow(pot, Constant(0.7), [1.0, -1.0], [0.5, 0.0], 0.0, 20.0, 4000)
    energy = 0.5 * np.einsum("ij,ij->i", traj.v, traj.v) + pot.value_rows(traj.x)
    assert np.all(np.diff(energy) <= 1e-9)


def test_derivs_consistent_with_values():
    # centered differences of x reproduce v at second order
    pot = QuadraticDiagonal([2.0])

    def dev(n):
        traj = integrate_flow(pot, Constant(1.0), [1.0], [0.0], 0.0, 5.0, n)
        h = traj.step
        cd = (traj.x[2:, 0] - traj.x[:-2, 0]) / (2 * h)
        return np.max(np.abs(cd - traj.v[1:-1, 0]))

    assert dev(500) / dev(1000) == pytest.approx(4.0, rel=0.15)


def test_el_residual():
    pot = QuadraticDiagonal([1.0])
    # constant trajectory at the optimizer has zero residual
    t = np.linspace(1.0, 5.0, 101)
    flat = Trajectory(t, np.zeros((101, 1)), np.zeros((101, 1)))
    assert el_residual(flat, pot, Vanishing(3.0)) <= 1e-14
    # residual shrinks at second order under step halving
    pre = integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 0.01, 1.0, 4000)
    r = []
    for n in (4000, 8000):
        traj = integrate_flow(pot, Vanishing(3.0), pre.x[-1], pre.v[-1], 1.0, 10.0, n)
        r.append(el_residual(traj, pot, Vanishing(3.0)))
    assert r[0] <= 1e-5
    assert r[0] / r[1] >= 3.5


def test_el_residual_chunks_keep_max_and_nan():
    # rows in several chunks: the largest row in the last chunk wins, and a
    # NaN in any one chunk makes the whole residual NaN
    pot = QuadraticDiagonal([1.0])
    n = 2 * dynamics._CHUNK + 10
    t = np.linspace(1.0, 5.0, n)
    x = np.zeros((n, 1))
    x[-3] = 2.0
    assert el_residual(Trajectory(t, x, np.zeros((n, 1))), pot, Vanishing(3.0)) == 2.0
    x = x.copy()  # Trajectory froze x
    x[dynamics._CHUNK + 5] = math.nan
    assert math.isnan(el_residual(Trajectory(t, x, np.zeros((n, 1))), pot, Vanishing(3.0)))


def test_constant_damping_solution_regimes():
    pot = QuadraticDiagonal([2.0])
    for alpha in (0.5, 2.0 * math.sqrt(2.0), 5.0):
        traj = integrate_flow(pot, Constant(alpha), [1.0], [0.3], 0.0, 6.0, 4000)
        ref = constant_damping_solution(2.0, alpha, 1.0, 0.3, traj.t)
        assert np.max(np.abs(traj.x[:, 0] - ref)) <= 1e-9


def test_gradient_flow():
    pot = QuadraticDiagonal([1.0])
    traj = integrate_gradient_flow(pot, [1.0], 0.0, 10.0, 2000)
    assert np.max(np.abs(traj.x[:, 0] - np.exp(-traj.t))) <= 1e-10
    np.testing.assert_allclose(traj.v, -traj.x, atol=1e-14)


def test_preconditions():
    pot = QuadraticDiagonal([1.0])
    with pytest.raises(ValueError):
        integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 0.0, 5.0, 100)
    with pytest.raises(ValueError):
        integrate_flow(pot, Constant(1.0), [1.0], [0.0], 2.0, 1.0, 100)
    with pytest.raises(ValueError):
        integrate_flow(pot, Constant(1.0), [1.0], [0.0], 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        integrate_flow(pot, Constant(1.0), [1.0, 2.0], [0.0], 0.0, 1.0, 10)
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            Constant(alpha)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Vanishing(c)


def test_csv_roundtrip():
    pot = QuadraticDiagonal([1.0, 2.0])
    traj = integrate_flow(pot, Constant(1.0), [1.0, -1.0], [0.0, 0.5], 0.0, 1.0, 10)
    _, header, columns = trajectory_table("traj.csv", traj)
    text = b"".join(csv(header, columns)).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x_0,x_1,v_0,v_1"
    assert len(lines) == 12
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(back[:, 0], traj.t)
    np.testing.assert_array_equal(back[:, 1:3], traj.x)
    np.testing.assert_array_equal(back[:, 3:5], traj.v)


def test_sample_matches_nodes():
    pot = QuadraticDiagonal([1.0])
    traj = integrate_flow(pot, Constant(1.0), [1.0], [0.0], 0.0, 5.0, 100)
    xs, vs = traj.sample(traj.t[::7])
    np.testing.assert_allclose(xs[:, 0], traj.x[::7, 0], atol=1e-14)
    np.testing.assert_allclose(vs[:, 0], traj.v[::7, 0], atol=1e-12)


def test_hermite_positions_are_sample_positions():
    # the position-only evaluation gives sample's positions bit for bit
    rng = np.random.default_rng(3)
    for traj in (integrate_flow(Polynomial1D(1.0, 4, 0.0), Vanishing(3.0), [1.5], [0.0],
                                0.2, 12.2, 600),
                 integrate_flow(QuadraticDiagonal([0.3, 5.0]), Constant(0.4), [1.0, -2.0],
                                [0.5, 0.0], 0.0, 9.0, 250)):
        for times in (rng.uniform(traj.t1, traj.t2, 500), traj.t, [traj.t1, traj.t2], traj.t2):
            assert np.array_equal(traj._hermite(times)[0], traj.sample(times)[0])


def test_sample_of_no_times_and_nan_times():
    traj = integrate_flow(QuadraticDiagonal([0.3, 5.0]), Constant(0.4), [1.0, -2.0],
                          [0.5, 0.0], 0.0, 9.0, 250)
    for times in ([], np.empty(0)):
        xs, vs = traj.sample(times)
        assert xs.shape == vs.shape == (0, 2)
    # NaN compares False both ways, so it must not slip past the range check
    for times in (np.nan, [np.nan], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.sample(times)


def test_constant_coefficient_is_alpha():
    a = 0.7
    for t in (1.5, np.linspace(0.0, 3.0, 7), np.ones((4, 1))):
        assert Constant(a).coefficient(t) is a


def test_step_maps_float_path_matches_column_path():
    # root refinement steps from a float start time, the chunked march from a
    # column of them: the entries agree bit for bit
    t = np.linspace(0.3, 7.0, 9)
    eig = np.array([0.04, 0.9, 7.0])
    cases = [(d.coefficient, lambda s: eig)
             for d in (Vanishing(3.0), Vanishing(2.5), Constant(0.15))]
    cases.append((Vanishing(2.5).coefficient, lambda s: 0.9))  # a Jacobi field's scalar curvature
    for (dampf, qfn), h in itertools.product(cases, (0.01, 0.37)):
        col = [np.broadcast_to(e, (len(t), 3))
               for e in dynamics._step_maps(dampf, qfn, t[:, None], h)]
        for j, tj in enumerate(t):
            for e, c in zip(dynamics._step_maps(dampf, qfn, float(tj), h), col):
                assert np.array_equal(np.broadcast_to(e, (3,)), c[j])


def test_propagator_matches_sequential_rk4():
    # QuadraticDiagonal flows take the transfer-matrix scan; the same
    # quadratic written as Polynomial1D(lam/2, 2) takes the sequential
    # stepper.  Both are RK4 on the same grid, so they agree to rounding.
    for lam, damping, t1, t2, n in ((1.0, Vanishing(3.0), 0.5, 12.0, 3000),
                                    (0.04, Constant(0.15), 0.01, 50.0, 2500),
                                    (7.0, Constant(6.0), 0.0, 4.0, 1200),
                                    (2.5, Vanishing(2.5), 1.0, 9.0, 5000)):
        x0, v0 = [1.3], [-0.4]
        tr = integrate_flow(QuadraticDiagonal([lam], xstar=[0.25]), damping, x0, v0, t1, t2, n)
        ref = integrate_flow(Polynomial1D(lam / 2.0, 2, 0.25), damping, x0, v0, t1, t2, n)
        assert np.max(np.abs(tr.x - ref.x)) <= 1e-12
        assert np.max(np.abs(tr.v - ref.v)) <= 1e-12


def test_propagator_chunk_seams(monkeypatch):
    # chunks of 7 steps x directions put a seam every few steps; the carried
    # state must give the same trajectory as the default chunking
    pot = QuadraticDiagonal([0.3, 2.0, 9.0], xstar=[1.0, 0.0, -1.0])
    cases = [(Vanishing(3.0), 0.2, 10.0, 4001), (Constant(0.7), 0.0, 20.0, 997)]
    runs = [integrate_flow(pot, d, [2.0, 1.0, 0.5], [0.0, -1.0, 0.3], t1, t2, n)
            for d, t1, t2, n in cases]
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    for (d, t1, t2, n), want in zip(cases, runs):
        got = integrate_flow(pot, d, [2.0, 1.0, 0.5], [0.0, -1.0, 0.3], t1, t2, n)
        for a, b in ((got.x, want.x), (got.v, want.v)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def _chunk_bytes(qfn, y0, u0, h, n_steps):
    """Every (i0, y bytes, y' bytes) `_linear_chunks` yields under constant damping,
    and the message of the NumericalError that ended it (None if none did)."""
    out = []
    try:
        for i0, y, u in dynamics._linear_chunks(Constant(0.3).coefficient, qfn, y0, u0,
                                                0.3, h, n_steps):
            out.append((i0, y.tobytes(), u.tobytes()))
    except NumericalError as e:
        return out, str(e)
    return out, None


def test_time_invariant_doubling_matches_scan():
    # constant damping with a constant (k,) q has one step map, whose running
    # products the doubling forms; the same row broadcast to (n, k) has a time
    # axis, which forces the Hillis-Steele scan on every chunk
    rng = np.random.default_rng(28)
    for k in (1, 2, 3, 100):
        lam, y0, u0 = rng.uniform(0.5, 2.0, k), rng.uniform(-1, 1, k), rng.uniform(-1, 1, k)
        m = dynamics._CHUNK // k
        for n_steps in (1, 2, m - 1, m, m + 1, 3 * m + 5):
            fast = _chunk_bytes(lambda s: lam, y0, u0, 0.01, n_steps)
            scan = _chunk_bytes(lambda s: np.broadcast_to(lam, (len(s), k)), y0, u0, 0.01, n_steps)
            assert fast == scan and fast[1] is None
            assert len(fast[0]) == -(-n_steps // m)
    # past RK4's stability limit: the state overflows in the fourth chunk on both paths
    lam = np.array([1e4])
    fast = _chunk_bytes(lambda s: lam, np.ones(1), np.zeros(1), 0.0285, 20000)
    scan = _chunk_bytes(lambda s: np.broadcast_to(lam, (len(s), 1)), np.ones(1), np.zeros(1),
                        0.0285, 20000)
    assert fast == scan and len(fast[0]) == 3
    assert fast[1] == "non-finite state encountered during integration"


def test_time_invariant_maps_are_made_once_per_call():
    # each step-map evaluation calls q at the step starts, midpoints and ends
    lam, calls = np.array([0.5, 2.0]), []

    def counting(q):
        def qfn(s):
            calls.append(s)
            return q(s)
        return qfn

    n_chunks = 4
    n_steps = (n_chunks - 1) * (dynamics._CHUNK // 2) + 5
    for qfn, evaluations in ((lambda s: lam, 1),
                             (lambda s: np.broadcast_to(lam, (len(s), 2)), n_chunks)):
        calls.clear()
        chunks = _chunk_bytes(counting(qfn), np.ones(2), np.zeros(2), 0.01, n_steps)[0]
        assert len(chunks) == n_chunks and len(calls) == 3 * evaluations


def _reference_rk4(rhs, y0, t1, t2, n):
    """Classical RK4 on a numpy state vector, one numpy expression per stage."""
    h = (t2 - t1) / n
    out = np.empty((n + 1, len(y0)))
    out[0] = y = np.array(y0, dtype=float)
    for i in range(n):
        t = t1 + i * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        out[i + 1] = y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def test_scalar_stepper_matches_reference_rk4(monkeypatch):
    # the float stepper does the reference's operations in the same order,
    # so Polynomial1D flows and gradient flows agree bit for bit
    dampings = (Vanishing(3.0), Vanishing(2.5), Constant(0.7))
    one_chunk = dynamics._CHUNK
    for p, damping in itertools.product((2, 4, 6), dampings):
        pot = Polynomial1D(0.8, p, 0.1)

        def grad(x):
            return np.array([pot.a * p * (x[0] - pot.xstar) ** (p - 1)])

        def rhs(t, y):
            return np.concatenate((y[1:], -damping.coefficient(t) * y[1:] - grad(y[:1])))

        ref = _reference_rk4(rhs, [1.2, -0.3], 0.2, 6.0, 600)
        for chunk in (one_chunk, 7):  # one schedule chunk, and 86 with a short last one
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            got = integrate_flow(pot, damping, [1.2], [-0.3], 0.2, 6.0, 600)
            assert np.array_equal(got.x[:, 0], ref[:, 0])
            assert np.array_equal(got.v[:, 0], ref[:, 1])
        ref = _reference_rk4(lambda t, y: -grad(y), [1.2], 0.2, 6.0, 600)
        got = integrate_gradient_flow(pot, [1.2], 0.2, 6.0, 600)
        assert np.array_equal(got.x[:, 0], ref[:, 0])
    # on a quadratic the gradient flow takes the closed RK4 factor R(-h lam)^n
    pot = QuadraticDiagonal([0.5, 3.0, 40.0], xstar=[1.0, 0.0, -2.0])
    ref = _reference_rk4(lambda t, y: -pot.grad_rows(y), [2.0, -1.0, 0.5], 0.0, 5.0, 500)
    got = integrate_gradient_flow(pot, [2.0, -1.0, 0.5], 0.0, 5.0, 500)
    assert np.max(np.abs(got.x - ref)) <= 1e-13


def test_divergence_raises_numerical_error():
    # float ** overflows with OverflowError, the array paths with inf
    with pytest.raises(NumericalError):
        integrate_flow(Polynomial1D(1.0, 6), Constant(0.0), [1e70], [0.0], 0.0, 1.0, 10)
    with pytest.raises(NumericalError):
        integrate_gradient_flow(Polynomial1D(1.0, 4), [1e120], 0.0, 1.0, 10)
    with pytest.raises(NumericalError):
        integrate_gradient_flow(QuadraticDiagonal([1e300]), [1.0], 0.0, 10.0, 10)
    # c/t overflows to inf without a RuntimeWarning, on the propagator path
    # and the float stepper alike
    for pot in (QuadraticDiagonal([1.0]), Polynomial1D(1.0, 4)):
        with pytest.raises(NumericalError):
            integrate_flow(pot, Vanishing(3.0), [1.0], [0.0], 1e-320, 1.0, 10)


_GRID = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("call, message", [
    (lambda: Trajectory(_GRID, np.zeros((4, 1)), np.zeros((5, 1))), "inconsistent"),
    (lambda: Trajectory([0.0, 1.0, 1.0], np.zeros(3), np.zeros(3)), "strictly increasing"),
    (lambda: Trajectory(_GRID, np.zeros(5), np.zeros(5)).sample([1.5]), "outside"),
    (lambda: integrate_gradient_flow(QuadraticDiagonal([1.0, 2.0]), [1.0], 0.0, 1.0, 10),
     "x0 dimension"),
    (lambda: Trajectory([0.0, 0.5, math.nan], np.zeros(3), np.zeros(3)), "finite"),
    (lambda: Trajectory([0.0, 0.5, math.inf], np.zeros(3), np.zeros(3)), "finite"),
    # a window reaching t <= 0, where the damping 3/t is not defined
    (lambda: el_residual(Trajectory(np.linspace(-1.0, 1.0, 6), np.zeros(6), np.zeros(6)),
                         QuadraticDiagonal([1.0]), Vanishing(3.0)), "t1 > 0"),
], ids=["arrays", "grid", "sample_range", "gradient_flow_x0", "grid_nan", "grid_inf",
        "el_residual_window"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
