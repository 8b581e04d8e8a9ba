"""The experiments behind `vnag`: three commands on parsed inputs and the five
`reproduce` figures (`FIGURES`).  Each returns (body, artifacts) and writes
nothing: body holds `results`, `notes` and, for a figure, `inputs`; an artifact is
a table (name, header, columns) for `numtext.csv` or a file (name, chunks) of
bytes, such as a lazy `line_chart`.  `cli` writes the artifacts and report.json."""
from __future__ import annotations

import math

import numpy as np

from .action import LagrangianSpec, action, second_variation
from .dynamics import (Constant, Trajectory, Vanishing,
                       constant_damping_solution, el_residual, integrate_flow)
from .jacobi import (classify, conjugate_points_along, epsilon_star,
                     first_conjugate_time, jacobi_solution, saddle_witness,
                     sinusoid_d2j_closed, triangle_d2j_closed)
from .perturbations import perturb_curve, scale, triangle
from .potentials import Polynomial1D, QuadraticDiagonal
from .svgchart import line_chart

_INITIAL_CONDITION_NOTE = ("initial conditions (x0, v0=0) and start time t1 are "
                           "tool defaults; they are not externally prescribed")


def trajectory_table(name: str, traj: Trajectory) -> tuple:
    """A sampled flow as a CSV table: t,x_0..x_{d-1},v_0..v_{d-1}."""
    names = [f"{q}_{i}" for q in "xv" for i in range(traj.dim)]
    return name, ["t", *names], [traj.t, *traj.x.T, *traj.v.T]


def simulate(pot, damping, x0, v0, t1: float, t2: float, n_steps: int) -> tuple:
    """The flow from (x0, v0) on [t1, t2], its EL residual and closed-form error."""
    traj = integrate_flow(pot, damping, x0, v0, t1, t2, n_steps)
    residual = el_residual(traj, pot, damping)
    results = {"el_residual": residual, "n_steps": n_steps}
    if isinstance(damping, Constant) and isinstance(pot, QuadraticDiagonal):
        err = 0.0
        for i, lam in enumerate(pot.eigenvalues):
            ref = pot.xstar[i] + constant_damping_solution(
                lam, damping.alpha, x0[i] - pot.xstar[i], v0[i], traj.t, t0=t1)
            err = max(err, float(np.max(np.abs(traj.x[:, i] - ref))))
        results["closed_form_max_error"] = err
    series = [(f"x_{i}", traj.t, traj.x[:, i]) for i in range(traj.dim)]
    return ({"results": results, "notes": [_INITIAL_CONDITION_NOTE]},
            [trajectory_table("trajectory.csv", traj),
             ("figure.svg", line_chart(series, title="flow trajectory", xlabel="t", ylabel="x"))])


def _closed_form_for(h, spec: LagrangianSpec) -> float | None:
    pot, damping = spec.pot, spec.damping
    lam = float(pot.eigenvalues[h.component])
    if h.kind == "triangle" and isinstance(damping, Vanishing) and damping.c == 3.0:
        c, eps, _ = h.params
        return triangle_d2j_closed(lam, c, eps, sigma=h.sigma)
    # absolute bounds: alpha and lambda are compared with the constant 1
    if (h.kind == "sinusoid" and isinstance(damping, Constant)
            and abs(damping.alpha - 1.0) < 1e-12 and abs(lam - 1.0) < 1e-12):
        return sinusoid_d2j_closed(h.t1, h.t2, h.params[0], sigma=h.sigma)
    return None


def second_variation_probes(pot: QuadraticDiagonal, damping, t1: float, t2: float,
                            n_steps: int, probes: list) -> tuple:
    """Each probe's d2J on [t1, t2], beside its closed form, and the sign changes."""
    spec = LagrangianSpec(damping, pot)
    table = []
    for h in probes:
        quad = second_variation(spec, t1, t2, h, n_steps=n_steps)
        closed = _closed_form_for(h, spec)
        rel = (abs(quad - closed) / max(1e-300, abs(closed))
               if closed not in (None, 0.0) else None)
        table.append({"value": quad, "t1": t1, "t2": t2, "perturbation": h.descriptor(),
                      "spec": spec.descriptor(), "d2j_quadrature": quad,
                      "d2j_closed_form": closed, "relative_difference": rel})
    sign_changes = []
    for a, b in zip(table[:-1], table[1:]):
        if np.sign(a["d2j_quadrature"]) * np.sign(b["d2j_quadrature"]) < 0:
            sign_changes.append({"between": [a["perturbation"], b["perturbation"]]})
    if probes and probes[0].kind == "triangle":
        lam = float(pot.eigenvalues[0])
        c = probes[0].params[0]
        sign_changes.append({"epsilon_star": epsilon_star(lam * c * c, lam)})
    idx = list(range(len(table)))
    quad = np.array([e["d2j_quadrature"] for e in table], dtype=float)
    # dtype=float turns a missing closed form (None) into nan
    closed = np.array([e["d2j_closed_form"] for e in table], dtype=float)
    files = [("d2j.csv", ["index", "d2j_quadrature", "d2j_closed_form"],
              [np.array(idx, dtype="S"), quad, closed])]
    if len(table) > 1:
        series = [("quadrature", idx, quad)]
        if all(e["d2j_closed_form"] is not None for e in table):
            series.append(("closed form", idx, closed))
        files.append(("figure.svg", line_chart(series, title="second variation by probe",
                                               xlabel="probe index", ylabel="d2J")))
    return {"results": {"table": table, "sign_changes": sign_changes}, "notes": []}, files


def classify_sweep(pot: QuadraticDiagonal, dampings: list, starts: list, lengths: list) -> tuple:
    """The verdict on each window [start, start + length] under each damping."""
    records = []
    for dmp in dampings:
        for start in starts:
            for length in lengths:
                cls = classify(pot, dmp, start, start + length)
                rec = {"damping": dmp.descriptor(), "t1": start, "t2": start + length,
                       "classification": cls.to_dict()}
                if cls.verdict == "saddle" and isinstance(dmp, Vanishing) and dmp.c == 3.0:
                    beta = float(pot.eigenvalues.max())
                    rec["indefiniteness_witness"] = saddle_witness(
                        beta, start, start + length)
                records.append(rec)
    cls = [r["classification"] for r in records]
    # None (no binding eigenvalue) becomes nan
    table = ("classify.csv", ["t1", "t2", "verdict", "binding_eigenvalue"],
             [*(np.array([r[key] for r in records], dtype=float) for key in ("t1", "t2")),
              np.array([c["verdict"] for c in cls], dtype="S"),
              np.array([c["binding_eigenvalue"] for c in cls], dtype=float)])
    return {"results": {"records": records}, "notes": []}, [table]


# --------------------------------------------------------------------------
# figure reproduction experiments


def fig1() -> tuple:
    # flow on f = x^2/2, perturbed along two triangle directions whose
    # second variations have opposite signs on the same interval
    pot = QuadraticDiagonal([1.0])
    damping = Vanishing(3.0)
    t1, t2 = 1.0, 9.0
    spec = LagrangianSpec(damping, pot)
    # warm start: the flow from (x0=1, v0=0) at t=0.01, continued from t1
    pre = integrate_flow(pot, damping, [1.0], [0.0], 0.01, t1, 2000)
    base = integrate_flow(pot, damping, pre.x[-1], pre.v[-1], t1, t2, 4000)
    c = 5.0
    eps_small, eps_large = 1.0, 3.2
    star = epsilon_star(1.0 * c * c, 1.0)
    table = []
    curves = {"base": base}
    base_action = action(spec, base)
    for label, eps in (("small_eps", eps_small), ("large_eps", eps_large)):
        h = triangle(c, eps, t1, t2)
        d2 = second_variation(spec, t1, t2, h)
        closed = triangle_d2j_closed(1.0, c, eps)
        disp = perturb_curve(base, scale(h, 0.6))
        curves[label] = disp
        table.append({"direction": label, "perturbation": h.descriptor(),
                      "d2j_quadrature": d2, "d2j_closed_form": closed,
                      "delta_action": action(spec, disp) - base_action})
    series = [(lbl, traj.t, traj.x[:, 0]) for lbl, traj in curves.items()]
    _, ts, xs = zip(*series)
    files = [("fig1_curves.csv", ["curve", "t", "x"],
              [np.repeat(np.array(list(curves), dtype="S"), [len(t) for t in ts]),
               np.concatenate(ts), np.concatenate(xs)]),
             ("fig1.svg", line_chart(series, title="flow and two perturbation directions",
                                     xlabel="t", ylabel="x"))]
    return {"results": {"table": table, "epsilon_star": star},
            "inputs": {"potential": "quadratic beta=1", "damping": "vanishing c=3",
                       "interval": {"t1": t1, "t2": t2}},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "perturbation family (triangles, small vs large half-width) "
                      "is the tool's choice of opposite-sign directions"]}, files


def fig2() -> tuple:
    from .numtext import g17_cells
    betas = [0.5, 1.0, 2.0, 4.0, 8.0]
    slopes = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
    beta_cells, slope_cells = g17_cells(betas), g17_cells(slopes)
    conj = {}
    files = []
    for t1 in (1.0, 4.0):
        series, markers = [], []
        for beta in betas:
            spec = LagrangianSpec(Vanishing(3.0), QuadraticDiagonal([beta]))
            tau = first_conjugate_time(spec, beta, t1)
            conj[f"t1={t1:g},beta={beta:g}"] = tau
            t_end = tau + 0.15 * (tau - t1)
            ts, ys, _ = jacobi_solution(spec, beta, t1, t_end, 4000)
            series.append((f"beta={beta:g}", ts, ys))
            markers.append((tau, 0.0, "#000"))
        # the Jacobi equation is linear: one unit-slope solution scales to
        # every initial velocity in the fan
        t8s = [ts[::8] for _, ts, _ in series]
        counts = [len(t) for t in t8s]
        t_cells = np.split(g17_cells(np.concatenate(t8s)), np.cumsum(counts[:-1]))
        files.append((f"fig2_t1_{t1:g}.csv", ["beta", "slope", "t", "h"], [
            np.repeat(beta_cells, [len(slopes) * m for m in counts]),
            np.concatenate([np.repeat(slope_cells, m) for m in counts]),
            np.concatenate([np.tile(tc, len(slopes)) for tc in t_cells]),
            np.concatenate([np.outer(slopes, ys[::8]).ravel() for _, _, ys in series])]))
        files.append((f"fig2_t1_{t1:g}.svg", line_chart(
            series, title=f"Jacobi solutions from t1={t1:g} (unit slope)",
            xlabel="t", ylabel="h", markers=markers)))
    return {"results": {"first_conjugate_times": conj},
            "inputs": {"betas": betas, "t1_values": [1.0, 4.0]},
            "notes": ["higher curvature pulls the first conjugate point earlier"]}, files


def fig3() -> tuple:
    # stated scale parameters beta >> mu; the displayed objective
    # 0.02 x^2 + 0.0004 y^2 has Hessian eigenvalues (0.04, 0.0008), i.e. the
    # stated beta/mu are the quadratic coefficients, not the eigenvalues.
    # The alpha sweep and classification use the stated values verbatim.
    beta_stated, mu_stated = 2e-2, 3e-4
    pot = QuadraticDiagonal([0.04, 0.0008])
    cls_pot = QuadraticDiagonal([mu_stated, beta_stated])
    alphas = [2.0 * math.sqrt(mu_stated), math.sqrt(beta_stated),
              2.0 * math.sqrt(beta_stated), 3.0 * math.sqrt(beta_stated)]
    t1, t2 = 0.01, 300.0
    lengths = [25.0, 50.0, 100.0, 200.0]
    x0 = np.array([1.0, 1.0])
    records = []
    series = []
    for alpha in alphas:
        damping = Constant(alpha)
        spec = LagrangianSpec(damping, pot)
        traj = integrate_flow(pot, damping, x0, [0.0, 0.0], t1, t2, 24000)
        series.append((f"alpha={alpha:.4g}", traj.t[::30],
                       pot.value_rows(traj.x[::30])))
        crossover = (2.0 * math.pi / math.sqrt(4.0 * beta_stated - alpha * alpha)
                     if alpha < 2.0 * math.sqrt(beta_stated) else None)
        actions = []
        for length in lengths:
            n = 2 * round(25.0 * length)
            sub = integrate_flow(pot, damping, x0, [0.0, 0.0], t1, t1 + length, n)
            cls = classify(cls_pot, damping, t1, t1 + length)
            actions.append({"length": length, "action": action(spec, sub),
                            "verdict": cls.verdict})
        records.append({"alpha": alpha, "crossover_length": crossover,
                        "windows": actions})
    windows = [w for rec in records for w in rec["windows"]]
    files = [("fig3_actions.csv", ["alpha", "length", "action", "verdict"],
              [np.repeat(alphas, len(lengths)),
               *(np.array([w[key] for w in windows], dtype=float) for key in ("length", "action")),
               np.array([w["verdict"] for w in windows], dtype="S")]),
             ("fig3.svg", line_chart(series, title="objective along constant-damping flows",
                                     xlabel="t", ylabel="f(x)"))]
    return {"results": {"records": records},
            "inputs": {"objective": "0.02 x^2 + 0.0004 y^2",
                       "hessian_eigenvalues": [0.04, 0.0008],
                       "stated_beta": beta_stated, "stated_mu": mu_stated},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "the stated beta/mu equal the quadratic coefficients, not the "
                      "Hessian eigenvalues; the discrepancy is recorded, not resolved"]}, files


def unbounded() -> tuple:
    # boundary-pinned curves sigma*h have action equal to their second
    # variation for quadratic objectives, so scaling sigma drives the action
    # to +inf along a small bump and to -inf along a wide one
    pot = QuadraticDiagonal([1.0])
    t1, t2 = 1.0, 8.5
    spec = LagrangianSpec(Vanishing(3.0), pot)
    n = 4096
    grid = np.linspace(t1, t2, n + 1)
    zero = Trajectory(grid, np.zeros((n + 1, 1)), np.zeros((n + 1, 1)))
    c = 0.5 * (t1 + t2)
    star = epsilon_star(c * c, 1.0)
    eps_small, eps_large = 0.9, 2.8
    sigmas = [1.0, 10.0, 100.0, 1000.0]
    results = {"epsilon_star": star, "eps_small": eps_small, "eps_large": eps_large,
               "actions": []}
    for sigma in sigmas:
        j_small = action(spec, perturb_curve(zero, scale(triangle(c, eps_small, t1, t2), sigma)))
        j_large = action(spec, perturb_curve(zero, scale(triangle(c, eps_large, t1, t2), sigma)))
        results["actions"].append({"sigma": sigma, "action_small_eps": j_small,
                                   "action_large_eps": j_large})
    header = ["sigma", "action_small_eps", "action_large_eps"]
    files = [("unbounded.csv", header,
              [np.array([a[key] for a in results["actions"]], dtype=float) for key in header])]
    return {"results": results,
            "inputs": {"potential": "quadratic beta=1", "damping": "vanishing c=3",
                       "interval": {"t1": t1, "t2": t2}},
            "notes": ["interval length exceeds sqrt(40/beta), so both signs are reachable"]}, files


def poly() -> tuple:
    # vanishing-curvature objective: windows that start while the curvature
    # along the path is still high contain conjugate points; once the flow
    # has collapsed toward the flat optimizer, no window of any searched
    # length contains one
    pot = Polynomial1D(1.0, 4, 0.0)
    damping = Vanishing(3.0)
    base = integrate_flow(pot, damping, [1.5], [0.0], 0.01, 60.0, 40000)
    starts = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0]
    records = []
    threshold = None
    for w0 in starts:
        cap = min(w0 + 40.0, 60.0)
        report = conjugate_points_along(base, pot, damping, w0, cap,
                                        n_steps=20000)
        tau = report.conjugate_times[0] if report.conjugate_times else None
        if tau is None and threshold is None:
            threshold = w0
        records.append({"window_start": w0,
                        "first_conjugate_time": tau,
                        "conjugate_free_length": (tau - w0) if tau is not None else None,
                        "searched_up_to": cap})
    # a window without a conjugate point (None) prints as nan
    header = ["window_start", "first_conjugate_time", "conjugate_free_length"]
    files = [("poly_windows.csv", header,
              [np.array([r[key] for r in records], dtype=float) for key in header]),
             trajectory_table("poly_base.csv",
                              Trajectory(base.t[::10], base.x[::10], base.v[::10]))]
    return {"results": {"records": records,
                        "conjugate_free_from_start": threshold},
            "inputs": {"potential": "x^4", "damping": "vanishing c=3",
                       "x0": 1.5, "t_span": [0.01, 60.0]},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "windows starting past `conjugate_free_from_start` show no "
                      "conjugate point up to the search cap: curvature along the "
                      "path vanishes and minimality extends"]}, files


FIGURES = {"fig1": fig1, "fig2": fig2, "fig3": fig3, "unbounded": unbounded, "poly": poly}
