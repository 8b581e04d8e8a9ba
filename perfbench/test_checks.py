"""The benchmark's checks must reject wrong results.

Each test builds the result a correct program would return from the
independent references, confirms the workload's check accepts it, then
feeds a deliberately wrong copy and expects it rejected.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def vn():
    import sys
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return run.load_vnag(SRC)


def _classification(lams, t1, t2, c=3.0):
    taus = [ref.first_conjugate_time(c, lam, t1, t2) for lam in lams]
    verdict, binding = ref.expected_verdict(taus, lams, t2)
    return {"verdict": verdict, "t1": t1, "t2": t2, "eigenvalues": list(lams),
            "first_conjugate_times": taus, "binding_eigenvalue": binding}


def _witness(beta, t1, t2):
    c, eps_max = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
    star = ref.epsilon_star(beta, c)
    if star >= eps_max:  # no room for the wide probe: the library returns None
        return None
    out = {"epsilon_star": star}
    for key, eps in (("small", 0.5 * min(star, eps_max)), ("large", 0.5 * (star + eps_max))):
        out[key] = {"perturbation": {"eps": eps},
                    "d2j_quadrature": ref.triangle_d2j(beta, c, eps)[0]}
    return out


def _classify_outputs(wl):
    outs = []
    for lams, t1, t2 in wl.windows:
        cls = _classification(lams, t1, t2)
        outs.append((cls, _witness(max(lams), t1, t2) if cls["verdict"] == "saddle" else None))
    return outs


def test_classify_check_accepts_reference(vn, tmp_path):
    wl = workloads.ClassifyC3(vn, 5, tmp_path)
    assert wl.check(_classify_outputs(wl), None) == []


def test_shifted_tau_rejected(vn, tmp_path):
    wl = workloads.ClassifyC3(vn, 5, tmp_path)
    outs = _classify_outputs(wl)
    cls = outs[0][0]
    cls["first_conjugate_times"][1] *= 1.0 + 1e-7
    assert any("tau" in p for p in wl.check(outs, None))


def test_flipped_verdict_rejected(vn, tmp_path):
    wl = workloads.ClassifyC3(vn, 5, tmp_path)
    outs = _classify_outputs(wl)
    i = next(i for i, (cls, _) in enumerate(outs) if cls["verdict"] == "saddle")
    outs[i] = ({**outs[i][0], "verdict": "minimizer", "binding_eigenvalue": None}, None)
    problems = wl.check(outs, None)
    assert any("verdict" in p for p in problems)


def test_long_window_must_be_saddle():
    lams, t1 = [1.0], 1.0
    t2 = t1 + 1.01 * math.sqrt(40.0)
    cls = _classification(lams, t1, t2)
    assert ref.check_classification("w", cls, 3.0, lams, t1, t2,
                                    cls["first_conjugate_times"], [1e-9]) == []
    # a wrong reference root would let a minimizer through the verdict
    # comparison; the sqrt(40/beta) property still catches it
    lying = {**cls, "verdict": "minimizer", "binding_eigenvalue": None,
             "first_conjugate_times": [None]}
    problems = ref.check_classification("w", lying, 3.0, lams, t1, t2, [None], [1e-9])
    assert any("sqrt(40/beta_max)" in p for p in problems)


def test_wrong_witness_sign_rejected():
    beta, t1, t2 = 2.0, 1.0, 7.0
    good = _witness(beta, t1, t2)
    assert ref.check_witness("w", good, beta, t1, t2) == []
    bad = copy.deepcopy(good)
    bad["large"]["d2j_quadrature"] = -bad["large"]["d2j_quadrature"]
    assert any("wrong sign" in p for p in ref.check_witness("w", bad, beta, t1, t2))
    assert ref.check_witness("w", None, beta, t1, t2)  # eps* fits: a witness is owed


class _Traj:
    def __init__(self, x):
        self.x = x


def _rk4_outputs(wl, shift=0.0):
    s = wl.stiff
    length = wl.STIFF_LENGTHS[0]
    t = np.linspace(wl.STIFF_T1, wl.STIFF_T1 + length, int(50 * length) + 1)
    x = ref.constant_flow(s["alphas"][0], wl.STIFF, s["x0"], 0.0, wl.STIFF_T1, t)
    x[len(t) // 2, 1] += shift
    return [_Traj(x)] + [None] * (len(wl.ops) - 1)


def test_perturbed_trajectory_rejected(vn, tmp_path):
    wl = workloads.Rk4Flows(vn, 2, tmp_path)
    assert wl.check(_rk4_outputs(wl), None) == []
    problems = wl.check(_rk4_outputs(wl, shift=1e-6), None)
    assert any("stiff" in p for p in problems)


def test_shifted_shooting_root_rejected():
    c, lam, t1, t2, n = 2.5, 1.3, 1.0, 12.0, 20000
    want = ref.conjugate_times(c, lam, t1, t2)
    tols = [ref.shooting_root_tol(c, lam, t1, t2, n, r) for r in want]
    assert ref.check_roots("s", want, want, tols) == []
    assert ref.check_roots("s", [want[0] + 10 * tols[0]] + want[1:], want, tols)
    assert ref.check_roots("s", want[:-1], want, tols)  # a missed root


def _sv_snapshot(wl, flip=None):
    name = "second-variation triangle"
    cfg = wl.cfgs[name]
    lam = cfg["potential"]["eigenvalues"][0]
    c = cfg["perturbations"][0]["c"]
    t1, t2 = cfg["interval"]["t1"], cfg["interval"]["t2"]
    table = [{"d2j_quadrature": ref.triangle_d2j(lam, c, eps)[0]} for eps in wl.EPS]
    desc = {"seed": wl.seed, "n_modes": 6, "decay": 1.5}
    coeffs = ref.fourier_coeffs(**desc)
    table.append({"perturbation": desc,
                  "d2j_quadrature": ref.fourier_d2j(lambda t: t ** 3, lam, coeffs, t1, t2)[0]})
    if flip is not None:
        table[flip]["d2j_quadrature"] *= -1.0
    report = {"results": {"table": table,
                          "sign_changes": [{"epsilon_star": ref.epsilon_star(lam, c)}]}}
    return name, report


def test_wrong_d2j_sign_rejected(vn, tmp_path):
    wl = workloads.CliRuns(vn, 4, tmp_path)
    name, report = _sv_snapshot(wl)
    assert wl._check_second_variation(name, report, {}) == []
    name, report = _sv_snapshot(wl, flip=0)
    problems = wl._check_second_variation(name, report, {})
    assert any("signs" in p for p in problems)
    name, report = _sv_snapshot(wl, flip=len(wl.EPS))  # the fourier probe
    assert any("fourier" in p for p in wl._check_second_variation(name, report, {}))


def test_sigma_squared_law_violation_rejected(vn, tmp_path):
    wl = workloads.CliRuns(vn, 4, tmp_path)
    c = 0.5 * (1.0 + 8.5)
    res = {"eps_small": 0.9, "eps_large": 2.8, "actions": []}
    for sigma in (1.0, 10.0, 100.0, 1000.0):
        res["actions"].append({"sigma": sigma,
                               "action_small_eps": sigma ** 2 * ref.triangle_d2j(1.0, c, 0.9)[0],
                               "action_large_eps": sigma ** 2 * ref.triangle_d2j(1.0, c, 2.8)[0]})
    name = "reproduce unbounded"
    assert wl._check_reproduce(name, {"results": res}, {}) == []
    res["actions"][3]["action_large_eps"] *= 1.0 + 1e-6
    assert any("sigma^2" in p for p in wl._check_reproduce(name, {"results": res}, {}))


def test_failing_command_is_the_named_fault(vn, tmp_path):
    """While the alpha = 10 command fails, it fails through the program's
    fault (NaN reaching report.json, d2j.csv left behind), not the harness."""
    wl = workloads.CliRuns(vn, 4, tmp_path)
    op = dict(wl.ops)[wl.FAILING]
    try:
        op()
    except ValueError as exc:
        assert "JSON compliant" in str(exc)
        assert (wl.out_dir(wl.FAILING) / "d2j.csv").exists()
    cfg = json.loads(Path(wl.argv[wl.FAILING][2]).read_text())
    assert cfg == wl.cfgs[wl.FAILING]


def test_truncated_reports_rejected(vn, tmp_path):
    """A command that drops results must not pass on the ones it kept."""
    wl = workloads.CliRuns(vn, 4, tmp_path)
    name = "classify"
    cfg = wl.cfgs[name]
    lams = cfg["potential"]["eigenvalues"]
    records = []
    for a in cfg["sweep"]["t1"]:
        for length in cfg["sweep"]["lengths"]:
            cls = _classification(lams, a, a + length)
            records.append({"t1": a, "t2": a + length, "classification": cls,
                            "indefiniteness_witness": _witness(max(lams), a, a + length)
                            if cls["verdict"] == "saddle" else None})
    assert wl._check_classify(name, {"results": {"records": records}}, {}) == []
    short = {"results": {"records": records[:-1]}}
    assert any("windows" in p for p in wl._check_classify(name, short, {}))

    name = "second-variation sinusoid"
    t1, t2 = (wl.cfgs[name]["interval"][k] for k in ("t1", "t2"))
    table = [{"d2j_quadrature": ref.sinusoid_d2j(t1, t2, k)} for k in (1, 2, 3)]
    assert wl._check_second_variation(name, {"results": {"table": table}}, {}) == []
    short = {"results": {"table": table[:2]}}
    assert any("probes" in p for p in wl._check_second_variation(name, short, {}))

    name = "reproduce fig1"
    c, beta = 5.0, 1.0
    star = ref.epsilon_star(beta, c)
    table = [{"direction": d, "perturbation": {"eps": eps},
              "d2j_quadrature": ref.triangle_d2j(beta, c, eps)[0]}
             for d, eps in (("positive", 0.5 * star), ("negative", 1.5 * star))]
    res = {"table": table, "epsilon_star": star}
    assert wl._check_reproduce(name, {"results": res}, {}) == []
    short = {"results": {**res, "table": table[:1]}}
    assert any("probes" in p for p in wl._check_reproduce(name, short, {}))


def test_fixed_failing_window_is_the_named_fault(vn, tmp_path):
    """classify_c3's last window does not depend on the seed and, while the
    fault stands, fails inside saddle_witness, not in the harness."""
    wls = [workloads.ClassifyC3(vn, seed, tmp_path) for seed in (5, 6)]
    assert all(wl.windows[-1] == workloads.ClassifyC3.FAILING for wl in wls)
    lams, t1, t2 = workloads.ClassifyC3.FAILING
    half = 0.5 * (t2 - t1)
    assert 0.99 * half < ref.epsilon_star(max(lams), 0.5 * (t1 + t2)) < half
    try:
        wls[0].ops[-1][1]()
    except ValueError as exc:
        assert "vanish at both endpoints" in str(exc)
