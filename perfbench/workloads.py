"""The three workloads: seeded inputs, one round of operations, and checks.

Each workload builds its inputs from the seed once, then runs the same
round of operations as often as the run allows.  A round calls the public
functions of vnag through the module objects it was given, so the traced run
sees every call once it has wrapped them.  Inputs are drawn in strata (one
draw per bin of a fixed grid), so every seed gives a round of about the same
cost and the same verdict mix.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import reference as ref


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _wide_probe_overhangs(beta: float, t1: float, t2: float) -> bool:
    """True when saddle_witness would raise on [t1, t2]: its wide probe has
    half-width (eps* + h)/2, h = (t2 - t1)/2, and its corner blend (eps/1000)
    pokes past t2 once eps* is within 0.2% below h (CHANGES.md, FOUND).
    Seeded windows where this holds, with a 1% margin, are redrawn, since a
    failure that depends on the seed cannot be counted steadily; a fixed
    window (ClassifyC3.FAILING) shows the fault instead."""
    half = 0.5 * (t2 - t1)
    return 0.99 * half <= ref.epsilon_star(beta, 0.5 * (t1 + t2)) < half


def digest(obj) -> str:
    """Stable fingerprint of a round's outputs, for the determinism check."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


class Workload:
    """One workload: a fixed list of operations built from the seed; outputs
    hold None for every operation that raised."""

    name = ""
    items_per_round = 0

    def __init__(self, vn, seed: int, workdir: Path):
        self.vn = vn
        self.seed = seed
        self.workdir = workdir
        self.ops = []  # (label, zero-argument callable)
        self.warm = []  # small calls of each kind, run once per set-up
        self.build(np.random.default_rng(seed))

    @property
    def attempted_per_round(self) -> int:
        return len(self.ops)

    def build(self, rng):
        raise NotImplementedError

    def warmup(self):
        for call in self.warm:
            call()

    def before_round(self):
        """Untimed preparation of the next round."""

    def run_round(self, calibrate) -> tuple:
        """Run every operation once, each right after one `calibrate()` pass;
        returns (outputs, failed, times) with times[i] = (wall, cpu,
        calibration wall, calibration cpu) seconds for operation i."""
        outputs, times, failed = [], [], 0
        clock, cpu = time.perf_counter, time.process_time
        for _, op in self.ops:
            cal_wall, cal_cpu = calibrate()
            w0, c0 = clock(), cpu()
            try:
                out = op()
            except Exception:  # a failing operation is counted, not fatal
                out = None
                failed += 1
            times.append((clock() - w0, cpu() - c0, cal_wall, cal_cpu))
            outputs.append(out)
        return outputs, failed, times

    def fingerprint(self, outputs) -> str:
        return digest(outputs)

    def snapshot(self):
        """What `check` needs beyond the outputs, taken right after a round."""
        return None

    def check(self, outputs, snap) -> list:
        raise NotImplementedError


# --------------------------------------------------------------------------
# classify_c3: Bessel closed form + jacobi root search, no RK4


class ClassifyC3(Workload):
    """Seeded classify sweep with Vanishing(3.0) on 4-direction quadratics.

    16 seeded windows: 4 start-time bins x 4 length bins (lengths in units of
    1/sqrt(beta_max), so short windows are minimizers and long ones saddles).
    Each window has one eigenvalue per curvature bin, so sqrt(lam) t1 runs
    from about 0.1 to at most 23, almost always in the Bessel series regime.

    A 17th window, FAILING, does not depend on the seed: a saddle whose eps*
    lies 0.12% below the half-width, where saddle_witness raises today
    (CHANGES.md, FOUND).  It is counted as failed until that is fixed.
    """

    name = "classify_c3"
    T1_BINS = ((0.4, 0.8), (0.8, 1.6), (1.6, 3.2), (3.2, 6.4))
    LAM_BINS = ((0.05, 0.2), (0.2, 0.8), (0.8, 3.2), (3.2, 12.8))
    LEN_BINS = ((1.5, 3.0), (3.0, 4.5), (4.5, 6.0), (6.5, 9.0))
    FAILING = ([0.1, 0.4, 1.6, 10.2316], 1.04398, 2.17227)

    def build(self, rng):
        self.windows = []
        for t_lo, t_hi in self.T1_BINS:
            for l_lo, l_hi in self.LEN_BINS:
                while True:
                    lams = [_loguniform(rng, lo, hi) for lo, hi in self.LAM_BINS]
                    t1 = float(rng.uniform(t_lo, t_hi))
                    t2 = t1 + float(rng.uniform(l_lo, l_hi)) / math.sqrt(max(lams))
                    if not _wide_probe_overhangs(max(lams), t1, t2):
                        break
                self.windows.append((lams, t1, t2))
        self.windows.append(self.FAILING)
        self.items_per_round = len(self.windows)
        pots = [self.vn.potentials.QuadraticDiagonal(lams) for lams, _, _ in self.windows]
        self.ops = [(f"classify[{i}]", self._op(pot, t1, t2))
                    for i, (pot, (_, t1, t2)) in enumerate(zip(pots, self.windows))]
        self.warm = [self.ops[0][1]]

    def _op(self, pot, t1, t2):
        vn = self.vn
        damping = vn.dynamics.Vanishing(3.0)
        beta = float(pot.eigenvalues.max())

        def op():
            cls = vn.jacobi.classify(pot, damping, t1, t2)
            witness = (vn.jacobi.saddle_witness(beta, t1, t2)
                       if cls.verdict == "saddle" else None)
            return cls.to_dict(), witness
        return op

    def check(self, outputs, snap) -> list:
        problems = []
        for (label, _), out, (lams, t1, t2) in zip(self.ops, outputs, self.windows):
            if out is None:
                continue
            cls, witness = out
            taus = [ref.first_conjugate_time(3.0, lam, t1, t2) for lam in lams]
            tols = [ref.BESSEL_ROOT_RTOL * tau for tau in taus]
            problems += ref.check_classification(label, cls, 3.0, lams, t1, t2, taus, tols)
            if cls["verdict"] == "saddle":
                problems += ref.check_witness(label, witness, max(lams), t1, t2)
        return problems


# --------------------------------------------------------------------------
# rk4_flows: fixed-step RK4 flows and Jacobi shooting, no Bessel


class Rk4Flows(Workload):
    """Library calls whose work is RK4 steps; none reaches the Bessel layer.

    Item = one RK4 step of one direction.  For classify, whose shooting
    step count is internal, the count is the one the window implies:
    max(4000, 400 sqrt(lam) span) over the span max(t2, t1 + 50/sqrt(lam)) - t1.
    """

    name = "rk4_flows"
    STIFF = (0.04, 0.0008)  # fig3's Hessian eigenvalues
    STIFF_T1, STIFF_LENGTHS = 0.01, (25.0, 50.0, 100.0)  # fig3's windows, 50 steps per unit
    N_WIDE, N_SHOOT, N_JACOBI, N_POLY, N_ALONG = 1000, 20000, 4000, 6000, 5000
    POLY_T = (0.2, 12.2)
    ALONG_SPAN = 8.0
    ALONG_BINS = ((0.25, 0.5), (0.8, 1.6), (2.0, 4.0))

    def build(self, rng):
        vn = self.vn
        P, D, J = vn.potentials, vn.dynamics, vn.jacobi
        # stiff 2-d quadratic under constant damping, on fig3's windows; the
        # damping is underdamped for 0.04 and overdamped for 0.0008
        self.stiff = dict(alphas=[float(rng.uniform(0.07, 0.2)), float(rng.uniform(0.2, 0.35))],
                          x0=rng.uniform(0.5, 1.5, 2))
        # 100-direction quadratic under 3/t
        self.wide = dict(lam=np.sort(10.0 ** rng.uniform(-1.0, 1.0, 100)),
                         x0=rng.normal(size=100), v0=0.1 * rng.normal(size=100),
                         t=(1.0, 11.0))
        # classify with c = 2.5, which takes the shooting fallback: one short
        # window (minimizer) and one long (saddle), one direction each
        self.cls25 = []
        for (l_lo, l_hi), (s_lo, s_hi) in (((0.3, 1.0), (1.0, 3.0)), ((1.0, 3.0), (5.0, 8.0))):
            lam = _loguniform(rng, l_lo, l_hi)
            t1 = float(rng.uniform(0.5, 2.0))
            self.cls25.append(dict(lams=[lam], t1=t1,
                                   t2=t1 + float(rng.uniform(s_lo, s_hi)) / math.sqrt(lam)))
        lam = _loguniform(rng, 0.5, 2.0)
        t1 = float(rng.uniform(0.5, 2.0))
        self.shoot = dict(lam=lam, t1=t1, t2=t1 + 12.0 / math.sqrt(lam))
        lam = _loguniform(rng, 0.5, 4.0)
        t1 = float(rng.uniform(1.0, 4.0))
        self.jac = dict(lam=lam, t1=t1, t2=t1 + 8.0 / math.sqrt(lam))
        self.poly = dict(x0=float(rng.uniform(1.2, 1.8)),
                         starts=[float(rng.uniform(lo, hi)) for lo, hi in self.ALONG_BINS])

        stiff_pot = P.QuadraticDiagonal(list(self.STIFF))
        wide_pot = P.QuadraticDiagonal(self.wide["lam"])
        quartic = P.Polynomial1D(1.0, 4, 0.0)
        v3, v25 = D.Vanishing(3.0), D.Vanishing(2.5)
        s, w, sh, jc = self.stiff, self.wide, self.shoot, self.jac
        shoot_spec = vn.action.LagrangianSpec(v25, P.QuadraticDiagonal([sh["lam"]]))
        jac_spec = vn.action.LagrangianSpec(v3, P.QuadraticDiagonal([jc["lam"]]))
        self._poly_base = None

        def stiff(alpha, length):
            return lambda: D.integrate_flow(stiff_pot, D.Constant(alpha), s["x0"], [0.0, 0.0],
                                            self.STIFF_T1, self.STIFF_T1 + length,
                                            int(50 * length))

        def classify25(c):
            pot = P.QuadraticDiagonal(c["lams"])
            return lambda: J.classify(pot, v25, c["t1"], c["t2"]).to_dict()

        def poly_base():
            self._poly_base = D.integrate_flow(quartic, v3, [self.poly["x0"]], [0.0],
                                               *self.POLY_T, self.N_POLY)
            return self._poly_base

        def along(w0):
            return lambda: J.conjugate_points_along(
                self._poly_base, quartic, v3, w0, w0 + self.ALONG_SPAN,
                n_steps=self.N_ALONG).to_dict()

        self.ops = [(f"integrate_flow stiff alpha={a:.4f} length={length:g}", stiff(a, length))
                    for a in s["alphas"] for length in self.STIFF_LENGTHS]
        self.ops += [(f"classify c=2.5 [{i}]", classify25(c)) for i, c in enumerate(self.cls25)]
        self.ops += [
            ("integrate_flow 100-d", lambda: D.integrate_flow(
                wide_pot, v3, w["x0"], w["v0"], *w["t"], self.N_WIDE)),
            ("conjugate_points_shooting c=2.5", lambda: J.conjugate_points_shooting(
                shoot_spec, sh["lam"], sh["t1"], sh["t2"], n_steps=self.N_SHOOT).to_dict()),
            ("jacobi_solution c=3", lambda: J.jacobi_solution(
                jac_spec, jc["lam"], jc["t1"], jc["t2"], n_steps=self.N_JACOBI)),
            ("integrate_flow x^4", poly_base),
        ] + [(f"conjugate_points_along x^4 from {w0:.3f}", along(w0))
             for w0 in self.poly["starts"]]

        cls_steps = sum(max(4000, int(400.0 * (max(c["t2"], c["t1"] + 50.0 / math.sqrt(lm))
                                               - c["t1"]) * math.sqrt(lm)))
                        for c in self.cls25 for lm in c["lams"])
        self.items_per_round = (2 * len(s["alphas"]) * sum(int(50 * ln) for ln in self.STIFF_LENGTHS)
                                + self.N_WIDE * 100 + cls_steps + self.N_SHOOT + self.N_JACOBI
                                + self.N_POLY + self.N_ALONG * len(self.poly["starts"]))

        def warm():
            D.integrate_flow(stiff_pot, D.Constant(s["alphas"][0]), s["x0"], [0.0, 0.0],
                             0.01, 1.01, 100)
            D.integrate_flow(wide_pot, v3, w["x0"], w["v0"], 1.0, 1.2, 20)
            J.conjugate_points_shooting(shoot_spec, sh["lam"], sh["t1"], sh["t2"], n_steps=1000)
            J.jacobi_solution(jac_spec, jc["lam"], jc["t1"], jc["t2"], n_steps=100)
            base = D.integrate_flow(quartic, v3, [self.poly["x0"]], [0.0], 0.2, 1.2, 100)
            J.conjugate_points_along(base, quartic, v3, 0.3, 1.2, n_steps=1000)
        self.warm = [warm]

    def check(self, outputs, snap) -> list:
        out = dict(zip((label for label, _ in self.ops), outputs))
        problems = []

        def traj_check(label, traj, want, n, step, rho, amp):
            if traj is None:
                return []
            tol = ref.rk4_error(n, step, rho, amp)
            return ref.check_close(label, traj.x, want, tol)

        s = self.stiff
        for alpha in s["alphas"]:
            rho = max(ref.spectral_radius(lm, alpha) for lm in self.STIFF)
            for length in self.STIFF_LENGTHS:
                label = f"integrate_flow stiff alpha={alpha:.4f} length={length:g}"
                n = int(50 * length)
                t = np.linspace(self.STIFF_T1, self.STIFF_T1 + length, n + 1)
                want = ref.constant_flow(alpha, self.STIFF, s["x0"], 0.0, self.STIFF_T1, t)
                problems += traj_check(label, out[label], want, n, length / n, rho,
                                       float(np.max(np.abs(s["x0"]))))

        w = self.wide
        t = np.linspace(*w["t"], self.N_WIDE + 1)
        step = (w["t"][1] - w["t"][0]) / self.N_WIDE
        rho = max(ref.spectral_radius(lm, 3.0 / w["t"][0]) for lm in w["lam"])
        amp = float(np.max(np.abs(w["x0"]) + np.abs(w["v0"]) / np.sqrt(w["lam"])))
        problems += traj_check("integrate_flow 100-d", out["integrate_flow 100-d"],
                               ref.bessel_flow(3.0, w["lam"], w["x0"], w["v0"], w["t"][0], t),
                               self.N_WIDE, step, rho, amp)

        for i, c in enumerate(self.cls25):
            label = f"classify c=2.5 [{i}]"
            if out[label] is None:
                continue
            taus, tols = [], []
            for lm in c["lams"]:
                cap = max(c["t2"], c["t1"] + 50.0 / math.sqrt(lm))
                n = max(4000, int(400.0 * (cap - c["t1"]) * math.sqrt(lm)))
                tau = ref.first_conjugate_time(2.5, lm, c["t1"], c["t2"])
                taus.append(tau)
                tols.append(ref.shooting_root_tol(2.5, lm, c["t1"], cap, n, tau))
            problems += ref.check_classification(label, out[label], 2.5, c["lams"],
                                                 c["t1"], c["t2"], taus, tols)

        sh = self.shoot
        got = out["conjugate_points_shooting c=2.5"]
        if got is not None:
            want = ref.conjugate_times(2.5, sh["lam"], sh["t1"], sh["t2"])
            tols = [ref.shooting_root_tol(2.5, sh["lam"], sh["t1"], sh["t2"], self.N_SHOOT, r)
                    for r in want]
            problems += ref.check_roots("conjugate_points_shooting c=2.5",
                                        got["conjugate_times"], want, tols)

        jc = self.jac
        got = out["jacobi_solution c=3"]
        if got is not None:
            ts, hs, us = got
            h, hp = ref.jacobi_unit(3.0, jc["lam"], jc["t1"], ts)
            tol = ref.rk4_error(self.N_JACOBI, (jc["t2"] - jc["t1"]) / self.N_JACOBI,
                                ref.spectral_radius(jc["lam"], 3.0 / jc["t1"]),
                                float(np.max(np.abs(h)) + np.max(np.abs(hp))))
            problems += ref.check_close("jacobi_solution h", hs, h, tol)
            problems += ref.check_close("jacobi_solution h'", us, hp, tol * 10.0)

        p = self.poly
        base = out["integrate_flow x^4"]
        for w0 in p["starts"]:
            label = f"conjugate_points_along x^4 from {w0:.3f}"
            got = out[label]
            if got is None or base is None:
                continue
            want, slopes, h_max = ref.quartic_conjugate_times(
                p["x0"], self.POLY_T[0], w0, w0 + self.ALONG_SPAN)
            # curvature 12 X^2 <= 12 x0^2 and damping 3/t bound each grid's
            # spectral radius; both the base flow and the shooting carry RK4 error
            q_max = 12.0 * p["x0"] ** 2
            err = (ref.rk4_error(self.N_ALONG, self.ALONG_SPAN / self.N_ALONG,
                                 ref.spectral_radius(q_max, 3.0 / w0), h_max)
                   + ref.rk4_error(self.N_POLY, (self.POLY_T[1] - self.POLY_T[0]) / self.N_POLY,
                                   ref.spectral_radius(q_max, 3.0 / self.POLY_T[0]), h_max))
            tols = [err / slope for slope in slopes]
            problems += ref.check_roots(label, got["conjugate_times"], want, tols)
        return problems


# --------------------------------------------------------------------------
# cli_runs: in-process vnag.cli.main with configs, CSV/SVG/JSON output


class CliRuns(Workload):
    """Eight `vnag` commands per round, run in-process through cli.main.

    Item = one command.  The last command (constant damping alpha = 10 on
    [0.5, 100]) fails every time today: exp(alpha t) overflows, d2J becomes
    NaN and report.json cannot be written.  It is counted as failed until the
    CLI reports it with exit code 3 and removes its partial outputs (or
    returns finite numbers).
    """

    name = "cli_runs"
    FAILING = "second-variation alpha=10"
    EPS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

    def build(self, rng):
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.out_root = self.workdir / "out"
        lam = sorted(_loguniform(rng, lo, hi) for lo, hi in ((0.5, 1.0), (1.5, 3.0)))
        while True:
            lengths = [float(rng.uniform(lo, hi)) for lo, hi in ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))]
            starts = [float(rng.uniform(lo, hi)) for lo, hi in ((0.5, 1.0), (2.0, 3.0))]
            if not any(_wide_probe_overhangs(lam[1], a, a + ln) for a in starts for ln in lengths):
                break
        self.cfgs = {
            "simulate": {
                "potential": {"kind": "quadratic", "eigenvalues": lam},
                "damping": {"kind": "vanishing", "c": 3.0},
                "interval": {"t1": 1.0, "t2": 9.0},
                "integration": {"n_steps": 4000},
                "initial": {"x0": [float(v) for v in rng.uniform(0.5, 1.5, 2)],
                            "v0": [float(v) for v in rng.uniform(-0.5, 0.5, 2)]}},
            "second-variation triangle": {
                "potential": {"kind": "quadratic",
                              "eigenvalues": [float(rng.uniform(0.8, 1.25))]},
                "damping": {"kind": "vanishing", "c": 3.0},
                "interval": {"t1": 1.0, "t2": 9.0},
                "perturbations": [
                    {"kind": "triangle", "c": float(rng.uniform(4.8, 5.2)), "eps": list(self.EPS)},
                    {"kind": "fourier", "n_modes": 6, "decay": 1.5}]},
            "second-variation sinusoid": {
                "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
                "damping": {"kind": "constant", "alpha": 1.0},
                "interval": {"t1": float(rng.uniform(0.0, 1.0)),
                             "t2": float(rng.uniform(8.0, 10.0))},
                "perturbations": [{"kind": "sinusoid", "k": [1, 2, 3]}]},
            "classify": {
                "potential": {"kind": "quadratic", "eigenvalues": lam},
                "damping": {"kind": "vanishing", "c": 3.0},
                "interval": {"t1": 1.0, "t2": 2.0},
                "sweep": {"lengths": lengths, "t1": starts}},
            # not seeded: the failure must be the same in every run
            self.FAILING: {
                "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
                "damping": {"kind": "constant", "alpha": 10.0},
                "interval": {"t1": 0.5, "t2": 100.0},
                "perturbations": [{"kind": "sinusoid", "k": 1}]},
        }
        argv = {}
        for name, cfg in self.cfgs.items():
            path = cfg_dir / (name.replace(" ", "_").replace("=", "") + ".json")
            path.write_text(json.dumps(cfg))
            argv[name] = [name.split()[0], "--config", str(path)]
        for fig in ("fig1", "fig2", "unbounded"):
            argv[f"reproduce {fig}"] = ["reproduce", "--figure", fig]
        order = ("simulate", "second-variation triangle", "second-variation sinusoid",
                 "classify", "reproduce fig1", "reproduce fig2", "reproduce unbounded",
                 self.FAILING)
        self.argv = {name: argv[name] + ["--out", str(self.out_dir(name)),
                                         "--seed", str(self.seed)]
                     for name in order}
        self.ops = [(name, self._op(name)) for name in order]
        self.items_per_round = len(self.ops)
        warm = cfg_dir / "warmup.json"
        warm.write_text(json.dumps({**self.cfgs["simulate"], "integration": {"n_steps": 100}}))
        warm_argv = [["simulate", "--config", str(warm), "--out", str(self.workdir / "warmup")],
                     ["reproduce", "--figure", "unbounded", "--out",
                      str(self.workdir / "warmup")]]
        self.warm = [lambda argv=argv: self._main(argv) for argv in warm_argv]

    def out_dir(self, name: str) -> Path:
        return self.out_root / name.replace(" ", "_").replace("=", "")

    def _main(self, argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.vn.cli.main(argv)

    def _op(self, name):
        argv = self.argv[name]
        failing = name == self.FAILING

        def op():
            code = self._main(argv)
            if failing:
                left = sorted(p.name for p in self.out_dir(name).glob("*"))
                if not ((code == 3 and not left) or code == 0):
                    raise RuntimeError(f"exit {code}, left {left}")
            elif code != 0:
                raise RuntimeError(f"exit {code}")
            return code
        return op

    def before_round(self):
        shutil.rmtree(self.out_root, ignore_errors=True)

    def fingerprint(self, outputs) -> str:
        files = sorted(p for p in self.out_root.rglob("*") if p.is_file())
        return digest([(str(p.relative_to(self.out_root)), p.read_bytes()) for p in files]
                      + [outputs])

    # ---- checks on the files one round wrote ----

    def snapshot(self) -> dict:
        """Reports and CSVs of the round just run, read before the next round."""
        snap = {}
        for name, _ in self.ops:
            d = self.out_dir(name)
            snap[name] = {p.name: p.read_text() for p in d.glob("*")} if d.exists() else {}
        return snap

    def check(self, outputs, snap) -> list:
        problems = []
        for (name, _), code in zip(self.ops, outputs):
            if code is None or name == self.FAILING:
                continue
            files = snap[name]
            report = json.loads(files["report.json"])
            problems += getattr(self, "_check_" + name.split()[0].replace("-", "_"))(
                name, report, files)
        if outputs[-1] == 0:  # a future fix may return finite numbers instead of failing
            report = json.loads(snap[self.FAILING]["report.json"])
            vals = [e["d2j_quadrature"] for e in report["results"]["table"]]
            if not all(isinstance(v, float) and math.isfinite(v) for v in vals):
                problems.append(f"{self.FAILING}: non-finite d2J reported")
        return problems

    def _check_simulate(self, name, report, files) -> list:
        cfg = self.cfgs[name]
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in files["trajectory.csv"].strip().split("\n")[1:]])
        lam = cfg["potential"]["eigenvalues"]
        t1, t2 = cfg["interval"]["t1"], cfg["interval"]["t2"]
        n = cfg["integration"]["n_steps"]
        x0, v0 = cfg["initial"]["x0"], cfg["initial"]["v0"]
        want = ref.bessel_flow(3.0, lam, x0, v0, t1, rows[:, 0])
        rho = max(ref.spectral_radius(lm, 3.0 / t1) for lm in lam)
        amp = max(abs(a) + abs(b) / math.sqrt(lm) for a, b, lm in zip(x0, v0, lam))
        tol = ref.rk4_error(n, (t2 - t1) / n, rho, amp)
        out = ref.check_close(f"{name} trajectory.csv", rows[:, 1:3], want, tol)
        if len(rows) != n + 1 or "figure.svg" not in files:
            out.append(f"{name}: {len(rows)} rows or no figure.svg")
        return out

    def _check_second_variation(self, name, report, files) -> list:
        cfg = self.cfgs[name]
        lam = cfg["potential"]["eigenvalues"][0]
        t1, t2 = cfg["interval"]["t1"], cfg["interval"]["t2"]
        table = report["results"]["table"]
        out = []
        if name == "second-variation triangle":
            c = cfg["perturbations"][0]["c"]
            if len(table) != len(self.EPS) + 1:
                return [f"{name}: {len(table)} probes"]
            for e, eps in zip(table, self.EPS):
                val, scale = ref.triangle_d2j(lam, c, eps)
                if not abs(e["d2j_quadrature"] - val) <= ref.TRIANGLE_BLEND_RTOL * scale:
                    out.append(f"{name}: eps={eps}: d2J {e['d2j_quadrature']!r}, closed form {val!r}")
            star = ref.epsilon_star(lam, c)
            signs = [e["d2j_quadrature"] > 0 for e in table[:len(self.EPS)]]
            want = [eps < star for eps in self.EPS]
            if signs != want:
                out.append(f"{name}: d2J signs {signs}, eps* = {star} implies {want}")
            got_star = [s["epsilon_star"] for s in report["results"]["sign_changes"]
                        if "epsilon_star" in s]
            if not (got_star and abs(got_star[0] - star) <= 1e-12 * star):
                out.append(f"{name}: epsilon_star {got_star}, reference {star}")
            four = table[-1]
            desc = four["perturbation"]
            coeffs = ref.fourier_coeffs(desc["seed"], desc["n_modes"], desc["decay"])
            val, scale = ref.fourier_d2j(lambda t: t ** 3, lam, coeffs, t1, t2)
            if not abs(four["d2j_quadrature"] - val) <= ref.QUAD_RTOL * scale:
                out.append(f"{name}: fourier d2J {four['d2j_quadrature']!r}, quad {val!r}")
        else:
            if len(table) != 3:
                return [f"{name}: {len(table)} probes"]
            for e, k in zip(table, (1, 2, 3)):
                val = ref.sinusoid_d2j(t1, t2, k)
                _, scale = ref.fourier_d2j(math.exp, lam, [0.0] * (k - 1) + [1.0], t1, t2)
                if not abs(e["d2j_quadrature"] - val) <= ref.QUAD_RTOL * scale:
                    out.append(f"{name}: k={k}: d2J {e['d2j_quadrature']!r}, closed form {val!r}")
        return out

    def _check_classify(self, name, report, files) -> list:
        cfg = self.cfgs[name]
        lam = cfg["potential"]["eigenvalues"]
        records = report["results"]["records"]
        windows = [(a, a + ln) for a in cfg["sweep"]["t1"] for ln in cfg["sweep"]["lengths"]]
        got = [(rec["t1"], rec["t2"]) for rec in records]
        if got != windows:
            return [f"{name}: windows {got}, config sweep gives {windows}"]
        out = []
        for rec in records:
            t1, t2 = rec["t1"], rec["t2"]
            taus = [ref.first_conjugate_time(3.0, lm, t1, t2) for lm in lam]
            tols = [ref.BESSEL_ROOT_RTOL * tau for tau in taus]
            label = f"{name} [{t1:.3f}, {t2:.3f}]"
            cls = rec["classification"]
            out += ref.check_classification(label, cls, 3.0, lam, t1, t2, taus, tols)
            if cls["verdict"] == "saddle":
                out += ref.check_witness(label, rec.get("indefiniteness_witness"),
                                         max(lam), t1, t2)
        return out

    def _check_reproduce(self, name, report, files) -> list:
        res = report["results"]
        out = []
        if name == "reproduce fig1":
            c, beta = 5.0, 1.0
            if len(res["table"]) != 2:
                return [f"{name}: {len(res['table'])} probes"]
            for row, sign in zip(res["table"], (1.0, -1.0)):
                eps = row["perturbation"]["eps"]
                val, scale = ref.triangle_d2j(beta, c, eps)
                if not (sign * row["d2j_quadrature"] > 0
                        and abs(row["d2j_quadrature"] - val) <= ref.TRIANGLE_BLEND_RTOL * scale):
                    out.append(f"{name}: {row['direction']} d2J {row['d2j_quadrature']!r}, "
                               f"closed form {val!r}")
            if not abs(res["epsilon_star"] - ref.epsilon_star(beta, c)) <= 1e-12 * c:
                out.append(f"{name}: epsilon_star {res['epsilon_star']!r}")
        elif name == "reproduce fig2":
            for key, tau in res["first_conjugate_times"].items():
                t1, beta = (float(part.split("=")[1]) for part in key.split(","))
                want = ref.first_conjugate_time(3.0, beta, t1, t1)
                if not abs(tau - want) <= ref.BESSEL_ROOT_RTOL * want:
                    out.append(f"{name}: {key}: tau {tau!r}, reference {want!r}")
            for t1 in (1.0, 4.0):
                rows = np.array([[float(v) for v in line.split(",")] for line in
                                 files[f"fig2_t1_{t1:g}.csv"].strip().split("\n")[1:]])
                for beta in np.unique(rows[:, 0]):
                    sel = rows[(rows[:, 0] == beta) & (rows[:, 1] == 1.0)]
                    h, hp = ref.jacobi_unit(3.0, beta, t1, sel[:, 2])
                    tau = res["first_conjugate_times"][f"t1={t1:g},beta={beta:g}"]
                    t_end = tau + 0.15 * (tau - t1)
                    tol = ref.rk4_error(4000, (t_end - t1) / 4000,
                                        ref.spectral_radius(beta, 3.0 / t1),
                                        float(np.max(np.abs(h)) + np.max(np.abs(hp))))
                    out += ref.check_close(f"{name} t1={t1:g} beta={beta:g} h", sel[:, 3], h, tol)
        else:  # unbounded: J[sigma h] = sigma^2 d2J[h] along the zero curve
            t1, t2 = 1.0, 8.5
            c = 0.5 * (t1 + t2)
            acts = res["actions"]
            for key, eps, sign in (("action_small_eps", res["eps_small"], 1.0),
                                   ("action_large_eps", res["eps_large"], -1.0)):
                val, scale = ref.triangle_d2j(1.0, c, eps)
                for a in acts:
                    j = a[key] / a["sigma"] ** 2
                    if not (sign * j > 0 and abs(j - val) <= ref.TRIANGLE_BLEND_RTOL * scale):
                        out.append(f"{name}: {key} sigma={a['sigma']}: J/sigma^2 {j!r}, "
                                   f"closed form {val!r}")
                base = acts[0][key] / acts[0]["sigma"] ** 2
                if any(abs(a[key] / a["sigma"] ** 2 - base) > 1e-9 * abs(base) for a in acts):
                    out.append(f"{name}: {key} breaks the sigma^2 law")
        return out


WORKLOADS = {w.name: w for w in (ClassifyC3, Rk4Flows, CliRuns)}
