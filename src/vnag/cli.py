"""Experiment runner: `vnag <subcommand> --config cfg.json --out DIR [--seed N]`.

Subcommands: simulate, second-variation, classify, reproduce.  Configs are
single JSON documents; the table `_CONFIG` lists every field, and unknown
ones are rejected.  Outputs are CSV/JSON (authoritative) plus small SVG
charts, all byte-deterministic for a fixed config and seed; `numtext` prints
their numbers, and they stream to their files as bytes.  Exit codes: 0 ok, 2
config error (any `ValueError`: the library raises it only to reject its
arguments; or an output path that cannot be written), 3 numerical failure
(`NumericalError`, or a float overflow).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action import LagrangianSpec, action, second_variation
from .dynamics import (Constant, Trajectory, Vanishing,
                       constant_damping_solution, el_residual, integrate_flow)
from .errors import ConfigError, NumericalError
from .jacobi import (classify, conjugate_points_along, epsilon_star,
                     first_conjugate_time, jacobi_solution, saddle_witness,
                     sinusoid_d2j_closed, triangle_d2j_closed)
from .perturbations import fourier_sine, perturb_curve, scale, sinusoid, triangle
from .potentials import Polynomial1D, QuadraticDiagonal
from .svgchart import line_chart

_INITIAL_CONDITION_NOTE = ("initial conditions (x0, v0=0) and start time t1 are "
                           "tool defaults; they are not externally prescribed")

# Caps far above the largest counts in use (40,000 steps in `reproduce poly`, 6 modes):
# a larger count would end in numpy's MemoryError or a run of hours, not a config error.
# `simulate` also caps its table of (n_steps + 1) x (2 dim + 1) numbers at the
# size of the 1-d table at the step cap.
_MAX_STEPS, _MAX_MODES = 1_000_000, 10_000
_MAX_CELLS = 3 * (_MAX_STEPS + 1)


# --------------------------------------------------------------------------
# config parsing


def _as_float(v, where: str) -> float:
    if isinstance(v, bool):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    try:
        x = float(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {v!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {v!r}")
    return x


def _as_int(v, where: str, cap: float = math.inf) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    if v > cap:
        raise ConfigError(f"{where} must be at most {cap}, got {v!r}")
    return v


def _as_vector(v, where: str) -> np.ndarray:
    if isinstance(v, bool) or (isinstance(v, list) and any(isinstance(x, bool) for x in v)):
        raise ConfigError(f"{where} must be a numeric array, got {v!r}")
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a numeric array") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{where} must be a non-empty flat array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must be finite")
    return arr


_REQUIRED = object()  # the default of a field that must be given


def _fields(d, where: str, spec: dict, keys=None) -> dict:
    """The fields `keys` (default: all) of the config object d, each parsed
    by its spec entry (parser, default).  Unknown and missing required
    fields are rejected; an absent field gets its default, parsed like a
    given value, or None."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if unknown := set(d) - set(spec):
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    out = {}
    for key in spec if keys is None else keys:
        parse, default = spec[key]
        if key not in d and default is _REQUIRED:
            raise ConfigError(f"missing required field '{key}' in {where}")
        value = d.get(key, default)
        out[key] = None if value is None and key not in d else parse(value, f"{where} {key}")
    return out


def _object(spec: dict):
    """Parser of a config object: its parsed fields as a tuple, in spec order."""
    return lambda d, where: tuple(_fields(d, where, spec).values())


def _kind(d, where: str, kinds: dict) -> tuple:
    """(kind, other fields) of a kind-tagged config object; the kind must
    be a known string, checked before any other field."""
    kind = d.get("kind") if isinstance(d, dict) else d
    if not isinstance(d, dict) or not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where} must be a JSON object of kind {' or '.join(kinds)}, "
                          f"got {kind!r}")
    return kind, {key: v for key, v in d.items() if key != "kind"}


def _tagged(d, where: str, kinds: dict):
    """A kind-tagged config object, built by its kind's constructor from
    the parsed fields, passed by name."""
    kind, rest = _kind(d, where, kinds)
    build, spec = kinds[kind]
    return build(**_fields(rest, where, spec))


def _entries(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty list")
    return v


# The config format.  Each field is (parser, default): _REQUIRED, a config
# value parsed like a given one, or None, which leaves an absent field to
# the command or to the constructor it feeds.  A kind-tagged object maps
# each kind to its constructor and fields.
_POTENTIALS = {
    "quadratic": (QuadraticDiagonal, {
        "eigenvalues": (_as_vector, _REQUIRED),
        # null, like no xstar, puts the minimum at the origin
        "xstar": (lambda v, where: None if v is None else _as_vector(v, where), None)}),
    "polynomial": (Polynomial1D, {
        "a": (_as_float, _REQUIRED), "p": (_as_int, _REQUIRED), "xstar": (_as_float, 0.0)}),
}
_DAMPINGS = {"vanishing": (Vanishing, {"c": (_as_float, 3.0)}),
             "constant": (Constant, {"alpha": (_as_float, _REQUIRED)})}
# a probe also takes its window t1, t2; _expand_perturbation applies the
# shared fields and gives a fourier probe without a seed the run's seed
_PROBES = {
    "triangle": (triangle, {
        "c": (_as_float, _REQUIRED), "eps": (_as_float, _REQUIRED), "delta": (_as_float, None)}),
    "sinusoid": (sinusoid, {"k": (_as_int, _REQUIRED)}),
    "fourier": (fourier_sine, {
        "seed": (_as_int, None), "n_modes": (functools.partial(_as_int, cap=_MAX_MODES), _REQUIRED),
        "decay": (_as_float, _REQUIRED)}),
}
_PROBE_SHARED = {"sigma": (_as_float, 1.0), "component": (_as_int, 0)}
_SWEEP_LIST = (lambda v, where: _as_vector(v, where).tolist(), None)
_CONFIG = {
    "experiment": (lambda v, where: v, None),  # echoed into report.json as given
    "seed": (_as_int, 0),  # --seed overrides it
    "potential": (functools.partial(_tagged, kinds=_POTENTIALS), _REQUIRED),
    "damping": (functools.partial(_tagged, kinds=_DAMPINGS), _REQUIRED),
    "interval": (_object({"t1": (_as_float, _REQUIRED), "t2": (_as_float, _REQUIRED)}), _REQUIRED),
    # n_steps None: the command's default
    "integration": (_object({"n_steps": (functools.partial(_as_int, cap=_MAX_STEPS), None)}), {}),
    # v0 None: at rest
    "initial": (_object({"x0": (_as_vector, _REQUIRED), "v0": (_as_vector, None)}), _REQUIRED),
    "perturbations": (_entries, _REQUIRED),  # each entry by _expand_perturbation
    # None: the window's length, its start, and the config's damping
    "sweep": (_object({"lengths": _SWEEP_LIST, "t1": _SWEEP_LIST, "alpha": _SWEEP_LIST}), {}),
}


def _config(cfg: dict, *names: str) -> list:
    """The config's fields `names`, each parsed by its _CONFIG entry."""
    return list(_fields(cfg, "config", _CONFIG, names).values())


def load_config(path: str) -> dict:
    """The JSON object in the file `path`, checked for unknown fields."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _config(cfg)
    return cfg


def _expand_perturbation(d, t1: float, t2: float, seed: int) -> list:
    """One perturbations entry -> its probes on [t1, t2] (a list-valued
    field sweeps)."""
    kind, rest = _kind(d, "perturbation", _PROBES)
    swept = [key for key, val in rest.items() if isinstance(val, list)]
    if len(swept) > 1:
        raise ConfigError("at most one perturbation field may be a list")
    if swept and not rest[swept[0]]:
        raise ConfigError(f"perturbation field '{swept[0]}' sweeps an empty list")
    build, spec = _PROBES[kind]
    out = []
    for entry in [{**rest, key: v} for key in swept for v in rest[key]] or [rest]:
        fields = _fields(entry, f"{kind} perturbation", {**_PROBE_SHARED, **spec})
        sigma, component = fields.pop("sigma"), fields.pop("component")
        if kind == "fourier" and fields["seed"] is None:
            fields["seed"] = seed
        h = scale(build(**fields, t1=t1, t2=t2), sigma)
        out.append(dataclasses.replace(h, component=component))
    return out


# --------------------------------------------------------------------------
# output plumbing


class Writer:
    """Collects written artifact paths so failed runs can be cleaned up.  The
    output directory is created on the first write, so a run rejected before
    it writes anything creates none."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.paths: list[Path] = []

    def write(self, name: str, chunks) -> str:
        """Write an iterable of bytes to the file `name`; the path is recorded
        first, so cleanup also removes a file whose chunks failed part way.  A
        directory or file that cannot be made or written is a config error."""
        p = self.dir / name
        try:
            if not self.paths:
                self.dir.mkdir(parents=True, exist_ok=True)
            self.paths.append(p)
            with p.open("wb") as f:
                f.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write {p}: {exc}") from exc
        return str(p)

    def csv(self, name: str, header: list, columns: list) -> str:
        from . import numtext  # loaded with the first table, not with vnag
        return self.write(name, numtext.csv(header, columns))

    def json(self, name: str, obj) -> str:
        # allow_nan=False: a NaN/inf reaching a report is a numerical failure
        try:
            text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise NumericalError(f"{name}: {exc}") from exc
        return self.write(name, [(text + "\n").encode()])

    def cleanup(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _trajectory_csv(writer: Writer, name: str, traj: Trajectory) -> str:
    """Write a sampled flow as CSV: t,x_0..x_{d-1},v_0..v_{d-1}."""
    names = [f"{q}_{i}" for q in "xv" for i in range(traj.dim)]
    return writer.csv(name, ["t", *names], [traj.t, *traj.x.T, *traj.v.T])


# --------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict, writer: Writer, seed: int) -> dict:
    pot, damping, (t1, t2), (n_steps,), (x0, v0) = _config(
        cfg, "potential", "damping", "interval", "integration", "initial")
    n_steps = 4000 if n_steps is None else n_steps
    v0 = np.zeros_like(x0) if v0 is None else v0
    cells = (n_steps + 1) * (2 * x0.size + 1)
    if cells > _MAX_CELLS:
        raise ConfigError(f"n_steps {n_steps} in {x0.size} dimensions makes a table of "
                          f"{cells} numbers; at most {_MAX_CELLS}")
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
    _trajectory_csv(writer, "trajectory.csv", traj)
    series = [(f"x_{i}", traj.t, traj.x[:, i]) for i in range(traj.dim)]
    writer.write("figure.svg", line_chart(series, title="flow trajectory", xlabel="t", ylabel="x"))
    return {"results": results,
            "inputs": {"potential": cfg["potential"], "damping": cfg["damping"],
                       "interval": {"t1": t1, "t2": t2},
                       "x0": x0.tolist(), "v0": v0.tolist()},
            "notes": [_INITIAL_CONDITION_NOTE]}


def _closed_form_for(h, spec: LagrangianSpec) -> float | None:
    pot, damping = spec.pot, spec.damping
    lam = float(pot.eigenvalues[h.component])
    if h.kind == "triangle" and isinstance(damping, Vanishing) and damping.c == 3.0:
        c, eps, _ = h.params
        return triangle_d2j_closed(lam, c, eps, sigma=h.sigma)
    if (h.kind == "sinusoid" and isinstance(damping, Constant)
            and abs(damping.alpha - 1.0) < 1e-12 and abs(lam - 1.0) < 1e-12):
        return sinusoid_d2j_closed(h.t1, h.t2, h.params[0], sigma=h.sigma)
    return None


def cmd_second_variation(cfg: dict, writer: Writer, seed: int) -> dict:
    pot, damping, (t1, t2), (n_steps,) = _config(
        cfg, "potential", "damping", "interval", "integration")
    if not isinstance(pot, QuadraticDiagonal):
        raise ConfigError("second-variation needs a quadratic potential")
    n_steps = 4096 if n_steps is None else n_steps
    spec = LagrangianSpec(damping, pot)
    probes = [h for entry in _config(cfg, "perturbations")[0]
              for h in _expand_perturbation(entry, t1, t2, seed)]
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
        if a["d2j_quadrature"] * b["d2j_quadrature"] < 0:
            sign_changes.append({"between": [a["perturbation"], b["perturbation"]]})
    if probes and probes[0].kind == "triangle":
        lam = float(pot.eigenvalues[0])
        c = probes[0].params[0]
        sign_changes.append({"epsilon_star": epsilon_star(lam * c * c, lam)})
    idx = list(range(len(table)))
    quad = np.array([e["d2j_quadrature"] for e in table], dtype=float)
    if not np.all(np.isfinite(quad)):
        raise NumericalError("d2J quadrature is not finite")
    # dtype=float turns a missing closed form (None) into nan
    closed = np.array([e["d2j_closed_form"] for e in table], dtype=float)
    writer.csv("d2j.csv", ["index", "d2j_quadrature", "d2j_closed_form"],
               [np.array(idx, dtype="S"), quad, closed])
    if len(table) > 1:
        series = [("quadrature", idx, quad)]
        if all(e["d2j_closed_form"] is not None for e in table):
            series.append(("closed form", idx, closed))
        writer.write("figure.svg", line_chart(series, title="second variation by probe",
                                              xlabel="probe index", ylabel="d2J"))
    return {"results": {"table": table, "sign_changes": sign_changes},
            "inputs": {"potential": cfg["potential"], "damping": cfg["damping"],
                       "interval": {"t1": t1, "t2": t2}, "n_steps": n_steps},
            "notes": []}


def cmd_classify(cfg: dict, writer: Writer, seed: int) -> dict:
    pot, damping, (t1, t2) = _config(cfg, "potential", "damping", "interval")
    if not isinstance(pot, QuadraticDiagonal):
        raise ConfigError("classification needs a quadratic potential")
    lengths, starts, alphas = _config(cfg, "sweep")[0]  # a given list is never empty
    lengths, starts = lengths or [t2 - t1], starts or [t1]
    dampings = [damping] if alphas is None else [Constant(a) for a in alphas]
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
    writer.csv("classify.csv", ["t1", "t2", "verdict", "binding_eigenvalue"],
               [*(np.array([r[key] for r in records], dtype=float) for key in ("t1", "t2")),
                np.array([c["verdict"] for c in cls], dtype="S"),
                np.array([c["binding_eigenvalue"] for c in cls], dtype=float)])
    return {"results": {"records": records},
            "inputs": {"potential": cfg["potential"], "damping": cfg["damping"]},
            "notes": []}


# --------------------------------------------------------------------------
# figure reproduction experiments


def _reproduce_fig1(writer: Writer) -> dict:
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
    writer.csv("fig1_curves.csv", ["curve", "t", "x"],
               [np.repeat(np.array(list(curves), dtype="S"), [len(t) for t in ts]),
                np.concatenate(ts), np.concatenate(xs)])
    writer.write("fig1.svg", line_chart(
        series, title="flow and two perturbation directions", xlabel="t", ylabel="x"))
    return {"results": {"table": table, "epsilon_star": star},
            "inputs": {"potential": "quadratic beta=1", "damping": "vanishing c=3",
                       "interval": {"t1": t1, "t2": t2}},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "perturbation family (triangles, small vs large half-width) "
                      "is the tool's choice of opposite-sign directions"]}


def _reproduce_fig2(writer: Writer) -> dict:
    from .numtext import g17_cells
    betas = [0.5, 1.0, 2.0, 4.0, 8.0]
    slopes = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
    beta_cells, slope_cells = g17_cells(betas), g17_cells(slopes)
    conj = {}
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
        writer.csv(f"fig2_t1_{t1:g}.csv", ["beta", "slope", "t", "h"], [
            np.repeat(beta_cells, [len(slopes) * m for m in counts]),
            np.concatenate([np.repeat(slope_cells, m) for m in counts]),
            np.concatenate([np.tile(tc, len(slopes)) for tc in t_cells]),
            np.concatenate([np.outer(slopes, ys[::8]).ravel() for _, _, ys in series])])
        writer.write(f"fig2_t1_{t1:g}.svg", line_chart(
            series, title=f"Jacobi solutions from t1={t1:g} (unit slope)",
            xlabel="t", ylabel="h", markers=markers))
    return {"results": {"first_conjugate_times": conj},
            "inputs": {"betas": betas, "t1_values": [1.0, 4.0]},
            "notes": ["higher curvature pulls the first conjugate point earlier"]}


def _reproduce_fig3(writer: Writer) -> dict:
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
    writer.csv("fig3_actions.csv", ["alpha", "length", "action", "verdict"],
               [np.repeat(alphas, len(lengths)),
                *(np.array([w[key] for w in windows], dtype=float) for key in ("length", "action")),
                np.array([w["verdict"] for w in windows], dtype="S")])
    writer.write("fig3.svg", line_chart(series, title="objective along constant-damping flows",
                                        xlabel="t", ylabel="f(x)"))
    return {"results": {"records": records},
            "inputs": {"objective": "0.02 x^2 + 0.0004 y^2",
                       "hessian_eigenvalues": [0.04, 0.0008],
                       "stated_beta": beta_stated, "stated_mu": mu_stated},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "the stated beta/mu equal the quadratic coefficients, not the "
                      "Hessian eigenvalues; the discrepancy is recorded, not resolved"]}


def _reproduce_unbounded(writer: Writer) -> dict:
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
    writer.csv("unbounded.csv", header,
               [np.array([a[key] for a in results["actions"]], dtype=float) for key in header])
    return {"results": results,
            "inputs": {"potential": "quadratic beta=1", "damping": "vanishing c=3",
                       "interval": {"t1": t1, "t2": t2}},
            "notes": ["interval length exceeds sqrt(40/beta), so both signs are reachable"]}


def _reproduce_poly(writer: Writer) -> dict:
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
    writer.csv("poly_windows.csv", header,
               [np.array([r[key] for r in records], dtype=float) for key in header])
    _trajectory_csv(writer, "poly_base.csv", Trajectory(base.t[::10], base.x[::10], base.v[::10]))
    return {"results": {"records": records,
                        "conjugate_free_from_start": threshold},
            "inputs": {"potential": "x^4", "damping": "vanishing c=3",
                       "x0": 1.5, "t_span": [0.01, 60.0]},
            "notes": [_INITIAL_CONDITION_NOTE,
                      "windows starting past `conjugate_free_from_start` show no "
                      "conjugate point up to the search cap: curvature along the "
                      "path vanishes and minimality extends"]}


_FIGURES = {"fig1": _reproduce_fig1, "fig2": _reproduce_fig2,
            "fig3": _reproduce_fig3, "unbounded": _reproduce_unbounded,
            "poly": _reproduce_poly}
_COMMANDS = {"simulate": cmd_simulate, "second-variation": cmd_second_variation,
             "classify": cmd_classify}


# --------------------------------------------------------------------------
# entry point


def _run(args) -> int:
    writer = Writer(args.out)
    start = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else {}
        seed = _config(cfg, "seed")[0] if args.seed is None else args.seed
        body = (_FIGURES[args.figure](writer) if args.command == "reproduce"
                else _COMMANDS[args.command](cfg, writer, seed))
        elapsed = time.perf_counter() - start
        report = {"experiment": cfg.get("experiment",
                                        getattr(args, "figure", None) or args.command),
                  "tool": {"name": "vnag", "version": __version__},
                  "seed": seed, **body}
        report["artifacts"] = sorted(p.name for p in writer.paths)
        writer.json("report.json", report)
    except ValueError as exc:  # ConfigError, or the library rejecting an argument
        writer.cleanup()
        print(f"vnag: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        writer.cleanup()
        print(f"vnag: numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        writer.cleanup()
        raise
    # wall-clock goes to stderr only: report files stay byte-deterministic
    print(f"vnag {args.command}: ok ({elapsed:.2f}s) -> {writer.dir}", file=sys.stderr)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnag",
        description="accelerated-flow action analysis: simulate flows, evaluate "
                    "second variations, locate conjugate points, classify paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("simulate", True), ("second-variation", True),
                               ("classify", True), ("reproduce", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="JSON experiment configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override for randomized probes")
        if name == "reproduce":
            p.add_argument("--figure", required=True,
                           choices=sorted(_FIGURES), help="experiment to run")
    return parser


def main(argv=None) -> int:
    return _run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
