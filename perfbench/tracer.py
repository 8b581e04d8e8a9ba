"""Per-layer tracing by wrapping vnag's public functions from outside.

`Tracer.install` replaces each listed function (in every vnag module that
imported it, e.g. `jacobi.bessel_j1`) and each listed method (on its class)
with a wrapper that records a span: name, start, end and parent span.
`uninstall` puts the originals back, so untraced rounds run the program
untouched.  A layer's self time is its span's duration minus the time of its
child spans.  Spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# (module, attribute or "Class.method", group)
TARGETS = [
    ("bessel", "bessel_j1", "bessel"),
    ("bessel", "bessel_y1", "bessel"),
    ("jacobi", "classify", "jacobi.classify"),
    ("jacobi", "first_conjugate_time", "jacobi.first_conjugate_time"),
    ("jacobi", "conjugate_points_bessel", "jacobi.conjugate_points_bessel"),
    ("jacobi", "conjugate_points_shooting", "jacobi.shooting"),
    ("jacobi", "conjugate_points_along", "jacobi.shooting"),
    ("jacobi", "jacobi_solution", "jacobi.shooting"),
    ("jacobi", "saddle_witness", "jacobi.saddle_witness"),
    ("jacobi", "jacobi_closed_vanishing", "jacobi.closed_form"),
    ("jacobi", "jacobi_closed_constant", "jacobi.closed_form"),
    ("jacobi", "epsilon_star", "jacobi.closed_form"),
    ("jacobi", "triangle_d2j_closed", "jacobi.closed_form"),
    ("jacobi", "sinusoid_d2j_closed", "jacobi.closed_form"),
    ("dynamics", "integrate_flow", "dynamics.integrate_flow"),
    ("dynamics", "el_residual", "dynamics.el_residual"),
    ("dynamics", "constant_damping_solution", "dynamics.closed_form"),
    ("dynamics", "Trajectory.sample", "dynamics.sample"),
    ("dynamics", "Trajectory.to_csv", "cli.serialize"),
    ("potentials", "QuadraticDiagonal.grad", "potentials.grad"),
    ("potentials", "Polynomial1D.grad", "potentials.grad"),
    ("potentials", "QuadraticDiagonal.value", "potentials.value"),
    ("potentials", "Polynomial1D.value", "potentials.value"),
    ("potentials", "QuadraticDiagonal.grad_rows", "potentials.rows"),
    ("potentials", "Polynomial1D.grad_rows", "potentials.rows"),
    ("potentials", "QuadraticDiagonal.value_rows", "potentials.rows"),
    ("potentials", "Polynomial1D.value_rows", "potentials.rows"),
    ("potentials", "Polynomial1D.second_deriv", "potentials.second_deriv"),
    ("action", "action", "action.action"),
    ("action", "second_variation", "action.second_variation"),
    ("action", "second_variation_report", "action.second_variation_report"),
    ("action", "first_variation", "action.first_variation"),
    ("perturbations", "Perturbation.value", "perturbations.eval"),
    ("perturbations", "Perturbation.deriv", "perturbations.eval"),
    ("perturbations", "perturb_curve", "perturbations.perturb_curve"),
    ("perturbations", "triangle", "perturbations.build"),
    ("perturbations", "sinusoid", "perturbations.build"),
    ("perturbations", "fourier_sine", "perturbations.build"),
    ("perturbations", "scale", "perturbations.build"),
    ("svgchart", "line_chart", "svgchart.line_chart"),
    ("cli", "main", "cli.command"),
    ("cli", "load_config", "cli.parse"),
    ("cli", "build_potential", "cli.parse"),
    ("cli", "build_damping", "cli.parse"),
    ("cli", "_interval", "cli.parse"),
    ("cli", "_expand_perturbation", "cli.parse"),
    ("cli", "Writer.text", "cli.serialize"),
    ("cli", "Writer.json", "cli.serialize"),
    ("cli", "_csv", "cli.serialize"),
]

# functions that return conjugate times: roots are counted at the outermost one
ROOT_SEARCHES = {"first_conjugate_time", "conjugate_points_bessel",
                 "conjugate_points_shooting", "conjugate_points_along"}
STEP_ARGS = {"integrate_flow", "conjugate_points_shooting", "conjugate_points_along",
             "jacobi_solution"}
SPAN_CAP = 50_000  # spans kept per run


class Tracer:
    def __init__(self):
        self.installed = []  # (owner, attribute, original)
        self.missing = []
        self.spans = None  # a list while spans are being recorded
        self.next_id = 0
        self.reset()

    def reset(self):
        """Start a new round: clear the aggregates, keep recording spans."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.stack = []
        self.root_depth = 0

    # ---- wrapping ----

    def install(self, vn):
        self.missing = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "vnag" or name.startswith("vnag."))]
        for mod_name, attr, group in TARGETS:
            mod = getattr(vn, mod_name)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(fn, meth, group)
            if cls_name:
                self._swap(owner, meth, wrapped)
            else:  # every module that imported this function by name
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._swap(m, name, wrapped)

    def _swap(self, owner, name, value):
        self.installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self.installed):
            setattr(owner, name, original)
        self.installed = []

    def _wrap(self, fn, fname, group):
        tracer = self
        clock = time.perf_counter
        sig = inspect.signature(fn) if fname in STEP_ARGS else None
        is_root = fname in ROOT_SEARCHES
        has_steps = fname in STEP_ARGS

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.next_id]  # time spent in child spans, span id
            tracer.next_id += 1
            stack.append(frame)
            outer_root = is_root and tracer.root_depth == 0
            if is_root:
                tracer.root_depth += 1
                bessel_before = tracer.calls["bessel"]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[group] += 1
                tracer.self_s[group] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if is_root:
                    tracer.root_depth -= 1
                if tracer.spans is not None and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[1], None if parent is None else parent[1],
                                         group, fname, start, end))
            if outer_root:
                roots = (int(result is not None) if fname == "first_conjugate_time"
                         else len(result.conjugate_times))
                tracer.counts["jacobi.roots"] += roots
                tracer.counts["jacobi.bessel_in_roots"] += tracer.calls["bessel"] - bessel_before
            if has_steps:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = bound.arguments["n_steps"]
                tracer.counts[f"{group}.steps"] += n
                if fname == "integrate_flow":
                    tracer.counts["dynamics.step_dims"] += n * bound.arguments["pot"].dim
            if fname == "text" and group == "cli.serialize":
                content = args[2] if len(args) > 2 else kwargs["content"]
                tracer.counts["cli.bytes_written"] += len(content.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- results ----

    def round_metrics(self) -> dict:
        """Per-layer metrics of the round just traced."""
        c, s, n = self.calls, self.self_s, self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        return {
            "bessel.calls": c["bessel"],
            "bessel.self_s": s["bessel"],
            "bessel.us_per_call": per(s["bessel"], c["bessel"], 1e6),
            "jacobi.classify.calls": c["jacobi.classify"],
            "jacobi.classify.self_s": s["jacobi.classify"],
            "jacobi.first_conjugate_time.calls": c["jacobi.first_conjugate_time"],
            "jacobi.first_conjugate_time.self_s": s["jacobi.first_conjugate_time"],
            "jacobi.roots": n["jacobi.roots"],
            "jacobi.bessel_calls_per_root": per(n["jacobi.bessel_in_roots"], n["jacobi.roots"]),
            "jacobi.shooting.calls": c["jacobi.shooting"],
            "jacobi.shooting.steps": n["jacobi.shooting.steps"],
            "jacobi.shooting.self_s": s["jacobi.shooting"],
            "jacobi.shooting.us_per_step": per(s["jacobi.shooting"],
                                               n["jacobi.shooting.steps"], 1e6),
            "jacobi.saddle_witness.self_s": s["jacobi.saddle_witness"],
            "dynamics.integrate_flow.calls": c["dynamics.integrate_flow"],
            "dynamics.integrate_flow.steps": n["dynamics.integrate_flow.steps"],
            "dynamics.integrate_flow.self_s": s["dynamics.integrate_flow"],
            "dynamics.us_per_step_dim": per(s["dynamics.integrate_flow"],
                                            n["dynamics.step_dims"], 1e6),
            "dynamics.el_residual.self_s": s["dynamics.el_residual"],
            "potentials.grad.calls": c["potentials.grad"],
            "potentials.grad.self_s": s["potentials.grad"],
            "potentials.second_deriv.calls": c["potentials.second_deriv"],
            "action.second_variation.calls": c["action.second_variation"],
            "action.second_variation.self_s": s["action.second_variation"],
            "action.action.calls": c["action.action"],
            "action.action.self_s": s["action.action"],
            "perturbations.eval.calls": c["perturbations.eval"],
            "perturbations.eval.self_s": s["perturbations.eval"],
            "perturbations.perturb_curve.self_s": s["perturbations.perturb_curve"],
            "cli.commands": c["cli.command"],
            "cli.parse.self_s": s["cli.parse"],
            "cli.serialize.self_s": s["cli.serialize"],
            "cli.bytes_written": n["cli.bytes_written"],
            "svgchart.line_chart.self_s": s["svgchart.line_chart"],
        }
