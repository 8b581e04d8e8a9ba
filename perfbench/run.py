"""Benchmark for vnag: one workload per run, from the root of a source checkout.

    python3 perfbench/run.py --workload classify_c3 --seed 1 --seconds 30 --trace 0

A run imports vnag from ./src, builds the workload's inputs from the seed and
warms up (the set-up, repeated SETUPS times), then runs whole rounds of the
same operations until --seconds have passed.  Every operation and every
set-up is timed right after a pass over the fixed calibration kernels
(calibrate.py) and divided by that pass's time; the reported times are
REFERENCE_S times the median of those ratios (summed over a round's
operations).  README.md says why.  After the timed rounds the outputs of the
first round are checked against independent references (reference.py) and
every later round must reproduce them exactly.  The last line of stdout is
one JSON object.

With --trace 1 the run alternates untraced and traced rounds; traced rounds
wrap vnag's public functions (tracer.py) and give the per-layer metrics, and
trace.overhead_s is the traced round time minus the untraced one.  The spans
of the first traced round go to .bench_out/trace-<workload>-seed<seed>.json.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

MODULES = ("bessel", "jacobi", "dynamics", "potentials", "action", "perturbations",
           "svgchart", "cli")
SETUPS = 9
OUT_DIR = ".bench_out"
# layers each workload must leave alone; confirmed by every traced run
UNUSED_LAYERS = {
    "classify_c3": ("dynamics.integrate_flow.steps", "jacobi.shooting.steps"),
    "rk4_flows": ("bessel.calls",),
    "cli_runs": (),
}
LAYER_UNITS = {"calls": "count", "steps": "count", "roots": "count", "commands": "count",
               "bytes_written": "bytes", "bessel_calls_per_root": "count",
               "us_per_call": "us", "us_per_step": "us", "us_per_step_dim": "us"}


def unload_vnag():
    for name in [n for n in sys.modules if n == "vnag" or n.startswith("vnag.")]:
        del sys.modules[name]


def load_vnag(src: Path):
    """Import (or re-import) every vnag module from src."""
    unload_vnag()
    mods = {m: importlib.import_module(f"vnag.{m}") for m in MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != (src / "vnag").resolve():
            raise ImportError(f"vnag imported from {mod.__file__}, not from {src}")
    return types.SimpleNamespace(**mods)


def round_time(rounds, column: int, ref_s: float) -> float:
    """Sum over operations of the median over rounds of time / calibration
    (column 0: wall, 1: CPU), in reference seconds."""
    n_ops = len(rounds[0])
    return ref_s * sum(statistics.median(r[k][column] / r[k][column + 2] for r in rounds)
                       for k in range(n_ops))


def timed_rounds(wl, seconds: float, tracer, vn, calibrate) -> dict:
    """Run whole rounds until `seconds` have passed; with a tracer, every
    second round is traced.  Keeps every operation's times of every round."""
    times = {False: [], True: []}
    layers = []
    attempted = failed = 0
    first = fp0 = spans = None
    mismatched = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        wl.before_round()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.spans = [] if spans is None else None
            tracer.install(vn)
        outputs, n_failed, op_times = wl.run_round(calibrate)
        if traced:
            tracer.uninstall()
            cal = statistics.median(t[2] for t in op_times)
            layers.append((tracer.round_metrics(), cal))
            if spans is None:
                spans = tracer.spans
        times[traced].append(op_times)
        attempted += wl.attempted_per_round
        failed += n_failed
        fp = wl.fingerprint(outputs)
        if first is None:
            first, fp0 = (outputs, wl.snapshot()), fp
        elif fp != fp0:
            mismatched.append(i)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i >= 2):
            break
    return dict(times=times, layers=layers, attempted=attempted, failed=failed,
                first=first, spans=spans, mismatched=mismatched)


def layer_metrics(layers, ref_s: float) -> dict:
    """Median over traced rounds; times scaled by the round's calibration."""
    out = {}
    for key in layers[0][0]:
        unit = LAYER_UNITS.get(key.rsplit(".", 1)[1], "s")
        scaled = unit in ("s", "us")
        out[key] = (statistics.median(m[key] * (ref_s / cal if scaled else 1.0)
                                      for m, cal in layers), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNUSED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "vnag" / "__init__.py").is_file():
        print("perfbench: src/vnag not found; run from the root of a vnag checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  the program's dependency, loaded before any timing

    import workloads
    from calibrate import REFERENCE_S, calibrate
    from tracer import Tracer

    out_dir = root / OUT_DIR
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setups = []  # (set-up time, calibration time just before it)
        for _ in range(SETUPS):
            # free the previous set-up's modules, so one copy is alive at a time
            vn = wl = None
            unload_vnag()
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()
            cal_wall, _ = calibrate()
            t0 = time.perf_counter()
            vn = load_vnag(src)
            wl = workloads.WORKLOADS[args.workload](vn, args.seed, workdir)
            wl.warmup()
            setups.append((time.perf_counter() - t0, cal_wall))

        tracer = Tracer() if args.trace else None
        run = timed_rounds(wl, args.seconds, tracer, vn, calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [f"round {i}: outputs differ from the first round"
                    for i in run["mismatched"]]
        try:
            problems += wl.check(*run["first"])
        except Exception:  # an output the checks cannot read is a wrong output
            traceback.print_exc()
            problems.append("the checks could not read the outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)

    untraced = run["times"][False]
    wall = round_time(untraced, 0, REFERENCE_S)
    if tracer is None:
        metrics = {
            "setup_s": (REFERENCE_S * statistics.median(s / c for s, c in setups), "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (wl.items_per_round / wall, "1/s"),
            "cpu_s": (round_time(untraced, 1, REFERENCE_S), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(run["layers"], REFERENCE_S)
        metrics["trace.overhead_s"] = (round_time(run["times"][True], 0, REFERENCE_S) - wall,
                                       "s")
        idle = {k: metrics[k][0] == 0 for k in UNUSED_LAYERS[args.workload]}
        print(f"perfbench: {args.workload}: unused layers idle: {idle}", file=sys.stderr)
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": {"untraced": len(untraced), "traced": len(run["times"][True])},
            "per_layer": {k: v for k, (v, _) in metrics.items()},
            "unused_layers_idle": idle, "not_wrapped": tracer.missing,
            "spans_fields": ["id", "parent", "group", "function", "start", "end"],
            "spans": run["spans"],
        }))
    rounds = [sum(t[0] for t in r) for r in untraced]
    print(f"perfbench: {args.workload}: {len(untraced)} untraced rounds; measured medians: "
          f"set-up {statistics.median(s for s, _ in setups):.4f} s, "
          f"round {statistics.median(rounds):.4f} s, "
          f"calibration {statistics.median(t[2] for r in untraced for t in r):.4f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
