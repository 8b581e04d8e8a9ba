"""Experiment runner: `vnag <subcommand> --config cfg.json --out DIR [--seed N]`.

Subcommands: simulate, second-variation, classify, reproduce.  Configs are
single JSON documents; the table `_CONFIG` lists every field, and unknown
ones are rejected.  `experiments` computes each run; this module writes its
CSV/JSON (authoritative) and small SVG charts, byte-deterministic for a fixed
config and seed, as bytes that `numtext` prints.  Exit codes: 0 ok, 2
config error (any `ValueError`: the library raises it only to reject its
arguments; or an output path that cannot be written), 3 numerical failure
(`NumericalError`, or a float overflow).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, experiments
from .dynamics import Constant, Vanishing
from .errors import ConfigError, NumericalError
from .perturbations import fourier_sine, scale, sinusoid, triangle
from .potentials import Polynomial1D, QuadraticDiagonal

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
# subcommands: parse, apply defaults and config-only checks, run the experiment


def cmd_simulate(cfg: dict, seed: int) -> tuple:
    pot, damping, (t1, t2), (n_steps,), (x0, v0) = _config(
        cfg, "potential", "damping", "interval", "integration", "initial")
    n_steps = 4000 if n_steps is None else n_steps
    v0 = np.zeros_like(x0) if v0 is None else v0
    cells = (n_steps + 1) * (2 * x0.size + 1)
    if cells > _MAX_CELLS:
        raise ConfigError(f"n_steps {n_steps} in {x0.size} dimensions makes a table of "
                          f"{cells} numbers; at most {_MAX_CELLS}")
    body, files = experiments.simulate(pot, damping, x0, v0, t1, t2, n_steps)
    body["inputs"] = {"potential": cfg["potential"], "damping": cfg["damping"],
                      "interval": {"t1": t1, "t2": t2}, "x0": x0.tolist(), "v0": v0.tolist()}
    return body, files


def cmd_second_variation(cfg: dict, seed: int) -> tuple:
    pot, damping, (t1, t2), (n_steps,) = _config(
        cfg, "potential", "damping", "interval", "integration")
    if not isinstance(pot, QuadraticDiagonal):
        raise ConfigError("second-variation needs a quadratic potential")
    n_steps = 4096 if n_steps is None else n_steps
    probes = [h for entry in _config(cfg, "perturbations")[0]
              for h in _expand_perturbation(entry, t1, t2, seed)]
    body, files = experiments.second_variation_probes(pot, damping, t1, t2, n_steps, probes)
    body["inputs"] = {"potential": cfg["potential"], "damping": cfg["damping"],
                      "interval": {"t1": t1, "t2": t2}, "n_steps": n_steps}
    return body, files


def cmd_classify(cfg: dict, seed: int) -> tuple:
    pot, damping, (t1, t2) = _config(cfg, "potential", "damping", "interval")
    if not isinstance(pot, QuadraticDiagonal):
        raise ConfigError("classification needs a quadratic potential")
    lengths, starts, alphas = _config(cfg, "sweep")[0]  # a given list is never empty
    lengths, starts = lengths or [t2 - t1], starts or [t1]
    dampings = [damping] if alphas is None else [Constant(a) for a in alphas]
    body, files = experiments.classify_sweep(pot, dampings, starts, lengths)
    body["inputs"] = {"potential": cfg["potential"], "damping": cfg["damping"]}
    return body, files


_COMMANDS = {"simulate": cmd_simulate, "second-variation": cmd_second_variation,
             "classify": cmd_classify}


# --------------------------------------------------------------------------
# entry point


def _write(out: Path, files: list):
    """Write each (name, header, columns) table or (name, chunks) file into out, in
    order; if one fails, remove every file written, the failed one too.  A directory
    or file that cannot be made or written is a config error."""
    from . import numtext  # loaded with the first table, not with vnag
    written = []
    try:
        for name, *content in files:
            path = out / name
            if not written:
                out.mkdir(parents=True, exist_ok=True)
            written.append(path)
            with path.open("wb") as f:
                f.writelines(numtext.csv(*content) if len(content) == 2 else content[0])
    except Exception as exc:
        for p in written:
            with contextlib.suppress(OSError):
                p.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _run(args) -> int:
    start = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else {}
        seed = _config(cfg, "seed")[0] if args.seed is None else args.seed
        body, files = (experiments.FIGURES[args.figure]() if args.command == "reproduce"
                       else _COMMANDS[args.command](cfg, seed))
        report = {"experiment": cfg.get("experiment",
                                        getattr(args, "figure", None) or args.command),
                  "tool": {"name": "vnag", "version": __version__},
                  "seed": seed, **body, "artifacts": sorted(name for name, *_ in files)}
        # encoded before any file is written, so a failed run leaves no output;
        # allow_nan=False: a NaN/inf reaching a report is a numerical failure
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise NumericalError(f"report.json: {exc}") from exc
        _write(Path(args.out), [*files, ("report.json", [(text + "\n").encode()])])
        elapsed = time.perf_counter() - start
    except ValueError as exc:  # ConfigError, or the library rejecting an argument
        print(f"vnag: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"vnag: numerical failure: {exc}", file=sys.stderr)
        return 3
    # wall-clock goes to stderr only: report files stay byte-deterministic
    print(f"vnag {args.command}: ok ({elapsed:.2f}s) -> {Path(args.out)}", file=sys.stderr)
    return 0




@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnag",
        description="accelerated-flow action analysis: simulate flows, evaluate "
                    "second variations, locate conjugate points, classify paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_COMMANDS, "reproduce"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "reproduce",
                       help="JSON experiment configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override for randomized probes")
        if name == "reproduce":
            p.add_argument("--figure", required=True,
                           choices=sorted(experiments.FIGURES), help="experiment to run")
    return parser


def main(argv=None) -> int:
    return _run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
