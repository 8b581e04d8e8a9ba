"""The config corpus: 400 `vnag` runs, valid and faulty, drawn once from a
fixed `random.Random` seed (not from hypothesis, so an upgrade of it cannot
reshuffle the corpus).

Each line of `corpus.jsonl` is one run, {"command", "config", "seed"}, where
a null seed passes no `--seed`.  A run starts from a valid config of its
command, drawn from every potential, damping and probe kind, with sweeps,
swept probe fields, null `xstar` and omitted optional fields, and one run
in two then takes one to three faults: a field (at any depth) replaced by
an odd value, a field dropped, an unknown field added, or the whole config
replaced.  `corpus.sha256` records each run's exit code and the sha256 of
every file it leaves; `tests/test_golden.py` runs the corpus again and
compares.  A change to this generator rewrites the corpus and its manifest:

    PYTHONPATH=src python tests/golden/corpus.py
    PYTHONPATH=src python tests/golden/bless.py
"""
from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.jsonl"
SEED, RUNS = 16, 400

# the odd values of tests/test_cli.py's fuzz, plus non-finite numbers, a
# boolean false, a fraction where an integer belongs, and an object
_ODD = (0, -1.0, 1e300, -1e300, "nan", "inf", "x", [], [1], None, True, False,
        math.nan, math.inf, 2.5, {"kind": "quadratic"})


def _maybe(rng: random.Random, d: dict, key: str, values: tuple, p: float = 0.5):
    """Set d[key] to one of values with probability p; else leave it out."""
    if rng.random() < p:
        d[key] = rng.choice(values)


def _potential(rng: random.Random, p_polynomial: float) -> dict:
    if rng.random() >= p_polynomial:
        eig = rng.choice(([1.0], [0.5, 4.0], [0.3, 1.0, 2.0], [0.01], [2.5]))
        pot = {"kind": "quadratic", "eigenvalues": eig}
        _maybe(rng, pot, "xstar", (None, [0.25] * len(eig), [-1.0] * len(eig)))
        return pot
    pot = {"kind": "polynomial", "a": rng.choice((1.0, 0.5)), "p": rng.choice((2, 4))}
    _maybe(rng, pot, "xstar", (0.0, 0.5))
    return pot


def _damping(rng: random.Random) -> dict:
    if rng.random() < 0.6:
        damping = {"kind": "vanishing"}
        _maybe(rng, damping, "c", (3.0, 2.5, 4.0), 0.8)
        return damping
    return {"kind": "constant", "alpha": rng.choice((0.5, 1.0, 3.0))}


def _probe(rng: random.Random, t1: float, t2: float) -> dict:
    kind = rng.choice(("triangle", "sinusoid", "fourier"))
    if kind == "triangle":
        probe = {"kind": kind, "c": rng.choice((0.5 * (t1 + t2), t1 + 1.25)),
                 "eps": rng.choice((1.0, 0.5, [0.3, 0.8, 1.2]))}
        _maybe(rng, probe, "delta", (0.002,), 0.2)
    elif kind == "sinusoid":
        probe = {"kind": kind, "k": rng.choice((1, 2, [1, 2, 3]))}
    else:
        probe = {"kind": kind, "n_modes": rng.choice((3, 6, [2, 4])), "decay": 1.5}
        _maybe(rng, probe, "seed", (5, 11))
    _maybe(rng, probe, "sigma", (0.5, 2.0), 0.3)
    _maybe(rng, probe, "component", (0, 1), 0.3)
    return probe


def _valid(rng: random.Random, command: str) -> dict:
    """A config that every field of `command` accepts (a value may still be
    rejected in combination, e.g. a component beyond the dimension)."""
    t1 = rng.choice((0.5, 1.0, 2.0))
    t2 = t1 + rng.choice((3.0, 6.0, 8.0))
    # classify takes only quadratics, and second-variation a polynomial only
    # with a base trajectory, which a config cannot give
    cfg = {"potential": _potential(rng, 0.3 if command == "simulate" else 0.1),
           "damping": _damping(rng), "interval": {"t1": t1, "t2": t2}}
    _maybe(rng, cfg, "experiment", ("corpus run", 7), 0.2)
    _maybe(rng, cfg, "seed", (0, 7, 123), 0.3)
    if command == "simulate":
        dim = len(cfg["potential"].get("eigenvalues", [0.0]))
        cfg["integration"] = {"n_steps": rng.choice((8, 64, 200))}
        cfg["initial"] = {"x0": [rng.choice((1.0, -0.5)) for _ in range(dim)]}
        _maybe(rng, cfg["initial"], "v0", ([0.0] * dim, [0.5] * dim))
    elif command == "second-variation":
        _maybe(rng, cfg, "integration", ({"n_steps": 64}, {"n_steps": 256}, {}), 0.9)
        cfg["perturbations"] = [_probe(rng, t1, t2) for _ in range(rng.randint(1, 3))]
    else:
        sweep = {}
        _maybe(rng, sweep, "lengths", ([1.0, 5.0], [2.0], [0.5, 3.0, 9.0]))
        _maybe(rng, sweep, "t1", ([0.5, 2.0], [1.0]))
        _maybe(rng, sweep, "alpha", ([0.5, 2.5], [1.0]), 0.3)
        _maybe(rng, cfg, "sweep", (sweep,), 0.7)
    return cfg


def _slots(value, path=()):
    """Paths of every field and list entry inside a config value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [s for key, v in items for s in [path + (key,)] + _slots(v, path + (key,))]


def _fault(rng: random.Random, cfg):
    """cfg with one fault: an odd value in a field, a field dropped, an
    unknown field added, or the whole config replaced."""
    slots = _slots(cfg)
    how = rng.choice(("odd",) * 5 + ("drop", "drop", "unknown", "unknown", "whole"))
    if how == "whole" or not slots:
        return copy.deepcopy(rng.choice(_ODD + ([cfg],)))
    *parent, key = rng.choice(slots)
    holder = cfg
    for step in parent:
        holder = holder[step]
    if how == "drop":
        del holder[key]
    elif how == "unknown" and isinstance(holder, dict):
        holder["colour"] = "blue"
    elif isinstance(holder[key], float) and rng.random() < 0.3:
        holder[key] = rng.choice((True, False))  # a boolean where a number belongs
    else:  # the odd values are shared: a later fault must not edit one in place
        holder[key] = copy.deepcopy(rng.choice(_ODD))
    return cfg


def generate() -> str:
    """The text of corpus.jsonl."""
    rng = random.Random(SEED)
    lines = []
    for _ in range(RUNS):
        command = rng.choice(("simulate", "second-variation", "classify"))
        cfg = _valid(rng, command)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                cfg = _fault(rng, cfg)
        seed = rng.choice((None, None, 3, 99))
        lines.append(json.dumps({"command": command, "config": cfg, "seed": seed},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    CORPUS.write_text(generate())
    print(f"wrote {RUNS} runs to {CORPUS}")
