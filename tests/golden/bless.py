"""Golden outputs: the sha256 of every file a fixed set of vnag runs writes.

The runs are the five `vnag reproduce` figures and one run of each config
in this directory.  `outputs.sha256` records their digests, with the Python
and numpy versions that produced them in its header.  `corpus.sha256`
records, for each run of `corpus.jsonl` (see corpus.py), its exit code
(`<code>  <run>/exit`) and the digest of every file it leaves.
tests/test_golden.py runs both again and compares.  A change that alters
output bytes or exit codes on purpose rewrites both manifests with

    PYTHONPATH=src python tests/golden/bless.py

and names each changed file in its change notes; it prints every entry it
changed, added or removed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from vnag.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "outputs.sha256"
CORPUS, CORPUS_MANIFEST = HERE / "corpus.jsonl", HERE / "corpus.sha256"
FIGURES = ("fig1", "fig2", "fig3", "unbounded", "poly")
CONFIGS = (("second-variation", "second_variation.json"), ("classify", "classify.json"),
           ("simulate", "simulate.json"), ("classify", "classify_c25.json"),
           ("second-variation", "second_variation_constant.json"))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def produce(out_root: Path) -> dict:
    """Run every golden case below out_root; {relative path: sha256}."""
    runs = [(f, ["reproduce", "--figure", f]) for f in FIGURES]
    runs += [(Path(name).stem, [command, "--config", str(HERE / name)])
             for command, name in CONFIGS]
    for label, argv in runs:
        if main([*argv, "--out", str(out_root / label)]) != 0:
            raise RuntimeError(f"golden run {label} failed")
    return _digests(out_root)


def produce_corpus(out_root: Path) -> dict:
    """Run every corpus line below out_root; {"<run>/exit": exit code,
    "<run>/<file>": sha256}, runs numbered from 0000."""
    codes = {}
    for i, line in enumerate(CORPUS.read_text().splitlines()):
        run = json.loads(line)
        cfg = out_root / "configs" / f"{i:04d}.json"
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text(json.dumps(run["config"]))
        seed = [] if run["seed"] is None else ["--seed", str(run["seed"])]
        # a warning does not raise, as in a `vnag` process (and unlike under
        # the test suite's filter); messages are not pinned
        with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([run["command"], "--config", str(cfg),
                         "--out", str(out_root / "out" / f"{i:04d}"), *seed])
        codes[f"{i:04d}/exit"] = str(code)
    return {**codes, **_digests(out_root / "out")}


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_manifest(path: Path = MANIFEST) -> tuple[dict, dict]:
    """(versions, digests) recorded in a manifest."""
    meta, digests = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and ":" in line:
            key, _, value = line[2:].partition(":")
            meta[key.strip()] = value.strip()
        elif line and not line.startswith("#"):
            digest, name = line.split(maxsplit=1)
            digests[name] = digest
    return meta, digests


def write_manifest(digests: dict, path: Path = MANIFEST):
    head = ["# sha256 of the files written by the golden vnag runs (tests/golden/bless.py)",
            *(f"# {key}: {value}" for key, value in versions().items())]
    path.write_text("\n".join(head + [f"{d}  {n}" for n, d in sorted(digests.items())]) + "\n")


if __name__ == "__main__":
    for make, path in ((produce, MANIFEST), (produce_corpus, CORPUS_MANIFEST)):
        with tempfile.TemporaryDirectory() as tmp:
            found = make(Path(tmp))
        old = read_manifest(path)[1] if path.exists() else {}
        for name in sorted(old.keys() | found.keys()):
            if old.get(name) != found.get(name):
                what = "added" if name not in old else "removed" if name not in found else "changed"
                print(f"{what}: {path.name} {name}", file=sys.stderr)
        write_manifest(found, path)
        print(f"wrote {len(found)} digests to {path}", file=sys.stderr)
