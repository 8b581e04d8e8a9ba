"""Golden outputs: the sha256 of every file a fixed set of vnag runs writes.

The runs are the five `vnag reproduce` figures and one run of each config
in this directory.  `outputs.sha256` records their digests, with the Python
and numpy versions that produced them in its header; tests/test_golden.py
runs them again and compares.  A change that alters output bytes on
purpose rewrites the manifest with

    PYTHONPATH=src python tests/golden/bless.py

and names each changed file in its change notes.
"""
from __future__ import annotations

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from vnag.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "outputs.sha256"
FIGURES = ("fig1", "fig2", "fig3", "unbounded", "poly")
CONFIGS = (("second-variation", "second_variation.json"), ("classify", "classify.json"),
           ("simulate", "simulate.json"))


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
    return {p.relative_to(out_root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_root.rglob("*")) if p.is_file()}


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
    with tempfile.TemporaryDirectory() as tmp:
        found = produce(Path(tmp))
    write_manifest(found)
    print(f"wrote {len(found)} digests to {MANIFEST}", file=sys.stderr)
