"""Every output file of the golden runs is byte-identical to the manifest,
and every run of the config corpus keeps its exit code and output bytes."""
import importlib.util
from pathlib import Path


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", Path(__file__).parent / "golden" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bless, corpus = _load("bless"), _load("corpus")


def _compare(manifest, got):
    meta, expected = bless.read_manifest(manifest)
    wrong = sorted(n for n in set(expected) | set(got) if expected.get(n) != got.get(n))
    assert not wrong, (
        f"exit codes or output bytes differ from {manifest.name} in: {', '.join(wrong)}; "
        f"manifest made with {meta}, this run with {bless.versions()}")


def test_outputs_match_golden_manifest(tmp_path):
    _compare(bless.MANIFEST, bless.produce(tmp_path))


def test_corpus_matches_manifest(tmp_path):
    _compare(bless.CORPUS_MANIFEST, bless.produce_corpus(tmp_path))


def test_corpus_is_what_its_generator_writes():
    assert corpus.generate() == corpus.CORPUS.read_text()
