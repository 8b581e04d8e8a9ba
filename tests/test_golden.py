"""Every output file of the golden runs is byte-identical to the manifest."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_bless", Path(__file__).parent / "golden" / "bless.py")
bless = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bless)


def test_outputs_match_golden_manifest(tmp_path):
    meta, expected = bless.read_manifest()
    got = bless.produce(tmp_path)
    wrong = sorted(n for n in set(expected) | set(got) if expected.get(n) != got.get(n))
    assert not wrong, (
        f"output bytes differ from tests/golden/outputs.sha256 in: {', '.join(wrong)}; "
        f"manifest made with {meta}, this run with {bless.versions()}")
