"""Each demo script runs to completion against the library in `src/`."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a subprocess does not inherit pytest's filterwarnings, so pass them as flags
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    flags = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-W", "error::FutureWarning"]
    proc = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
