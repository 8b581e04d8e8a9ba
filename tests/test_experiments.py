"""The experiments layer on its own: each figure computes its report body and
artifacts without touching the file system, and each table it returns is one
that `numtext.csv` prints."""
import numpy as np
import pytest

from vnag import experiments


@pytest.mark.parametrize("name", sorted(experiments.FIGURES))
def test_figure_returns_artifacts_and_writes_nothing(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    body, artifacts = experiments.FIGURES[name]()
    assert set(body) == {"results", "inputs", "notes"}
    names = [a[0] for a in artifacts]
    assert len(set(names)) == len(names)
    assert "report.json" not in names
    for artifact in artifacts:
        if len(artifact) == 3:  # a table, by numtext.csv's contract
            _, header, columns = artifact
            assert len(columns) == len(header)
            assert all(isinstance(c, np.ndarray) and c.ndim == 1
                       and (c.dtype == np.float64 or c.dtype.kind == "S") for c in columns)
            assert len({len(c) for c in columns}) == 1
        else:  # a chart: lazy bytes chunks
            _, chunks = artifact
            assert all(isinstance(chunk, bytes) for chunk in chunks)
    assert not list(tmp_path.rglob("*"))
