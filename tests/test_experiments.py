"""The experiments layer on its own: each figure computes its report body and
artifacts without touching the file system, and each table it returns is one
that `numtext.csv` prints."""
import numpy as np
import pytest

from vnag import QuadraticDiagonal, Vanishing, experiments, scale, triangle


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


def test_sign_change_between_tiny_probe_values():
    # d2J of about +-1e-298 at sigma 1e-150: the product of two neighbours
    # underflows to -0.0, their signs still differ
    probes = [scale(triangle(4.0, eps, 0.4, 8.0), 1e-150) for eps in (1.0, 3.2)]
    body, _ = experiments.second_variation_probes(QuadraticDiagonal([1.0]), Vanishing(3.0),
                                                  0.4, 8.0, 2048, probes)
    values = [e["d2j_quadrature"] for e in body["results"]["table"]]
    assert values[0] > 0.0 > values[1] and max(map(abs, values)) < 1e-297
    between = [s for s in body["results"]["sign_changes"] if "between" in s]
    assert between == [{"between": [probes[0].descriptor(), probes[1].descriptor()]}]
