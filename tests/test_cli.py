import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnag import experiments
from vnag.cli import _CONFIG, _config, _expand_perturbation, load_config, main
from vnag.errors import NumericalError
from vnag.svgchart import line_chart

ROOT = Path(__file__).resolve().parents[1]


def _write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def _report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_simulate_basic(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "experiment": "crit",
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "constant", "alpha": 2.0},
        "interval": {"t1": 0.0, "t2": 5.0},
        "integration": {"n_steps": 5000},
        "initial": {"x0": [1.0], "v0": [-1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["closed_form_max_error"] <= 1e-8
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 5002  # header + N+1 rows
    assert (out / "figure.svg").exists()


def test_simulate_equilibrium_constant_csv(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [2.0], "xstar": [1.5]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 0.5, "t2": 5.0},
        "integration": {"n_steps": 100},
        "initial": {"x0": [1.5]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    xs = {row.split(",")[1] for row in rows}
    assert xs == {"1.5"}


@pytest.mark.parametrize("potential, initial", [
    # x stays within an ulp or two of 1: the tick step is below x's resolution
    ({"kind": "quadratic", "eigenvalues": [1e-300]}, {"x0": [1.0], "v0": [4.4e-16]}),
    # a flow resting at 1e17, where + 1.0 cannot widen the range
    ({"kind": "quadratic", "eigenvalues": [1.0], "xstar": [1e17]}, {"x0": [1e17]}),
], ids=["ulp_range", "constant_1e17"])
def test_simulate_degenerate_chart_range(tmp_path, potential, initial):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": potential, "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 1.0, "t2": 9.0}, "integration": {"n_steps": 8},
        "initial": initial})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "figure.svg").read_text().startswith("<svg")


def test_simulate_el_residual(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 1.0, "t2": 10.0},
        "integration": {"n_steps": 4000},
        "initial": {"x0": [1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert _report(out)["results"]["el_residual"] <= 1e-4


def test_simulate_el_residual_of_a_huge_state(tmp_path):
    # the residual's squares overflow although every entry is finite; the
    # suite turns a RuntimeWarning into an error
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [0.5, 4.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 1.0, "t2": 9.0},
        "integration": {"n_steps": 8},
        "initial": {"x0": [1e300, 1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    residual = _report(out)["results"]["el_residual"]
    assert math.isfinite(residual) and residual > 1e298


def test_unknown_field_rejected(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {"bogus": 1})
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.glob("*")) if out.exists() else True


def test_invalid_values_rejected(tmp_path):
    base = {"potential": {"kind": "quadratic", "eigenvalues": [1.0]},
            "damping": {"kind": "vanishing"},
            "interval": {"t1": 1, "t2": 2},
            "initial": {"x0": [1.0]}}
    bad_cfgs = [
        {**base, "potential": {"kind": "quadratic", "eigenvalues": [-1.0]}},
        {**base, "potential": {"kind": "quadratic", "eigenvalues": "x"}},
        {**base, "potential": {"kind": "polynomial", "a": 1.0, "p": 3}},
        {**base, "damping": {"kind": "nonsense"}},
        {**base, "damping": {"kind": "constant", "alpha": "z"}},
        {**base, "damping": {"kind": "constant", "alpha": True}},
        {**base, "potential": {"kind": "quadratic", "eigenvalues": [1.0, True]}},
        {**base, "initial": {"x0": [False]}},
        {**base, "interval": {"t1": 2, "t2": 1}},
        {**base, "interval": "nope"},
        {**base, "initial": {"x0": "bad"}},
        {**base, "integration": {"n_steps": 2.5}},
        {**base, "integration": {"n_steps": 2}},
        # rejected by the cap before anything is allocated
        {**base, "integration": {"n_steps": 10_000_000_000_000}},
        {**base, "integration": {"n_steps": 1_000_001}},
        # the table (n_steps + 1) x (2 dim + 1) is capped at the 1-d table at the step cap
        {**base, "potential": {"kind": "quadratic", "eigenvalues": [1.0, 2.0, 3.0]},
         "initial": {"x0": [1.0, 1.0, 1.0]}, "integration": {"n_steps": 1_000_000}},
        {**base, "potential": {"kind": "quadratic", "eigenvalues": [1.0] * 50},
         "initial": {"x0": [1.0] * 50}, "integration": {"n_steps": 100_000}},
        *({**base, "seed": seed} for seed in ("abc", None, [1], 1.5, True)),
        # a kind must be a known string, read before any other field
        {**base, "potential": {"kind": ["quadratic"], "eigenvalues": [1.0]}},
        {**base, "potential": {"kind": {"quadratic": 1}, "eigenvalues": [1.0]}},
        {**base, "potential": {"eigenvalues": [1.0]}},
        {**base, "damping": {"kind": ["vanishing"]}},
        {**base, "damping": {"kind": {"vanishing": 1}}},
        {**base, "damping": {"c": 3.0}},
        # every config object is a JSON object without unknown fields
        {**base, "initial": 5},
        {**base, "initial": {"x0": [1.0], "bogus": 1}},
        {**base, "integration": 5},
        {**base, "integration": []},
        {**base, "integration": {"n_steps": 8, "bogus": 1}},
    ]
    for i, cfg in enumerate(bad_cfgs):
        path = _write_cfg(tmp_path / f"bad{i}.json", cfg)
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / f"o{i}")]) == 2, cfg
        assert not (tmp_path / f"o{i}").exists()


def test_invalid_perturbations_rejected(tmp_path):
    base = {"potential": {"kind": "quadratic", "eigenvalues": [1.0]},
            "damping": {"kind": "constant", "alpha": 1.0},
            "interval": {"t1": 0.0, "t2": 7.0}}
    for i, probes in enumerate(["zzz", [{"kind": "sinusoid", "k": 1.5}],
                                [{"kind": "triangle", "c": 1.0, "eps": 3.0}],
                                [{"kind": "sinusoid", "k": 1, "bogus": 1}],
                                [{"kind": "sinusoid", "k": 1, "component": 5}],
                                [{"kind": "sinusoid", "k": 1, "component": -1}],
                                [{"kind": "sinusoid", "k": []}],
                                [{"kind": "fourier", "n_modes": 10_000_000_000_000,
                                  "decay": 1.5}],
                                [{"kind": "fourier", "n_modes": 10_001, "decay": 1.5}],
                                # the kind is checked before a list-valued field sweeps
                                [{"kind": ["sinusoid"], "k": 1}],
                                [{"kind": {"sinusoid": 1}, "k": 1}],
                                [{"k": 1}]]):
        path = _write_cfg(tmp_path / f"p{i}.json", {**base, "perturbations": probes})
        assert main(["second-variation", "--config", path, "--out",
                     str(tmp_path / f"po{i}")]) == 2, probes
        assert not (tmp_path / f"po{i}").exists()
    for i, n_steps in enumerate([-1, 0]):
        path = _write_cfg(tmp_path / f"n{i}.json", {
            **base, "perturbations": [{"kind": "sinusoid", "k": 1}],
            "integration": {"n_steps": n_steps}})
        assert main(["second-variation", "--config", path, "--out",
                     str(tmp_path / f"no{i}")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1e300]},
        "damping": {"kind": "constant", "alpha": 0.0},
        "interval": {"t1": 0.0, "t2": 10.0},
        "integration": {"n_steps": 10},
        "initial": {"x0": [1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    # partial outputs removed on failure
    assert not list(out.glob("*"))


def test_non_finite_report_exit_code(tmp_path):
    # exp(alpha t) overflows on this window and d2J is NaN
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "constant", "alpha": 10.0},
        "interval": {"t1": 0.5, "t2": 100.0},
        "perturbations": [{"kind": "sinusoid", "k": 1}],
    })
    out = tmp_path / "out"
    assert main(["second-variation", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


def test_non_finite_sweep_exit_code(tmp_path):
    # the same NaN d2J in a two-probe sweep, which also draws a chart
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "constant", "alpha": 10.0},
        "interval": {"t1": 0.5, "t2": 100.0},
        "perturbations": [{"kind": "sinusoid", "k": [1, 2]}],
    })
    out = tmp_path / "out"
    assert main(["second-variation", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


_CLASSIFY = {"potential": {"kind": "quadratic", "eigenvalues": [1.0]},
             "damping": {"kind": "vanishing", "c": 3.0},
             "interval": {"t1": 1.0, "t2": 5.0}}


@pytest.mark.parametrize("field, value", [
    ("potential", {"kind": "quadratic", "eigenvalues": ["nan"]}),
    ("damping", {"kind": "constant", "alpha": "nan"}),
    ("interval", {"t1": 1.0, "t2": "inf"}),
], ids=["nan_eigenvalue", "nan_alpha", "infinite_t2"])
def test_non_finite_input_rejected(tmp_path, field, value):
    cfg = _write_cfg(tmp_path / "cfg.json", {**_CLASSIFY, field: value})
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.glob("*"))


@pytest.mark.parametrize("sweep", [
    {"alpha": [-1.0]},
    {"lengths": [-1.0]},
    {"t1": [-1.0]},
    {"alpha": 1.0},
    {"lengths": []},
    5,
    [],
    {"lengths": [1.0], "bogus": 1},
], ids=["negative_alpha", "negative_length", "negative_start", "scalar_alpha",
        "empty_lengths", "number", "list", "unknown_field"])
def test_bad_sweep_rejected(tmp_path, sweep):
    cfg = _write_cfg(tmp_path / "cfg.json", {**_CLASSIFY, "sweep": sweep})
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_readme_config_example_parses(tmp_path):
    # README's "Config format" example shows every top-level field and, in
    # its `or` comments, every potential and damping kind; all of it must
    # parse with the field table in cli.py
    readme = (ROOT / "README.md").read_text().split("### Config format", 1)[1]
    lines = readme.split("```jsonc\n", 1)[1].split("```", 1)[0].splitlines()
    path = tmp_path / "readme.json"
    path.write_text("\n".join(line.split("//", 1)[0] for line in lines))
    cfg = load_config(str(path))
    assert set(cfg) == set(_CONFIG)
    parsed = dict(zip(cfg, _config(cfg, *cfg)))
    t1, t2 = parsed["interval"]
    probes = [h for entry in parsed["perturbations"]
              for h in _expand_perturbation(entry, t1, t2, parsed["seed"])]
    assert [h.kind for h in probes] == ["triangle"] * 3 + ["sinusoid", "fourier"]
    field = None
    for line in lines:
        if line.lstrip().startswith('"'):
            field = line.split('"')[1]
        elif " or {" in line:
            alternative = json.loads(line.split(" or ", 1)[1])
            assert type(_config({field: alternative}, field)[0]) is not type(parsed[field])


def test_classify_tiny_start_time(tmp_path):
    # as t1 -> 0 the first conjugate time tends to the first zero of J1
    cfg = _write_cfg(tmp_path / "cfg.json",
                     {**_CLASSIFY, "interval": {"t1": 1e-300, "t2": 5.0}})
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    cls = _report(out)["results"]["records"][0]["classification"]
    assert cls["verdict"] == "saddle"
    assert abs(cls["first_conjugate_times"][0] - 3.8317059702075125) <= 1e-9


def test_second_variation_sweep(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 0.4, "t2": 8.0},
        "perturbations": [
            {"kind": "triangle", "c": 3.0,
             "eps": [0.4, 0.8, 1.2, 1.6, 2.0, 2.4]},
        ],
    })
    out = tmp_path / "out"
    assert main(["second-variation", "--config", cfg, "--out", str(out)]) == 0
    rep = _report(out)
    table = rep["results"]["table"]
    vals = [e["d2j_quadrature"] for e in table]
    # one sign change, bracketing epsilon_star(9, 1) ~ 1.9453
    flips = [i for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0]
    assert len(flips) == 1
    eps = [e["perturbation"]["eps"] for e in table]
    star = [e for e in rep["results"]["sign_changes"] if "epsilon_star" in e]
    assert eps[flips[0]] < star[0]["epsilon_star"] < eps[flips[0] + 1]
    # quadrature tracks the closed form
    for e in table:
        assert e["relative_difference"] <= 1e-4


def test_second_variation_zero_sigma(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "constant", "alpha": 1.0},
        "interval": {"t1": 0.0, "t2": 2 * math.pi},
        "perturbations": [{"kind": "sinusoid", "k": 1, "sigma": 0.0}],
    })
    out = tmp_path / "out"
    assert main(["second-variation", "--config", cfg, "--out", str(out)]) == 0
    assert _report(out)["results"]["table"][0]["d2j_quadrature"] == 0.0


def test_classify_threshold_sweep(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [10.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 1.0, "t2": 3.0},
        "sweep": {"lengths": [1.9, 2.1]},
    })
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    recs = _report(out)["results"]["records"]
    # above the sqrt(40/beta) = 2 threshold the verdict must be saddle
    assert recs[1]["classification"]["verdict"] == "saddle"
    assert recs[1]["indefiniteness_witness"]["small"]["d2j_quadrature"] > 0
    assert recs[1]["indefiniteness_witness"]["large"]["d2j_quadrature"] < 0
    # below threshold: verdict is whatever the conjugate time says (here the
    # Bessel conjugate time from t1=1 for beta=10 is shorter than 1.9)
    sub = recs[0]["classification"]
    tau = sub["first_conjugate_times"][0]
    expect = "saddle" if tau is not None and tau < recs[0]["t2"] - 1e-9 else "minimizer"
    assert sub["verdict"] == expect


def test_classify_constant_alpha_sweep(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "constant", "alpha": 1.0},
        "interval": {"t1": 0.0, "t2": 3.7},
        "sweep": {"alpha": [1.0, 2.0]},
    })
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    recs = _report(out)["results"]["records"]
    # 3.7 > 2 pi / sqrt(3) ~ 3.63: saddle for alpha=1, minimizer at critical
    assert recs[0]["classification"]["verdict"] == "saddle"
    assert recs[1]["classification"]["verdict"] == "minimizer"


def test_classify_tiny_curvature_constant_damping(tmp_path):
    # 2 sqrt(lam) = 1e-12: undamped, the first conjugate time pi / sqrt(lam)
    # ~ 6.28e12 lies inside the window, so the path is a saddle; an absolute
    # critical-damping band of 1e-12 would call it a minimizer
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [2.5e-25]},
        "damping": {"kind": "constant", "alpha": 0.0},
        "interval": {"t1": 0.0, "t2": 1e13},
    })
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    cls = _report(out)["results"]["records"][0]["classification"]
    assert cls["verdict"] == "saddle"
    assert cls["first_conjugate_times"][0] == pytest.approx(math.pi / math.sqrt(2.5e-25), rel=1e-15)


def test_simulate_tiny_curvature_closed_form(tmp_path):
    # x'' + 1e-20 x = 0 over [0, 1e10] is cos(1e-10 t), not critical damping
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1e-20]},
        "damping": {"kind": "constant", "alpha": 0.0},
        "interval": {"t1": 0.0, "t2": 1e10},
        "integration": {"n_steps": 4000},
        "initial": {"x0": [1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert _report(out)["results"]["closed_form_max_error"] <= 1e-12


def test_reproduce_fig1_opposite_signs(tmp_path):
    assert main(["reproduce", "--figure", "fig1", "--out",
                 str(tmp_path / "a")]) == 0
    rep = _report(tmp_path / "a")
    vals = {e["direction"]: e for e in rep["results"]["table"]}
    assert vals["small_eps"]["d2j_quadrature"] > 0
    assert vals["large_eps"]["d2j_quadrature"] < 0
    assert (vals["small_eps"]["delta_action"] > 0
            > vals["large_eps"]["delta_action"])


def test_reproduce_unknown_figure(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--figure", "fig9", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5),  # malformed config
    ("interval", {"t1": 5.0, "t2": 1.0}),  # range rejected by the library
], ids=["fractional_seed", "reversed_window"])
def test_rejected_config_creates_no_directory(tmp_path, field, value):
    cfg = _write_cfg(tmp_path / "cfg.json", {**_CLASSIFY, field: value})
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    # beta c^2 overflows in the saddle witness
    ("classify", {**_CLASSIFY, "interval": {"t1": 1.0, "t2": 1e300}}),
    # e^t1 and e^t2 overflow in the sinusoid closed form
    ("second-variation", {"potential": {"kind": "quadratic", "eigenvalues": [1.0]},
                          "damping": {"kind": "constant", "alpha": 1.0},
                          "interval": {"t1": 710.0, "t2": 716.0},
                          "perturbations": [{"kind": "sinusoid", "k": 1}]}),
], ids=["witness", "sinusoid_closed_form"])
def test_overflow_exit_code(tmp_path, command, cfg):
    out = tmp_path / "out"
    assert main([command, "--config", _write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 3
    assert not list(out.glob("*"))


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below_file"])
def test_unwritable_out_exits_2(tmp_path, capsys, out):
    # mkdir raises FileExistsError on a file and NotADirectoryError below one
    (tmp_path / "taken").write_text("x")
    cfg = _write_cfg(tmp_path / "cfg.json", _CLASSIFY)
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert str(tmp_path / out) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "taken"]
    assert (tmp_path / "taken").read_text() == "x"


def _broken_chart():
    return {"results": {}, "notes": []}, [
        ("table.csv", ["x"], [np.arange(3.0)]),
        ("chart.svg", line_chart([("a", [0.0, 1.0, 2.0], [0.0, 1.0])]))]


def _broken_stream():
    def chunks():
        yield b"<svg>"
        raise NumericalError("stream failed part way")
    return {"results": {}, "notes": []}, [("chart.svg", chunks())]


@pytest.mark.parametrize("builder, code", [(_broken_chart, 2), (_broken_stream, 3)],
                         ids=["chart_value_error", "numerical_error"])
def test_stream_failing_part_way_leaves_no_file(tmp_path, monkeypatch, builder, code):
    # a chart streams as its file is written, so its errors surface with the
    # file already open; the run keeps its exit code and removes every file
    monkeypatch.setitem(experiments.FIGURES, "fig1", builder)
    out = tmp_path / "out"
    assert main(["reproduce", "--figure", "fig1", "--out", str(out)]) == code
    assert not [p for p in out.rglob("*") if p.is_file()]


def _nan_result():
    return {"results": {"value": math.nan}, "notes": []}, [("table.csv", ["x"], [np.arange(3.0)])]


def _raises_numerical():
    raise NumericalError("failed before any output")


@pytest.mark.parametrize("builder", [_nan_result, _raises_numerical],
                         ids=["nan_result", "numerical_error"])
def test_failed_run_creates_no_out(tmp_path, monkeypatch, builder):
    # report.json is encoded before any file is written, so a run that fails
    # in its experiment or its report does not create --out
    monkeypatch.setitem(experiments.FIGURES, "fig1", builder)
    out = tmp_path / "out"
    assert main(["reproduce", "--figure", "fig1", "--out", str(out)]) == 3
    assert not out.exists()


def test_import_leaves_numtext_unloaded():
    # every process compiles what `import vnag.cli` loads; numtext loads
    # with the first table or chart
    code = "import sys, vnag.cli; print('vnag.numtext' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_determinism_with_fourier(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", {
        "potential": {"kind": "quadratic", "eigenvalues": [1.0]},
        "damping": {"kind": "vanishing", "c": 3.0},
        "interval": {"t1": 0.5, "t2": 6.0},
        "perturbations": [{"kind": "fourier", "n_modes": 6, "decay": 1.5}],
        "seed": 11,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["second-variation", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    # a different seed changes the probe
    out_c = tmp_path / "c"
    assert main(["second-variation", "--config", cfg, "--out", str(out_c),
                 "--seed", "99"]) == 0
    rep_a = json.loads(outs[0])
    rep_c = _report(out_c)
    assert (rep_a["results"]["table"][0]["d2j_quadrature"]
            != rep_c["results"]["table"][0]["d2j_quadrature"])


# every fuzzed config field draws from its valid values and from these
_ODD = (0, -1.0, 1e300, -1e300, "nan", "inf", "x", [], [1], None, True)


def _or_odd(valid):
    # one field in eight is odd, so most configs get past their first field
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(_ODD) if i == 0 else valid)


def _pick(*valid):
    return _or_odd(st.sampled_from(valid))


def _obj(**fields):
    return _or_odd(st.fixed_dictionaries(
        {k: v if isinstance(v, st.SearchStrategy) else st.just(v) for k, v in fields.items()}))


_COMMON = {
    "potential": st.one_of(_obj(kind="quadratic", eigenvalues=_pick([1.0], [0.5, 4.0])),
                           _obj(kind="polynomial", a=_pick(1.0), p=_pick(4))),
    "damping": st.one_of(_obj(kind="vanishing", c=_pick(3.0, 2.5)),
                         _obj(kind="constant", alpha=_pick(1.0, 3.0))),
    "interval": _obj(t1=_pick(1.0, 0.5), t2=_pick(6.0, 9.0)),
    "seed": _pick(7),
}
_PROBE = st.one_of(
    _obj(kind="triangle", c=_pick(3.0), eps=_pick(1.0, [0.5, 2.0]), sigma=_pick(1.0),
         component=_pick(0, 1)),
    _obj(kind="sinusoid", k=_pick(1, [1, 2])),
    _obj(kind="fourier", n_modes=_pick(3), decay=_pick(1.5), seed=_pick(5)))
_FUZZ = {
    "simulate": st.fixed_dictionaries({
        **_COMMON, "integration": _obj(n_steps=_pick(8, 64)),
        "initial": _obj(x0=_pick([1.0], [1.0, -1.0]), v0=_pick([0.0]))}),
    "second-variation": st.fixed_dictionaries({
        **_COMMON, "integration": _obj(n_steps=_pick(64, 256)),
        "perturbations": _or_odd(st.lists(_PROBE, min_size=1, max_size=2))}),
    "classify": st.fixed_dictionaries({
        **_COMMON, "sweep": _or_odd(st.fixed_dictionaries({}, optional={
            "lengths": _pick([1.0, 5.0]), "t1": _pick([0.5, 2.0]),
            "alpha": _pick([0.5, 2.5])}))}),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), command=st.sampled_from(sorted(_FUZZ)))
def test_cli_fuzz(data, command):
    # no input may leak a traceback: exit 0, 2 (bad config) or 3 (numerical
    # failure), and a failed run leaves no files behind
    cfg = data.draw(_FUZZ[command])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([command, "--config", _write_cfg(Path(tmp) / "cfg.json", cfg),
                     "--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command, config, message", [
    ("classify", None, "cannot read config"),  # no such file
    ("classify", "{not json", "cannot read config"),
    ("second-variation", {**_CLASSIFY, "perturbations": [
        {"kind": "triangle", "c": [2.0, 3.0], "eps": [0.5, 1.0]}]}, "at most one"),
    ("second-variation", {**_CLASSIFY, "potential": {"kind": "polynomial", "a": 1.0, "p": 4},
                          "perturbations": [{"kind": "sinusoid", "k": 1}]},
     "second-variation needs a quadratic potential"),
], ids=["missing_file", "bad_json", "two_swept_fields", "polynomial"])
def test_boundary_rejections_exit_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
