"""Problem registry, experiment harness, report files, and the CLI."""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sbopt as sb
import sbopt.bench as bench
from sbopt.bench.cli import main
from sbopt.bench.plotting import (
    emit_plot_data,
    plot_best_curve,
    plot_curve_bands,
    plot_nfd_scatter,
    write_nfd_scatter,
)
from sbopt.bench.problems import (
    complex_toll_scenario,
    recompute_complex_penalty_weight,
)


@pytest.fixture(scope="module")
def rk_simple_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("rk_simple")
    cfg = bench.ExperimentConfig(problem="simple", solver="rk", budget=50,
                                 seeds=(0,), output_dir=str(out))
    report = bench.run_experiment(cfg)
    return cfg, report, out


# ------------------------------------------------------------------ registry


def test_registry_lists_all_problems():
    assert bench.available_problems() == [
        "complex", "composition_density", "composition_flow",
        "plant", "quadratic", "simple", "strip",
    ]


def test_unknown_problem_names_the_alternatives():
    with pytest.raises(KeyError, match="quadratic"):
        bench.get_problem("nope")


def test_problem_shapes():
    assert bench.get_problem("quadratic").bounds.m_dim == 2
    assert bench.get_problem("strip").sense == "minimize"
    complex_p = bench.get_problem("complex")
    assert complex_p.bounds.m_dim == 16
    assert complex_p.smoothing.m_intervals == 8
    assert complex_p.penalty is not None
    assert complex_p.sense == "maximize"
    assert bench.get_problem("composition_flow").bounds.m_dim == 8


def test_penalty_weight_matches_frozen_probe():
    assert recompute_complex_penalty_weight() == pytest.approx(
        bench.COMPLEX_PENALTY_WEIGHT, rel=1e-9)


# ------------------------------------------------------------- configuration


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(bench.ConfigError, match="unknown config keys"):
        bench.ExperimentConfig.from_dict(
            {"problem": "simple", "solver": "rk", "budget": 5, "bogus": 1})
    with pytest.raises(bench.ConfigError, match="missing config keys"):
        bench.ExperimentConfig.from_dict({"problem": "simple"})


# params of a known key whose value is not of the key's type
BAD_VALUES = [
    ("direct", {"max_iterations": 2.7}), ("direct", {"max_iterations": True}),
    ("direct", {"max_iterations": 0}), ("direct", {"max_iterations": -3}),
    ("direct", {"epsilon": "1e-4"}), ("pi", {"n_max": "3"}), ("pi", {"n_max": 3.9}),
    ("rk", {"n_init": 5.9}), ("spsa", {"a": True}),
]

# params of the right type that the solver's own checks reject
RANGE_VALUES = [
    ("direct", {"epsilon": 10**400}), ("direct", {"epsilon": 0.01}),
    ("rk", {"n_init": 1}), ("spsa", {"tau_0": [0.5]}), ("spsa", {"alpha": 0.05}),
]
RANGE_CASES = [pytest.param(solver, params, id=f"{solver}-{key}-out-of-range-{i}")
               for i, (solver, params) in enumerate(RANGE_VALUES) for key in params]


def test_config_rejects_bad_fields():
    good = {"problem": "simple", "solver": "rk", "budget": 20}
    for patch in ({"budget": 0}, {"budget": "many"}, {"solver": "newton"},
                  {"problem": "nope"}, {"seeds": []}, {"seeds": [0.5]},
                  {"budget": True}, {"seeds": 3}, {"params": [1, 2]},
                  {"seeds": [0, 0]}, {"output_dir": 5},
                  {"params": {"use_reinterp": "false"}}, {"params": {"use_reinterp": 0}},
                  {"solver": "spsa", "params": {"gradient_scale": 2.0}},
                  *({"solver": solver, "params": params}
                    for solver, params in BAD_VALUES + RANGE_VALUES)):
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict(good | patch).validate()


def test_config_rejects_foreign_solver_params():
    cfg = bench.ExperimentConfig(problem="simple", solver="rk", budget=20,
                                 params={"a": 1.0})
    with pytest.raises(bench.ConfigError, match="not recognized"):
        cfg.validate()


def test_readme_params_table_matches_solvers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| solver | accepted `params` | their types | problems |"
    rows = readme.split(head, 1)[1].split("\n\n", 1)[0].strip().splitlines()[1:]
    table = {}
    for row in rows:
        solver, params, types = [cell.strip() for cell in row.strip("|").split("|")][:3]
        table[solver.strip("`")] = dict(zip([p.strip().strip("`") for p in params.split(",")],
                                            [t.strip() for t in types.split(",")], strict=True))
    assert table == {name: spec.params for name, spec in bench.harness.SOLVERS.items()}


def test_pi_needs_density_feedback():
    cfg = bench.ExperimentConfig(problem="complex", solver="pi", budget=20)
    with pytest.raises(bench.ConfigError, match="per-interval density"):
        cfg.validate()


def test_pi_runner_refuses_as_the_config_does():
    def objective(tau, seed):
        calls.append(1)
        return 0.0

    calls = []
    cfg = bench.ExperimentConfig(problem="complex", solver="pi", budget=20)
    with pytest.raises(bench.ConfigError) as refused:
        cfg.validate()
    with pytest.raises(bench.ConfigError) as raised:
        bench.harness.SOLVERS["pi"].run(sb.Evaluator(objective, budget=0),
                                        bench.get_problem("complex"), 0, {})
    assert str(raised.value) == str(refused.value)
    assert calls == []


def test_spsa_refuses_a_problem_without_a_start():
    def objective(tau, seed):
        calls.append(1)
        return float(np.sum(tau ** 2))

    calls = []
    problem = bench.Problem(name="startless", objective=objective, bounds=sb.Bounds.unit(2))
    with pytest.raises(bench.ConfigError, match="no default SPSA start"):
        bench.run_single(problem, "spsa", 5, 0)
    assert calls == []


def test_bad_param_value_becomes_config_error():
    with pytest.raises(bench.ConfigError, match="n_init"):
        bench.run_single(bench.get_problem("quadratic"), "rk", 30, 0,
                         {"n_init": 1})


def test_use_reinterp_must_be_a_boolean(tmp_path):
    quad = bench.get_problem("quadratic")
    curve = {flag: bench.run_single(quad, "rk", 14, 0, {"use_reinterp": flag}).best_curve
             for flag in (False, True)}
    assert not np.array_equal(curve[False], curve[True])
    with pytest.raises(bench.ConfigError, match="use_reinterp"):
        bench.run_single(quad, "rk", 14, 0, {"use_reinterp": "false"})
    good = {"problem": "quadratic", "solver": "rk", "budget": 9, "seeds": [0],
            "output_dir": str(tmp_path)}
    assert bench.ExperimentConfig.from_dict(good | {"params": {"use_reinterp": False}})
    for patch in ({"params": {"use_reinterp": "false"}}, {"output_dir": 5}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(good | patch))
        assert main(["run", "--config", str(path)]) == 2


def test_malformed_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig.from_json(path)


def _unreadable(tmp_path):
    """A file that is not UTF-8, and a directory, each where JSON is expected."""
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    a_dir = tmp_path / "a_dir.json"
    a_dir.mkdir()
    return {"not_utf8": not_utf8, "directory": a_dir}


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_unreadable_config_or_report_is_a_config_error(tmp_path, kind):
    path = _unreadable(tmp_path)[kind]
    with pytest.raises(bench.ConfigError, match=re.escape(f"config file {path} ")):
        bench.ExperimentConfig.from_json(path)
    with pytest.raises(bench.ConfigError, match=re.escape(f"report {path} ")):
        bench.load_report(path)
    with pytest.raises(bench.ConfigError, match=re.escape(f"report {path} ")):
        bench.compare(_tiny_report("rk"), path)


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_cli_refuses_an_unreadable_config_or_report(tmp_path, capsys, kind):
    path = _unreadable(tmp_path)[kind]
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert main(["compare", str(path), "--out", str(out / "cmp.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("sbo: config error:") == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_unreadable_trace_is_an_error_naming_it(tmp_path, capsys, kind):
    path = _unreadable(tmp_path)[kind]
    with pytest.raises(sb.SboError, match=re.escape(f"trace file {path} cannot be read: ")):
        emit_plot_data(path, tmp_path / "plots")
    # exit 3, as for a missing trace, with the file named and nothing written
    assert main(["plot", str(path), "--out", str(tmp_path / "plots")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"sbo: error: trace file {path} cannot be read: "), err
    assert not (tmp_path / "plots").exists()


def test_missing_trace_is_an_error_naming_it(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(sb.SboError, match=f"^{re.escape(f'trace file not found: {path}')}$"):
        emit_plot_data(path, tmp_path / "plots")
    assert not (tmp_path / "plots").exists()


def test_missing_or_malformed_config_or_report_keeps_its_message(tmp_path, capsys):
    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text("{not json")
    for read, path, want in [
            (bench.ExperimentConfig.from_json, missing, f"config file not found: {missing}"),
            (bench.load_report, missing, f"report file not found: {missing}"),
            (bench.ExperimentConfig.from_json, broken,
             f"config file {broken} is not valid JSON: "),
            (bench.load_report, broken, f"report {broken} is not valid JSON: ")]:
        with pytest.raises(bench.ConfigError) as exc:
            read(path)
        assert str(exc.value).startswith(want)
    assert main(["compare", str(missing)]) == 2
    assert f"report file not found: {missing}\n" in capsys.readouterr().err


# ------------------------------------------------------------ run_experiment


def test_experiment_writes_full_file_set(rk_simple_run):
    _, report, out = rk_simple_run
    assert (out / "trace_simple_rk_seed0.csv").exists()
    assert (out / "report_simple_rk.json").exists()
    assert (out / "curve_simple_rk.csv").exists()
    assert (out / "nfd_simple_rk.csv").exists()
    trace = bench.read_trace_csv(out / "trace_simple_rk_seed0.csv")
    assert len(trace["eval_index"]) == 50
    assert report["summary"]["n_seeds"] == 1
    assert report["summary"]["n_feasible"] == 1
    per_seed = report["per_seed"][0]
    assert per_seed["n_evals"] == 50
    assert per_seed["best_value"] == trace["best_value"][-1]
    assert len(report["curves"]["0"]) == 50


def test_experiment_report_loads_back(rk_simple_run):
    _, report, out = rk_simple_run
    loaded = bench.load_report(out / "report_simple_rk.json")
    assert loaded == report


def test_experiment_rerun_is_byte_identical(rk_simple_run, tmp_path):
    cfg, _, out = rk_simple_run
    again = bench.ExperimentConfig(problem="simple", solver="rk", budget=50,
                                   seeds=(0,), output_dir=str(tmp_path))
    bench.run_experiment(again)
    for name in ("trace_simple_rk_seed0.csv", "report_simple_rk.json",
                 "curve_simple_rk.csv", "nfd_simple_rk.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_load_report_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"problem": "simple"}))
    with pytest.raises(bench.ConfigError, match="missing keys"):
        bench.load_report(path)


def _tiny_report(solver):
    return {"problem": "quadratic", "solver": solver, "sense": "minimize",
            "budget": 3, "seeds": [0, 1],
            "per_seed": [{"seed": s, "n_evals": 3, "best_value": 0.5 - 0.1 * s,
                          "feasible": True} for s in (0, 1)],
            "curves": {"0": [0.9, 0.5, 0.5], "1": [0.8, 0.4]}}


malformed = pytest.mark.parametrize("patch", [
    lambda r: r.update(curves={"0": []}),
    lambda r: r.update(curves=[1, 2]),
    lambda r: r.update(curves={"0": [0.5, "low"]}),
    lambda r: r["per_seed"][1].pop("best_value"),
    lambda r: r["per_seed"][0].update(feasible="yes"),
    lambda r: r.update(per_seed=[]),
    lambda r: r.update(budget=True),
    # JSON has no NaN or Infinity, but Python's json reads both
    lambda r: r["per_seed"][0].update(best_value=float("nan")),
    lambda r: r.update(curves={"0": [0.9, float("-inf"), 0.5]}),
], ids=["empty_curve", "curves_list", "curve_string", "no_best_value",
        "feasible_string", "no_seeds", "budget_bool", "best_value_nan", "curve_inf"])


@malformed
def test_cli_compare_rejects_malformed_report(tmp_path, capsys, patch):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_tiny_report("rk")))
    report = _tiny_report("direct")
    patch(report)
    bad.write_text(json.dumps(report))
    assert main(["compare", str(good)]) == 0
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@malformed
def test_compare_rejects_malformed_report_dict(patch):
    report = _tiny_report("direct")
    patch(report)
    assert list(bench.compare(_tiny_report("rk")).stats) == ["rk"]
    with pytest.raises(bench.ConfigError, match="report 1"):
        bench.compare(_tiny_report("rk"), report)


# ------------------------------------------------------------------- compare


def test_compare_two_solvers(rk_simple_run, tmp_path):
    _, rk_report, _ = rk_simple_run
    cfg = bench.ExperimentConfig(problem="simple", solver="direct", budget=50,
                                 seeds=(0,), output_dir=str(tmp_path))
    direct_report = bench.run_experiment(cfg)
    comp = bench.compare(rk_report, direct_report)
    assert list(comp.stats) == ["rk", "direct"]
    assert len(comp.grid) == 50
    for stats in comp.stats.values():
        curve = stats.median_curve
        assert len(curve) == 50
        assert all(a >= b for a, b in zip(curve, curve[1:]))
    table = comp.final_table()
    assert "rk" in table and "direct" in table
    csv_path = tmp_path / "curves.csv"
    comp.write_curves_csv(csv_path)
    assert len(csv_path.read_text().splitlines()) == 51


def test_compare_rejects_mixed_problems(rk_simple_run, tmp_path):
    _, rk_report, _ = rk_simple_run
    cfg = bench.ExperimentConfig(problem="quadratic", solver="direct",
                                 budget=30, seeds=(0,),
                                 output_dir=str(tmp_path))
    other = bench.run_experiment(cfg)
    with pytest.raises(bench.ConfigError, match="mismatched problems"):
        bench.compare(rk_report, other)


# ------------------------------------------------------------------ plotting


def test_emit_plot_data_from_trace_csv(rk_simple_run, tmp_path):
    _, _, out = rk_simple_run
    files = emit_plot_data(out / "trace_simple_rk_seed0.csv", tmp_path)
    assert (tmp_path / "trace_simple_rk_seed0_best.csv") in files
    rows = (tmp_path / "trace_simple_rk_seed0_best.csv").read_text().splitlines()
    assert len(rows) == 51


_SVG = {"svg": "http://www.w3.org/2000/svg"}


def _svg_parts(path):
    """Parse an SVG; return (line, band, scatter point) element counts."""
    root = ET.parse(path).getroot()
    return (len(root.findall(".//svg:polyline[@class='line']", _SVG)),
            len(root.findall(".//svg:polygon[@class='band']", _SVG)),
            len(root.findall(".//svg:g[@class='points']/svg:circle", _SVG)))


def test_emit_plot_data_writes_best_curve_svg(rk_simple_run, tmp_path):
    _, _, out = rk_simple_run
    trace = out / "trace_simple_rk_seed0.csv"
    first = emit_plot_data(trace, tmp_path / "a")
    again = emit_plot_data(trace, tmp_path / "b")
    svg = tmp_path / "a" / "trace_simple_rk_seed0_best.svg"
    assert first[-1] == svg
    assert _svg_parts(svg) == (1, 0, 0)
    assert svg.read_bytes() == again[-1].read_bytes()


def test_emit_plot_data_writes_nfd_scatter_svg(tmp_path):
    cfg, curve, template = complex_toll_scenario()
    out = sb.run_reservoir(cfg, curve, template.with_tau(np.zeros(16)), seed=0)
    csv_path = write_nfd_scatter(out, tmp_path / "nfd.csv")
    svg = plot_nfd_scatter(out, tmp_path / "nfd.svg")
    n_rows = len(csv_path.read_text().splitlines()) - 1
    assert _svg_parts(svg) == (0, 0, n_rows)
    with_curve = plot_nfd_scatter(out, tmp_path / "ideal.svg", curve=curve)
    assert _svg_parts(with_curve) == (1, 0, n_rows)
    assert with_curve.read_bytes() == plot_nfd_scatter(
        out, tmp_path / "again.svg", curve=curve).read_bytes()


def test_curve_bands_svg_has_a_line_and_band_per_solver(tmp_path):
    grid = np.arange(1, 6)
    flat = np.full(5, 2.5)
    rising = np.array([1.0, 1.0, np.nan, 3.0, np.inf])
    medians = {"flat": flat, "rising": rising, "a<b": flat * 2}
    iqrs = {"flat": (flat, flat), "rising": (rising - 0.5, rising + 0.5),
            "a<b": (flat, flat * 3)}
    svg = plot_curve_bands(grid, medians, iqrs, tmp_path / "bands.svg")
    assert _svg_parts(svg) == (3, 3, 0)
    text = svg.read_text()
    assert "nan" not in text and "inf" not in text
    root = ET.parse(svg).getroot()
    rising_line = root.findall(".//svg:polyline[@class='line']", _SVG)[1]
    # three finite points left, so a post-step line of five vertices
    assert len(rising_line.get("points").split()) == 5
    legend = [t.text for t in root.findall(".//svg:g[@class='legend']/svg:text", _SVG)]
    assert legend == ["flat", "rising", "a<b"]
    again = plot_curve_bands(grid, medians, iqrs, tmp_path / "again.svg")
    assert svg.read_bytes() == again.read_bytes()


def test_flat_curve_svg_gets_an_axis_span(tmp_path):
    svg = plot_best_curve([0, 1, 2], [7.0, 7.0, 7.0], tmp_path / "flat.svg")
    assert _svg_parts(svg) == (1, 0, 0)
    assert "nan" not in svg.read_text()


def test_all_non_finite_curve_raises(tmp_path):
    with pytest.raises(sb.SboError, match="no finite points"):
        plot_best_curve([0, 1, 2], [np.nan, np.inf, -np.inf],
                        tmp_path / "none.svg")
    assert not (tmp_path / "none.svg").exists()


def test_empty_trace_has_nothing_to_plot(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("")
    with pytest.raises(sb.SboError, match="empty"):
        emit_plot_data(trace, tmp_path)
    assert not (tmp_path / "empty_best.csv").exists()


def test_untolled_peak_flow_sits_on_the_plateau(tmp_path):
    cfg, curve, template = complex_toll_scenario()
    out = sb.run_reservoir(cfg, curve, template.with_tau(np.zeros(16)), seed=0)
    path = tmp_path / "nfd.csv"
    write_nfd_scatter(out, path)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    k = np.array([float(r[0]) for r in rows])
    q = np.array([float(r[1]) for r in rows])
    assert len(rows) == 180
    peak = np.argmax(q)
    assert q[peak] == pytest.approx(curve.q_max)
    assert curve.k_cr_low <= k[peak] <= curve.k_cr_high
    # the untolled scenario jams, so densities reach the far side too
    assert k.max() > curve.k_cr_high


# ----------------------------------------------------------------------- CLI


def test_cli_run_compare_plot_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": "quadratic", "solver": "direct", "budget": 9,
        "seeds": [0], "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path)]) == 0
    report = tmp_path / "report_quadratic_direct.json"
    assert report.exists()

    cfg2 = tmp_path / "run2.json"
    cfg2.write_text(json.dumps({
        "problem": "quadratic", "solver": "spsa", "budget": 9,
        "seeds": [0], "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg2)]) == 0
    assert main(["compare", str(report),
                 str(tmp_path / "report_quadratic_spsa.json"),
                 "--out", str(tmp_path / "cmp.csv")]) == 0
    assert (tmp_path / "cmp.csv").exists()
    assert (tmp_path / "cmp.svg").exists()

    trace = tmp_path / "trace_quadratic_direct_seed0.csv"
    assert main(["plot", str(trace), "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "trace_quadratic_direct_seed0_best.csv").exists()


def test_cli_compare_refuses_an_svg_out(tmp_path, capsys):
    # the figure goes next to the CSV with the suffix .svg, which would be
    # the CSV's own path
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_tiny_report("rk")))
    assert main(["compare", str(report), "--out", str(tmp_path / "cmp.svg")]) == 2
    assert "ends in .svg" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_cli_budget_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": "quadratic", "solver": "direct", "budget": 9,
        "seeds": [0], "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path), "--budget", "5",
                 "--seed", "3"]) == 0
    report = json.loads((tmp_path / "report_quadratic_direct.json").read_text())
    assert report["budget"] == 5
    assert report["seeds"] == [3]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "nope", "solver": "direct",
                               "budget": 9}))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["plot", str(tmp_path / "missing.csv")]) == 3
    err = capsys.readouterr().err
    assert err.endswith(f"\nsbo: error: trace file not found: {tmp_path / 'missing.csv'}\n")
    pi_cfg = tmp_path / "pi.json"
    pi_cfg.write_text(json.dumps({"problem": "complex", "solver": "pi",
                                  "budget": 9}))
    assert main(["run", "--config", str(pi_cfg)]) == 2
    scalar_seeds = tmp_path / "seeds.json"
    scalar_seeds.write_text(json.dumps({"problem": "quadratic", "solver": "rk",
                                        "budget": 9, "seeds": 3}))
    assert main(["run", "--config", str(scalar_seeds)]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0
    help_text = capsys.readouterr().out
    for name, spec in bench.harness.SOLVERS.items():
        assert name in help_text
        assert all(param in help_text for param in spec.params)


@pytest.mark.parametrize("solver", ["rk", "spsa", "direct", "pi"])
def test_config_rejects_negative_seeds(solver):
    cfg = {"problem": "simple", "solver": solver, "budget": 5, "seeds": [0, -1]}
    with pytest.raises(bench.ConfigError, match=r"non-negative, got \[-1\]"):
        bench.ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("seed, message", [
    (-1, r"seeds must be non-negative, got \[-1\]"),
    (1.0, r"seeds must be a non-empty list of distinct integers, got \(1\.0,\)"),
    (True, r"seeds must be a non-empty list of distinct integers, got \(True,\)"),
])
@pytest.mark.parametrize("solver", ["rk", "spsa", "direct", "pi"])
def test_run_single_rejects_bad_seeds(solver, seed, message):
    with pytest.raises(bench.ConfigError, match=message):
        bench.run_single(bench.get_problem("simple"), solver, 5, seed)


@pytest.mark.parametrize("budget", [0, True, 2.5, -1])
@pytest.mark.parametrize("solver", ["rk", "spsa", "direct", "pi"])
def test_run_single_rejects_bad_budgets(solver, budget):
    with pytest.raises(bench.ConfigError,
                       match=rf"budget must be a positive integer, got {budget!r}$"):
        bench.run_single(bench.get_problem("simple"), solver, budget, 0)


@pytest.mark.parametrize("solver, params", [
    *(pytest.param(solver, {key: True if key == "use_reinterp" else 1},
                   id=f"{solver}-{key}")
      for solver, key in [("rk", "bogus"), ("spsa", "bogus"), ("direct", "bogus"),
                          ("pi", "bogus"), ("spsa", "use_reinterp"),
                          ("direct", "use_reinterp"), ("pi", "use_reinterp")]),
    *(pytest.param(solver, params, id=f"{solver}-{key}={value!r}")
      for solver, params in BAD_VALUES for key, value in params.items()),
    *RANGE_CASES,
])
def test_run_single_rejects_params_the_config_rejects(solver, params):
    cfg = bench.ExperimentConfig(problem="simple", solver=solver, budget=5, params=params)
    with pytest.raises(bench.ConfigError) as want:
        cfg.validate()
    with pytest.raises(bench.ConfigError) as got:
        bench.run_single(bench.get_problem("simple"), solver, 5, 0, params)
    assert str(got.value) == str(want.value)
    (key, value), = params.items()
    kind = bench.harness.SOLVERS[solver].params.get(key)
    if (solver, params) in RANGE_VALUES:
        prefix = f"bad parameters for solver '{solver}': "
    elif kind is None:
        prefix = f"params ['{key}'] not recognized for solver '{solver}'"
    else:
        prefix = f"params.{key}: expected {kind}, got {value!r}"
    assert str(got.value).startswith(prefix)


@pytest.mark.parametrize("solver, params", RANGE_CASES)
def test_cli_rejects_out_of_range_params_before_writing(solver, params, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": "simple", "solver": solver, "budget": 5, "params": params,
        "output_dir": str(out)}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert f"bad parameters for solver '{solver}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["rk", "spsa", "direct"])
def test_run_time_errors_keep_their_type(solver):
    def objective(tau, seed):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("objective blew up")
        return float(np.sum(tau ** 2))

    calls = []
    problem = bench.Problem(name="fragile", objective=objective, bounds=sb.Bounds.unit(2),
                            rk_n_init=4, spsa_tau_0=np.full(2, 0.5))
    with pytest.raises(ValueError, match="objective blew up"):
        bench.run_single(problem, solver, 10, 0)
    assert len(calls) == 3


def test_cli_maps_any_run_time_error_to_exit_3(tmp_path, capsys, monkeypatch):
    build = bench.harness.get_problem

    def fragile(name):
        problem = build(name)
        inner = problem.objective

        def objective(tau, seed):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("objective blew up")
            return inner(tau, seed)

        problem.objective = objective
        return problem

    calls = []
    monkeypatch.setattr(bench.harness, "get_problem", fragile)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"problem": "quadratic", "solver": "direct",
                                    "budget": 10, "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err == "sbo: error: ValueError: objective blew up\n"
    assert len(calls) == 3


@pytest.mark.parametrize("solver", list(bench.harness.SOLVERS))
def test_no_budget_means_no_evaluation(solver):
    def objective(tau, seed):
        calls.append(1)
        return 0.0

    calls = []
    evaluator = sb.Evaluator(objective, budget=0)
    trace = bench.harness.SOLVERS[solver].run(evaluator, bench.get_problem("simple"), 0, {})
    assert trace is evaluator.trace
    assert len(trace) == 0 and not trace.iterations
    assert calls == []


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": "quadratic", "solver": "direct", "budget": 5,
        "seeds": [0], "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert r"seeds must be non-negative, got [-1]" in capsys.readouterr().err
    assert not list(tmp_path.glob("trace_*"))


# Each passed validate() once, and then `sbo run` created the output
# directory and failed the run with exit 3.
UNRUNNABLE = [
    pytest.param({"solver": ["rk"]}, r"unknown solver \['rk'\]; known: ", id="solver-list"),
    pytest.param({"solver": {"a": 1}}, r"unknown solver \{'a': 1\}; known: ",
                 id="solver-object"),
    pytest.param({"seeds": [2 ** 63]}, r"seeds must be below 2\*\*63, got \[9223372036854775808\]",
                 id="seed-2**63"),
    pytest.param({"solver": "spsa", "budget": 1},
                 r"solver 'spsa' needs a budget of at least 2, got 1", id="spsa-budget-1"),
]


@pytest.mark.parametrize("patch, message", UNRUNNABLE)
def test_unrunnable_configs_exit_2_before_writing(patch, message, tmp_path, capsys):
    out = tmp_path / "out"
    raw = {"problem": "quadratic", "solver": "direct", "budget": 5,
           "output_dir": str(out)} | patch
    with pytest.raises(bench.ConfigError, match=message):
        bench.ExperimentConfig.from_dict(raw)
    (seed,) = raw.get("seeds", [0])
    with pytest.raises(bench.ConfigError, match=message):
        bench.run_single(bench.get_problem("quadratic"), raw["solver"], raw["budget"], seed)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_cli_rejects_a_seed_of_2_63_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"problem": "simple", "solver": "direct", "budget": 5}))
    assert main(["run", "--config", str(cfg_path), "--seed", str(2 ** 63),
                 "--out", str(out)]) == 2
    assert "seeds must be below 2**63, got [9223372036854775808]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem", bench.available_problems())
def test_the_largest_seed_runs(problem):
    trace = bench.run_single(bench.get_problem(problem), "direct", 2, 2 ** 63 - 1)
    assert len(trace) == 2
