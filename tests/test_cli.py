import concurrent.futures
import json
import math
from pathlib import Path

import pytest

from sgdual import cli, suites
from sgdual.cli import ConfigError, ScenarioConfig, list_suites, main, run
from sgdual.fields import make_vacuum
from sgdual.lax import spectral
from sgdual.suites import SUITES, run_suite
from sgdual.transition import default_nsteps

DEMOS = Path(__file__).resolve().parents[1] / "demos"
REPORTS = Path(__file__).resolve().parent / "data" / "reports"  # CSV reports of the demo scenarios


BASE = {
    "schema": 1,
    "model": {"m": 1.0, "beta": 1.0},
    "solution": {"kind": "vacuum"},
    "spectral": {"lambda_list": [0.5, 2.0]},
    "numerics": {"half_width": 30.0},
}


def write_config(tmp_path, overrides=None, **numerics):
    data = json.loads(json.dumps(BASE))
    if overrides:
        data.update(overrides)
    if numerics:
        data["numerics"].update(numerics)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_suite_catalogue_has_eight_entries():
    assert len(SUITES) == 8
    listing = list_suites()
    assert "appendix" in listing
    assert "energy-identities" in listing
    assert "half-line" in listing  # the appendix suite names the identity it checks
    assert "H_S" in listing and "H_T" in listing


def test_vacuum_config_all_suites_pass(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "reports"
    assert run(cfg, out, "csv", jobs=1) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(f"{s}.csv" for s in SUITES)


def test_vacuum_gaps_are_tiny(tmp_path):
    config = ScenarioConfig.from_dict(BASE)
    for name in ("lax-residual", "monodromy-conservation", "energy-identities"):
        rep = run_suite(name, config)
        assert rep.passed
        assert all(c.gap < 1e-10 for c in rep.cases)


def test_kink_config_passes(tmp_path):
    cfg = write_config(tmp_path, overrides={"solution": {"kind": "kink", "v": 0.4}})
    assert run(cfg, tmp_path / "rep", "csv") == 0


def test_defect_pair_config_passes_with_json_and_jobs(tmp_path):
    cfg = write_config(
        tmp_path,
        overrides={
            "solution": {"kind": "defect_pair", "sigma": 2.0},
            "suites": ["defect", "involution"],
        },
    )
    assert run(cfg, tmp_path / "rep", "json", jobs=2) == 0
    payload = json.loads((tmp_path / "rep" / "defect.json").read_text())
    assert payload["passed"] is True
    assert payload["metadata"]["c-candidate"] == "ratio"


@pytest.fixture
def pool_requests(monkeypatch):
    """Replace ProcessPoolExecutor by a serial fake; returns the max_workers it was given."""
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cli.run imports the pool class from concurrent.futures only when it runs suites in parallel
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return requested


@pytest.mark.parametrize("cpus", [3, 64])
def test_jobs_clamped_to_suites_and_cpus(tmp_path, monkeypatch, pool_requests, cpus):
    suites = ["energy-identities", "lax-residual"]
    cfg = write_config(tmp_path, overrides={"suites": suites})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert run(cfg, tmp_path / "rep", "csv", jobs=1000) == 0
    assert pool_requests == [min(len(suites), cpus)]
    assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [f"{s}.csv" for s in suites]


def test_jobs_clamped_to_one_cpu_runs_serially(tmp_path, monkeypatch, pool_requests):
    cfg = write_config(tmp_path, overrides={"suites": ["energy-identities", "lax-residual"]})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(cfg, tmp_path / "rep", "csv", jobs=8) == 0
    assert pool_requests == []


def test_zero_tolerance_designed_failure(tmp_path):
    cfg = write_config(
        tmp_path,
        overrides={"solution": {"kind": "kink", "v": 0.4}, "suites": ["monodromy-conservation"]},
        tolerances={"monodromy_drift": 0.0},
    )
    assert run(cfg, tmp_path / "rep", "csv") == 1


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(path, tmp_path / "rep", "csv") == 2


def test_unknown_tolerance_rejected():
    data = json.loads(json.dumps(BASE))
    data["numerics"]["tolerances"] = {"monodromy_drfit": 1e-6}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_unknown_keys_rejected():
    data = json.loads(json.dumps(BASE))
    data["extra"] = 1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)
    data = json.loads(json.dumps(BASE))
    data["solution"] = {"kind": "kink", "v": 0.4, "velocity": 0.4}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_schema_and_solution_validation():
    data = json.loads(json.dumps(BASE))
    data["schema"] = 99
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)
    data = json.loads(json.dumps(BASE))
    data["solution"] = {"kind": "breather"}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)
    data = json.loads(json.dumps(BASE))
    data["solution"] = {"kind": "kink", "v": 1.5}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)
    data = json.loads(json.dumps(BASE))
    data["suites"] = ["no-such-suite"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_spectral_sweep():
    data = json.loads(json.dumps(BASE))
    data["spectral"] = {"sweep": {"min": 0.5, "max": 2.0, "count": 4}}
    config = ScenarioConfig.from_dict(data)
    assert len(config.lambdas) == 4
    assert config.lambdas[0] == 0.5 and config.lambdas[-1] == 2.0


def test_reports_byte_stable(tmp_path):
    cfg = write_config(tmp_path, overrides={"solution": {"kind": "kink", "v": 0.4}, "suites": ["rmatrix", "charges"]})
    run(cfg, tmp_path / "a", "csv")
    run(cfg, tmp_path / "b", "csv")
    for suite in ("rmatrix", "charges"):
        assert (tmp_path / "a" / f"{suite}.csv").read_bytes() == (tmp_path / "b" / f"{suite}.csv").read_bytes()


def test_csv_columns(tmp_path):
    cfg = write_config(tmp_path, overrides={"suites": ["lax-residual"]})
    run(cfg, tmp_path / "rep", "csv")
    header = (tmp_path / "rep" / "lax-residual.csv").read_text().splitlines()[0]
    assert header == "case,inputs,lhs,rhs,gap,tolerance,pass"


def test_main_entrypoint(tmp_path, capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 8
    cfg = write_config(tmp_path, overrides={"suites": ["lax-residual"]})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0


def test_nsteps_knob_rejected(tmp_path):
    cfg = write_config(tmp_path, nsteps=400)
    assert run(cfg, tmp_path / "rep", "csv") == 2


def test_negative_beta_kink_demo_passes(tmp_path):
    data = json.loads((Path(__file__).resolve().parents[1] / "demos" / "scenario_kink.json").read_text())
    data["model"]["beta"] = -1.0
    data["suites"] = ["monodromy-conservation", "appendix"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert run(path, tmp_path / "rep", "csv") == 0


def test_grid_knob_rejected(tmp_path):
    cfg = write_config(tmp_path, grid={"nx": 801, "nt": 801})
    assert run(cfg, tmp_path / "rep", "csv") == 2


@pytest.mark.parametrize(
    "solution",
    [{"kind": "kink", "v": 0.4, "seed": "vacuum"}, {"kind": "defect_pair", "sigma": 2.0, "seed": "vacuum"}],
    ids=["kink", "defect_pair"],
)
def test_seed_knob_rejected(tmp_path, solution):
    cfg = write_config(tmp_path, overrides={"solution": solution, "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2


def test_quadrature_windows_follow_the_solution():
    # spacing at most 0.1/(m gamma): 2 ceil(10 span m gamma) + 1 points, span = max(40, W)
    for name, bulk, pair in (("kink", 875, 1001), ("defect", 1001, 1001)):
        config = ScenarioConfig.load(DEMOS / f"scenario_{name}.json")
        field, defect_pair = suites._bulk_field(config), suites._pair(config)
        win = suites._window(config, field)
        assert (win.nx, win.nt) == (bulk, bulk)
        assert (win.x_min, win.x_max) == (-40.0, 40.0)
        assert win.xs()[1] - win.xs()[0] <= 0.1 / field.gamma
        assert suites._window(config, defect_pair.left, defect_pair.right).nt == pair
    wide = ScenarioConfig.from_dict({**BASE, "numerics": {"half_width": 60.0}})
    assert suites._window(wide, make_vacuum(wide.params)).nx == 1201


@pytest.mark.parametrize("v", [0.0, 0.4, 0.95])
def test_kink_energies_on_derived_window(v):
    config = ScenarioConfig.from_dict({**BASE, "solution": {"kind": "kink", "v": v}})
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    charges = run_suite("charges", config)
    assert charges.passed
    energies = run_suite("energy-identities", config)
    assert energies.passed
    # the report holds (beta^2/2m) H, which is H/2 at m = beta = 1
    want = {"space": 8.0 * gamma, "time": -8.0 * gamma * abs(v)}
    assert [c.case for c in energies.cases] == (["space"] if v == 0.0 else ["space", "time"])
    for case in energies.cases:
        assert abs(2.0 * case.lhs - want[case.case]) <= 1e-10 * abs(want[case.case])


@pytest.mark.parametrize("name", ["kink", "defect"])
def test_demo_scenario_passes_and_is_byte_stable(tmp_path, name):
    config = DEMOS / f"scenario_{name}.json"
    assert run(config, tmp_path / "a", "csv") == 0
    assert run(config, tmp_path / "b", "csv") == 0
    first = sorted((tmp_path / "a").iterdir())
    assert [p.name for p in first] == sorted(f"{s}.csv" for s in ScenarioConfig.load(config).suites)
    for path in first:
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


@pytest.mark.parametrize("name", ["kink", "defect"])
def test_demo_scenario_reproduces_the_committed_reports(tmp_path, name):
    """Refactors must keep every report byte for byte; a change of numbers on purpose regenerates these files."""
    assert run(DEMOS / f"scenario_{name}.json", tmp_path, "csv") == 0
    want = sorted((REPORTS / name).iterdir())
    assert [p.name for p in sorted(tmp_path.iterdir())] == [p.name for p in want]
    for path in want:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


_TIME_PICTURE_SUITES = {"monodromy-conservation", "charges", "energy-identities", "appendix", "involution"}


@pytest.mark.parametrize(
    "solution, skipping",
    [
        # the defect suite's own pair (sigma = 2) moves, so only the bulk static kink lacks a time picture
        ({"kind": "kink", "v": 0.0, "x0": 0.3}, _TIME_PICTURE_SUITES),
        # sigma = 1 makes the pair's kink static, so the defect suite skips its time-picture block too
        ({"kind": "defect_pair", "sigma": 1.0}, _TIME_PICTURE_SUITES | {"defect"}),
    ],
    ids=["static_kink", "static_pair"],
)
def test_static_kink_skips_the_time_picture_and_passes(tmp_path, capsys, solution, skipping):
    data = {"schema": 1, "solution": solution, "spectral": {"lambda_list": [0.7, 1.9]}, "numerics": {"half_width": 40.0}}
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps(data))
    assert run(cfg, tmp_path / "rep", "json") == 0
    # the appendix identity lives in the time picture only, so the suite has no case to pass
    assert f"[skip] appendix: 0 cases -> {tmp_path / 'rep' / 'appendix.json'}\n" in capsys.readouterr().out
    noted = {s for s in SUITES if "time-picture" in json.loads((tmp_path / "rep" / f"{s}.json").read_text())["metadata"]}
    assert noted == skipping


def test_c_candidate_follows_the_generating_gate():
    data = json.loads((DEMOS / "scenario_defect.json").read_text())
    data["numerics"]["tolerances"] = {"generating_gap": 1e-12}
    rep = run_suite("defect", ScenarioConfig.from_dict(data))
    assert not next(c for c in rep.cases if c.case == "generating-relation").passed
    assert rep.metadata["c-candidate"] == "none"


KINK = {**BASE, "solution": {"kind": "kink", "v": 0.4}, "suites": ["lax-residual"]}


def _with(path, value):
    data = json.loads(json.dumps(KINK))
    *parents, key = path
    node = data
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return data


@pytest.mark.parametrize(
    "data",
    [
        _with(("numerics", "half_width"), "abc"),
        _with(("solution", "v"), "abc"),
        _with(("spectral", "lambda_list"), ["x"]),
        _with(("spectral",), {"sweep": {"min": 0.5, "max": 2.0, "count": -1}}),
        _with(("numerics", "tolerances"), {"lax_residual": math.inf}),
        _with(("numerics", "tolerances"), {"lax_residual": math.nan}),
        _with(("numerics", "half_width"), math.nan),
        _with(("spectral", "lambda_list"), [0.5, math.inf]),
        _with(("numerics", "half_width"), 10**400),
        _with(("spectral",), {"sweep": {"min": 0.5, "max": 2.0, "count": 1e20}}),
    ],
    ids=[
        "half_width-str", "v-str", "lambda-str", "count-negative", "tol-inf", "tol-nan", "half_width-nan",
        "lambda-inf", "half_width-huge-int", "count-huge",
    ],
)
def test_unusable_numbers_exit_2_without_traceback(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))  # writes NaN and Infinity as the JSON extensions Python reads back
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_output_directory_exits_2_without_traceback(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "reports" if under else taken
    assert main(["run", "--config", str(DEMOS / "scenario_defect.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no suite ran


def test_unwritable_report_exits_2_without_traceback(tmp_path, capsys):
    (tmp_path / "lax-residual.csv").mkdir()  # a directory where a report file goes
    assert main(["run", "--config", str(DEMOS / "scenario_kink.json"), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:") and captured.err.count("\n") == 1
    assert "lax-residual.csv" in captured.err and "Traceback" not in captured.err


def test_step_counts_reach_the_json_report_only(tmp_path):
    cfg = write_config(tmp_path, overrides={"suites": ["monodromy-conservation"]})
    assert run(cfg, tmp_path / "json", "json") == 0
    config = ScenarioConfig.load(cfg)
    report = json.loads((tmp_path / "json" / "monodromy-conservation.json").read_text())
    want = {f"{k}={lam:g}": default_nsteps(30.0, spectral(lam, config.params)) for k in ("a-lam", "fa-lam") for lam in config.lambdas}
    assert report["metadata"]["step-counts"] == want
    # the vacuum keeps the uniform mesh: every step is 2W/n
    sizes = report["metadata"]["step-sizes"]
    assert sizes.keys() == want.keys()
    for key, n in want.items():
        assert sizes[key] == pytest.approx([60.0 / n] * 2, rel=1e-12)
    assert run(cfg, tmp_path / "csv", "csv") == 0
    assert "step" not in (tmp_path / "csv" / "monodromy-conservation.csv").read_text()


def _error_rows(path):
    rows = [line.split(",", 1) for line in path.read_text().splitlines()[1:]]
    return [rest for case, rest in rows if case == "error"]


def test_suite_that_raises_becomes_a_failing_error_case(tmp_path, capsys):
    data = {**_with(("numerics", "half_width"), 5.0), "suites": ["lax-residual", "monodromy-conservation"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "rep")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    (row,) = _error_rows(tmp_path / "rep" / "monodromy-conservation.csv")
    assert "NonDecayingFieldError" in row and row.endswith(",nan,nan,inf,0,fail")
    assert "NonDecayingFieldError" in captured.out  # the failing-case line names the exception
    assert "[pass] lax-residual: 3 cases" in captured.out  # the other suite still ran


@pytest.mark.parametrize("lam", [1e-300, 1e20])
def test_extreme_lambda_ends_quickly_in_an_error_case(tmp_path, lam):
    data = {**_with(("spectral", "lambda_list"), [lam]), "suites": ["monodromy-conservation"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert run(path, tmp_path / "rep", "csv") == 1
    (row,) = _error_rows(tmp_path / "rep" / "monodromy-conservation.csv")
    assert "ValueError" in row and "Magnus steps" in row


@pytest.mark.parametrize(
    "solution",
    [
        {"kind": "defect_pair", "sigma": 2.0, "v": 0.9, "orientation": -1},
        {"kind": "defect_pair", "sigma": 2.0, "v": 0.9},
        {"kind": "vacuum", "v": 0.4},
        {"kind": "vacuum", "x0": 1.0},
        {"kind": "vacuum", "orientation": -1},
    ],
    ids=["defect_pair-v-orientation", "defect_pair-v", "vacuum-v", "vacuum-x0", "vacuum-orientation"],
)
def test_solution_keys_the_kind_ignores_exit_2(tmp_path, capsys, solution):
    cfg = write_config(tmp_path, overrides={"solution": solution, "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert "unknown keys" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "solution",
    [
        {"kind": "vacuum", "sigma": 0.5},
        {"kind": "defect_pair", "sigma": 2.0, "x0": 0.3},
        {"kind": "kink", "v": 0.4, "x0": 0.3, "orientation": -1, "sigma": 0.5},
    ],
    ids=["vacuum", "defect_pair", "kink"],
)
def test_solution_keys_the_kind_reads_are_accepted(solution):
    config = ScenarioConfig.from_dict({**BASE, "solution": solution})
    assert config.solution == solution


def test_lambda_list_and_sweep_together_exit_2(tmp_path):
    spectral_both = {"lambda_list": [0.5], "sweep": {"min": 0.5, "max": 2.0, "count": 50}}
    cfg = write_config(tmp_path, overrides={"spectral": spectral_both, "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    with pytest.raises(ConfigError, match="exactly one"):
        ScenarioConfig.from_dict({**BASE, "spectral": {}})


def test_suite_listed_twice_exits_2(tmp_path):
    cfg = write_config(tmp_path, overrides={"suites": ["lax-residual", "lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, overrides={"suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv", jobs) == 2
    args = ["run", "--config", str(cfg), "--out", str(tmp_path / "rep"), "--jobs", str(jobs)]
    assert main(args) == 2
    assert capsys.readouterr().err.count("--jobs must be >= 1") == 2
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "solution",
    [{"kind": "vacuum", "sigma": -1}, {"kind": "kink", "v": 0.4, "sigma": 0.0}, {"kind": "defect_pair", "sigma": -2.0}],
    ids=["vacuum", "kink", "defect_pair"],
)
def test_sigma_not_positive_exits_2(tmp_path, capsys, solution):
    cfg = write_config(tmp_path, overrides={"solution": solution, "suites": ["defect"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert "sigma must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_unknown_format_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "xml", 1) == 2
    assert "format must be csv or json" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "spectral_values, shared",
    [
        ({"lambda_list": [0.5, 2.0, 0.5]}, "0.5"),
        ({"lambda_list": [0.5, 0.5000001]}, "0.5"),
        ({"sweep": {"min": 1.0, "max": 1.000001, "count": 3}}, "1"),
    ],
    ids=["exact-repeat", "near-repeat", "colliding-sweep"],
)
def test_spectral_values_sharing_a_case_label_exit_2(tmp_path, capsys, spectral_values, shared):
    # each label names one CSV row and one metadata key, so two values with one label would overwrite each other
    cfg = write_config(tmp_path, overrides={"spectral": spectral_values, "suites": ["monodromy-conservation"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert f"distinct case labels; ['{shared}']" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()
    assert suites.lambda_label(0.5000001) == suites.lambda_label(0.5) != suites.lambda_label(0.500001)
