import concurrent.futures
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from sgdual import cli, fields, suites
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
        field, defect_pair, geo = config.solution.field, config.solution.pair, config.geometry
        win = suites._window(geo, config.params, field)
        axis = win.axis()
        assert (win.count, win.half_span) == (bulk, 40.0)
        assert (axis[0], axis[-1]) == (-40.0, 40.0)
        assert axis[1] - axis[0] <= 0.1 / field.gamma
        assert suites._window(geo, config.params, defect_pair.left, defect_pair.right).count == pair
    wide = ScenarioConfig.from_dict({**BASE, "numerics": {"half_width": 60.0}})
    assert suites._window(wide.geometry, wide.params, make_vacuum(wide.params)).count == 1201


@pytest.mark.parametrize("w, span", [(30.0, 40.0), (60.0, 60.0)])
def test_geometry_spans_at_least_40_and_its_lines_span_w(w, span):
    # quadrature windows and time-axis lines span max(40, W); the monodromy lines and M_S span W
    geo = ScenarioConfig.from_dict({**BASE, "numerics": {"half_width": w}}).geometry
    assert (geo.span, geo.half_width) == (span, w) and geo == suites.geometry(w)


@pytest.mark.parametrize("name", ["kink", "defect"])
def test_every_demo_report_carries_the_one_geometry_record(tmp_path, name):
    config = ScenarioConfig.load(DEMOS / f"scenario_{name}.json")
    geo = config.geometry
    # the suites of a config share one record instead of holding a copy each
    assert all(run_suite(suite, config).metadata["geometry"] is geo for suite in config.suites)
    assert run(DEMOS / f"scenario_{name}.json", tmp_path, "json") == 0
    want = json.loads(json.dumps(geo._asdict()))
    for suite in config.suites:
        assert json.loads((tmp_path / f"{suite}.json").read_text())["metadata"]["geometry"] == want, suite


def _inputs(reports):
    return {case.case: json.loads(case.inputs) for report in reports for case in report.cases}


def test_case_inputs_follow_a_replaced_geometry(monkeypatch):
    # a suite that kept its own literal would still report the old extent
    config = ScenarioConfig.load(DEMOS / "scenario_kink.json")
    geo = config.geometry._replace(
        lax_h=2e-3, monodromy_probes=((0.0, 1.5), (0.0, 0.5)), charge_probes=((0.0, 0.6), (0.0, 0.9)),
        riccati_lambdas=(30.0, 60.0), appendix_point=(0.8, 0.4), appendix_widths=(16.0, 26.0, 36.0),
        defect_lambda=1.7, defect_h=2e-4, ms_times=(0.0, 0.9), splitting_t=0.6,
        rmatrix_sites=(300, 600), involution_sites=(300, 600, 1200),
    )
    config = config._replace(geometry=geo)
    sites = []  # the lattice sizes the checks ran on, which no case input names
    bracket, involution = suites.transition_bracket_check, suites.involution_check
    monkeypatch.setattr(suites, "transition_bracket_check", lambda *args: sites.append(args[5]) or bracket(*args))
    monkeypatch.setattr(suites, "involution_check", lambda *args: sites.append(args[3]) or involution(*args))
    reports = [run_suite(suite, config) for suite in config.suites]
    assert all(report.metadata["geometry"] is geo for report in reports)
    assert sites == [300, 600, 300, 600, 1200]
    inputs = _inputs(reports)
    assert inputs["residual-h"] == {"lambda": 0.5, "h": 2e-3}
    assert inputs["a-drift-lam=1"]["times"] == [0.0, 1.5] and inputs["fa-drift-lam=1"]["positions"] == [0.0, 0.5]
    assert inputs["I-drift-n=1"]["times"] == [0.0, 0.6] and inputs["J-drift-n=1"]["positions"] == [0.0, 0.9]
    assert inputs["riccati-residual-scaling"]["lambdas"] == [30.0, 60.0]
    assert inputs["residual-lam=1"] == {"lambda": 1.0, "x": 0.8, "t": 0.4, "W": 40.0}
    assert inputs["half-width-monotone"] == {"W": [16.0, 26.0, 36.0]}
    assert inputs["L-equation"] == {"lambda": 1.7, "h": 2e-4} and inputs["canonical-left"] == {"h": 2e-4}
    assert inputs["Ms-diag-drift"] == {"lambda": 1.7, "times": [0.0, 0.9]} and inputs["Ms-splitting"] == {"lambda": 1.7, "t": 0.6}
    assert inputs["bracket-halving"] == {"sites": [300, 600]}
    assert inputs["bound-n600"] == {"sites": 600} and inputs["refinement-decrease"] == {"sites": [300, 600, 1200]}
    pair_geo = geo._replace(involution_pair=(0.4, 14.0))
    pair_config = ScenarioConfig.load(DEMOS / "scenario_defect.json")._replace(geometry=pair_geo)
    assert _inputs([run_suite("involution", pair_config)])["pair-left-bound-n600"] == {"probe": -0.4}


def test_an_error_report_carries_the_geometry_it_failed_on(tmp_path):
    data = json.loads((DEMOS / "scenario_kink.json").read_text())
    data["numerics"]["half_width"] = 5.0  # no vacuum at t = +-5: monodromy-conservation raises
    data["suites"] = ["monodromy-conservation"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert run(path, tmp_path / "rep", "json") == 1
    payload = json.loads((tmp_path / "rep" / "monodromy-conservation.json").read_text())
    (case,) = payload["cases"]
    assert case["case"] == "error" and "NonDecayingFieldError" in case["inputs"]
    assert (payload["metadata"]["geometry"]["half_width"], payload["metadata"]["geometry"]["span"]) == (5.0, 40.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 15: a pole of the + half-line integrand sits on the splitting path where lambda = sigma",
)
def test_splitting_passes_on_the_pair_whose_sigma_is_the_defect_lambda():
    # sigma is the defect suite's own lambda, read from the record, so moving that lambda keeps this pair on the pole
    lam = ScenarioConfig.from_dict(BASE).geometry.defect_lambda
    config = ScenarioConfig.from_dict({**BASE, "solution": {"kind": "defect_pair", "sigma": lam, "x0": 0.3}, "numerics": {"half_width": 40.0}})
    row = next(case for case in run_suite("defect", config).cases if case.case == "Ms-splitting")
    assert row.passed, f"gap {row.gap:.3e} against {row.tolerance:.0e}"  # 1.681e+01 against 1e-05


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


@pytest.mark.parametrize(
    "name, jobs", [("kink", 1), ("defect", 1), ("kink", 2), ("defect", 2)], ids=["kink", "defect", "kink-jobs2", "defect-jobs2"]
)
def test_demo_scenario_reproduces_the_committed_reports(tmp_path, monkeypatch, name, jobs):
    """Refactors must keep every report byte for byte; a change of numbers on purpose regenerates these files.

    With jobs = 2 the suites run in a real process pool, which receives the config's built fields by pickle.
    """
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool on any host
    assert run(DEMOS / f"scenario_{name}.json", tmp_path, "csv", jobs) == 0
    want = sorted((REPORTS / name).iterdir())
    assert [p.name for p in sorted(tmp_path.iterdir())] == [p.name for p in want]
    for path in want:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_energy_identities_report_is_the_same_alone_and_after_charges(tmp_path, monkeypatch):
    # after charges, the energy suite reads the order-3 ledgers charges built on (space, t = 0) and (time, x = 0)
    built, build = [], suites.build_ledger
    monkeypatch.setattr(suites, "build_ledger", lambda *args: built.append(args[1:4]) or build(*args))
    data = json.loads((DEMOS / "scenario_kink.json").read_text())
    runs = []
    for names in (["energy-identities"], ["charges", "energy-identities"]):
        built.clear()
        path, out = tmp_path / f"{len(names)}.json", tmp_path / f"rep{len(names)}"
        path.write_text(json.dumps({**data, "suites": names}))
        assert run(path, out, "csv") == 0
        runs.append(((out / "energy-identities.csv").read_bytes(), list(built)))
    (alone, alone_built), (after, after_built) = runs
    assert alone == after == (REPORTS / "kink" / "energy-identities.csv").read_bytes()
    assert alone_built == [("space", 0.0, 1), ("time", 0.0, 1)]
    assert after_built == [("space", 0.0, 3), ("space", 0.7, 3), ("time", 0.0, 3), ("time", 1.0, 3)]


def test_each_kink_demo_suite_stays_within_the_memory_budget():
    # the lattice checks hold one scan or one block of sites, and the splitting check one trajectory chunk, at a time;
    # with whole-lattice stacks the involution, rmatrix and defect suites peaked at 1.12, 1.02 and 0.96 MB,
    # and with one-piece trajectories the defect suite at 0.79 MB; the defect demo is held to the same budget.
    # With broadcast products on long batches (numpy's operand buffers) and complex w jets, involution peaked at 0.61 MB
    peaks = {}
    for name in ("kink", "defect"):
        config = ScenarioConfig.load(DEMOS / f"scenario_{name}.json")
        for suite in config.suites:
            run_suite(suite, config)  # imports and cached tables
        for suite in config.suites:
            tracemalloc.start()
            try:
                run_suite(suite, config)
                peaks[name, suite] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert {key: peak for key, peak in peaks.items() if peak > 0.55e6} == {}


def test_a_kink_demo_pass_stays_within_the_memory_budget(tmp_path):
    # one sgdual run of the kink demo, every suite and its CSV reports; 0.63 MB with broadcast products on long
    # batches and complex w jets, about 0.53 MB without
    config = DEMOS / "scenario_kink.json"
    assert run(config, tmp_path / "warm", "csv") == 0  # imports and cached tables
    tracemalloc.start()
    try:
        assert run(config, tmp_path / "pass", "csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.56e6


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


def test_splitting_steps_reach_the_json_report_only(tmp_path):
    cfg = write_config(tmp_path, overrides={"solution": {"kind": "defect_pair", "sigma": 2.0}, "suites": ["defect"]})
    assert run(cfg, tmp_path / "json", "json") == 0
    config = ScenarioConfig.load(cfg)
    count = default_nsteps(config.geometry.half_width, spectral(1.5, config.params), density=200.0)
    report = json.loads((tmp_path / "json" / "defect.json").read_text())
    assert report["metadata"]["splitting-steps"] == {"steps": count + count % 2, "chunk": 2**10}
    assert run(cfg, tmp_path / "csv", "csv") == 0
    assert "steps" not in (tmp_path / "csv" / "defect.csv").read_text()


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
    built = config.solution
    assert (built.kind, built.pair.defect.sigma) == (solution["kind"], solution["sigma"])
    if solution["kind"] == "vacuum":
        assert built.field.kind == built.pair.left.kind == built.pair.right.kind == "vacuum"
    else:  # the pair's Backlund kink sits at the solution's x0
        assert (built.pair.left.kind, built.pair.right.x0) == ("vacuum", 0.3)
    if solution["kind"] == "kink":
        assert (built.field.v, built.field.x0, built.field.orientation) == (0.4, 0.3, -1)
    if solution["kind"] == "defect_pair":
        assert built.field is built.pair.right


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
    assert "sigma must be positive" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "sigma, reason", [(1e-5, "defect-condition residual"), (1e-9, "got 1.0"), (1e9, "got -1.0")], ids=["1e-5", "1e-9", "1e9"]
)
@pytest.mark.parametrize("kind", ["kink", "defect_pair"])
def test_a_sigma_whose_pair_cannot_be_built_exits_2(tmp_path, capsys, kind, sigma, reason):
    # the Backlund kink's velocity (1 - s^2)/(1 + s^2) rounds to +-1, or the pair misses the defect conditions
    solution = {"kind": kind, "sigma": sigma, **({"v": 0.4} if kind == "kink" else {})}
    cfg = write_config(tmp_path, overrides={"solution": solution, "suites": ["defect"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot build the {kind} solution:") and reason in err
    assert not (tmp_path / "rep").exists()


def test_an_unbuildable_sigma_exits_2_when_no_suite_reads_it(tmp_path):
    cfg = write_config(tmp_path, overrides={"solution": {"kind": "kink", "v": 0.4, "sigma": 1e-5}, "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "solution, reason",
    [({"kind": "kink", "v": 0.4, "orientation": 2}, "orientation must be +1 or -1, got 2"), ({"kind": "kink", "v": 1.5}, "|v| < 1, got 1.5")],
    ids=["orientation", "velocity"],
)
def test_the_kink_constructor_refuses_orientation_and_velocity(tmp_path, capsys, solution, reason):
    cfg = write_config(tmp_path, overrides={"solution": solution, "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("name, builder, builds", [("defect", "bt_kink_from_vacuum", 1), ("kink", "make_kink", 2)], ids=["defect", "kink"])
def test_one_run_builds_the_solution_once(tmp_path, monkeypatch, name, builder, builds):
    # the kink demo builds its bulk kink and the appendix's mirrored kink; when every suite rebuilt the solution,
    # one run built 5 pairs on the defect demo and 8 kinks on the kink demo
    calls, configs, walked = [], [], []
    build, suite, line_init = getattr(suites, builder), cli.run_suite, fields.Line.__init__
    monkeypatch.setattr(suites, builder, lambda *args: calls.append(args) or build(*args))
    monkeypatch.setattr(cli, "run_suite", lambda name, config: configs.append(config) or suite(name, config))
    monkeypatch.setattr(fields.Line, "__init__", lambda line, field, *args: walked.append(field) or line_init(line, field, *args))
    assert run(DEMOS / f"scenario_{name}.json", tmp_path, "csv") == 0
    assert len(calls) == builds
    (config,) = {id(c): c for c in configs}.values()  # every suite read one config
    sol = config.solution
    built = {id(f) for f in (sol.field, sol.pair.left, sol.pair.right)}
    others = [f for f in walked if id(f) not in built]  # on the kink demo, the appendix's mirror
    assert all(f.kind == "kink" and f.v == -sol.field.v for f in others) and len({id(f) for f in others}) == builds - 1


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


def test_empty_suites_list_exits_2(tmp_path, capsys):
    # an empty list would write no report and verify nothing, yet exit 0
    cfg = write_config(tmp_path, overrides={"suites": []})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert "at least one suite" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("form", ["lambda_list", "sweep"])
def test_lambda_bound_holds_for_either_form(tmp_path, capsys, form):
    def spectral_values(n):
        if form == "lambda_list":
            return {"lambda_list": [0.01 * (k + 1) for k in range(n)]}
        return {"sweep": {"min": 0.01, "max": 100.0, "count": n}}

    assert len(ScenarioConfig.from_dict({**BASE, "spectral": spectral_values(cli._MAX_LAMBDAS)}).lambdas) == 10_000
    cfg = write_config(tmp_path, overrides={"spectral": spectral_values(cli._MAX_LAMBDAS + 1), "suites": ["lax-residual"]})
    assert run(cfg, tmp_path / "rep", "csv") == 2
    assert "10000" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_a_vacuum_runs_only_the_bracket_check_it_reports(monkeypatch):
    # bracket-agreement reads the fine lattice alone; the coarse one serves only bracket-halving
    sites = []
    bracket = suites.transition_bracket_check
    monkeypatch.setattr(suites, "transition_bracket_check", lambda *args: sites.append(args[5]) or bracket(*args))
    vacuum = run_suite("rmatrix", ScenarioConfig.from_dict(BASE))
    assert sites == [800] and [c.case for c in vacuum.cases][-1] == "bracket-agreement" and vacuum.passed
    sites.clear()
    kink = run_suite("rmatrix", ScenarioConfig.from_dict({**BASE, "solution": {"kind": "kink", "v": 0.4}}))
    assert sites == [400, 800] and [c.case for c in kink.cases][-1] == "bracket-halving" and kink.passed


def test_a_window_or_probe_beyond_the_point_cap_becomes_an_error_case(monkeypatch):
    # a small cap, so that a guard that regressed allocates kilobytes here, not the gigabytes a v near 1 would ask for;
    # on the kink demo the windows take 875 points and the monodromy probes 90
    monkeypatch.setattr(fields, "MAX_POINTS", 500)
    config = ScenarioConfig.load(DEMOS / "scenario_kink.json")
    (case,) = run_suite("charges", config).cases
    assert case.case == "error" and "ValueError: 875 window points needed; the cap is 500" in case.inputs
    assert run_suite("monodromy-conservation", config).passed
    monkeypatch.setattr(fields, "MAX_POINTS", 80)
    (case,) = run_suite("monodromy-conservation", config).cases
    assert case.case == "error" and "ValueError: 90 probe points needed; the cap is 80" in case.inputs
