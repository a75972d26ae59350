"""The record contract: immutable result records, validated parameters, picklable reports and configs."""

import inspect
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from sgdual.charges import ChargeLedger, IdentityReport
from sgdual.cli import ScenarioConfig
from sgdual.defect import DefectPair, DefectParams, GeneratingRelationReport, HamShiftReport, SplittingReport
from sgdual.fields import MAX_POINTS, FieldSample, GridWindow, ModelParams, QuadResult, make_vacuum
from sgdual.lax import SpectralPoint
from sgdual.report import CaseResult, Report
from sgdual.rmatrix import BracketReport, RMatrixValue
from sgdual.suites import Solution, geometry
from sgdual.transition import Monodromy, TransitionResult

ROOT = Path(__file__).resolve().parents[1]
P11 = ModelParams(1.0, 1.0)

FROZEN = [
    SpectralPoint(1.0 + 0j, 1.0, 0.5 + 0j, 0j),
    FieldSample(0.1, 0.2, 0.3),
    QuadResult(1.0, 0.0, False),
    TransitionResult(np.eye(2), 64, (0.1, 0.2)),
    Monodromy(np.eye(2), 0.0, False, 64, (0.1, 0.2)),
    CaseResult("case", "{}", 1.0, 1.0, 0.0, 1e-9),
    RMatrixValue(1.0, 2.0, 0.1, 0.2, 0.0625, np.zeros((4, 4))),
    BracketReport(1e-4, 1.0, 1.0, 400),
    IdentityReport(1.0, 1.0),
    SplittingReport((0j, 0j), (0j, 0j), (0j, 0j), (0j, 0j), 64, 1024),
    HamShiftReport(0.0, 0.0, 0.0),
    ChargeLedger("space", {1: 0j}),
    GeneratingRelationReport((0, 0), []),
    ScenarioConfig.from_dict({"schema": 1, "spectral": {"lambda_list": [1.0]}, "suites": ["lax-residual"]}),
    geometry(30.0),
    Solution("vacuum", make_vacuum(P11), DefectPair(make_vacuum(P11), make_vacuum(P11), P11, DefectParams(2.0))),
    DefectPair(make_vacuum(P11), make_vacuum(P11), P11, DefectParams(2.0)),
    P11,
    DefectParams(2.0),
    GridWindow(1.0, 3),
]


@pytest.mark.parametrize("record", FROZEN, ids=lambda record: type(record).__name__)
def test_records_refuse_assignment(record):
    first = next(iter(inspect.signature(type(record)).parameters))
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelParams(0.0, 1.0),
        lambda: ModelParams(1.0, 0.0),
        lambda: DefectParams(0.0),
        lambda: GridWindow(1.0, 4),
        lambda: GridWindow(1.0, 1),
        lambda: GridWindow(1.0, 3.0),
        lambda: GridWindow(0.0, 3),
        lambda: GridWindow(-1.0, 3),
        lambda: GridWindow(math.inf, 3),
        lambda: GridWindow(math.nan, 3),
        lambda: GridWindow(1.0, MAX_POINTS + 1),  # refused before axis() could allocate it
    ],
)
def test_validated_records_keep_their_value_errors(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "record, change",
    [(P11, {"m": math.nan}), (DefectParams(2.0), {"sigma": 0.0}), (GridWindow(1.0, 3), {"count": 2})],
    ids=["ModelParams", "DefectParams", "GridWindow"],
)
def test_validated_records_validate_a_replaced_field(record, change):
    with pytest.raises(ValueError):
        record._replace(**change)
    assert type(record._replace()) is type(record) and record._replace() == record


def test_report_and_config_survive_a_pickle_round_trip():
    report = Report("charges", timing=0.25, metadata={"note": "kept"})
    report.add("I-drift-n=1", {"order": 1}, 1.0, 1.0 + 1e-12, 1e-12, 1e-6)
    back = pickle.loads(pickle.dumps(report))
    assert (back.suite, back.cases, back.timing, back.metadata) == (report.suite, report.cases, report.timing, report.metadata)
    assert type(back.cases[0]) is CaseResult and back.passed
    config = ScenarioConfig.load(ROOT / "demos" / "scenario_kink.json")
    back = pickle.loads(pickle.dumps(config))
    assert type(back) is ScenarioConfig and type(back.params) is ModelParams
    # the field objects compare by identity, so they are compared by type and attributes
    assert back._replace(solution=None) == config._replace(solution=None)
    assert (back.solution.kind, back.solution.pair[2:]) == (config.solution.kind, config.solution.pair[2:])
    fields = lambda c: (c.solution.field, c.solution.pair.left, c.solution.pair.right)
    for got, want in zip(fields(back), fields(config), strict=True):
        assert type(got) is type(want) and vars(got) == vars(want)
