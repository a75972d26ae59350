"""Fuzzed scenario configs: the CLI answers 0, 1 or 2 and never raises."""

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from sgdual.cli import run  # noqa: E402

KINK = {
    "schema": 1,
    "model": {"m": 1.0, "beta": 1.0},
    "solution": {"kind": "kink", "v": 0.4, "x0": 0.0, "orientation": 1},
    "spectral": {"lambda_list": [0.5, 2.0]},
    "numerics": {"half_width": 30.0, "tolerances": {"lax_residual": 1e-5}},
    "suites": ["lax-residual", "monodromy-conservation"],
}

# every place a mutation may land: a section and a key in it, or a whole section
PATHS = [
    ("schema",), ("model",), ("model", "m"), ("model", "beta"), ("solution",), ("solution", "kind"),
    ("solution", "v"), ("solution", "x0"), ("solution", "orientation"), ("solution", "sigma"),
    ("spectral",), ("spectral", "lambda_list"), ("spectral", "sweep"), ("numerics",),
    ("numerics", "half_width"), ("numerics", "tolerances"), ("numerics", "tolerances", "lax_residual"),
    ("numerics", "grid"), ("extra",),
]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 0.999999, 1e20, 10**400]), st.text(max_size=4),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["min", "max", "count", "kind", "v", "m"]), inner, max_size=3),
    ),
    max_leaves=6,
)
mutations = st.lists(st.tuples(st.sampled_from(PATHS), values, st.booleans()), max_size=3)


def _mutate(data, path, value, delete):
    node = data
    for name in path[:-1]:
        if not isinstance(node.get(name), dict):
            return
        node = node[name]
    if delete:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(mutations)
@example([(("numerics", "half_width"), 5.0, False)])  # no vacuum at t = +-5: monodromy-conservation raises
def test_mutated_kink_configs_exit_0_1_or_2(edits):
    data = json.loads(json.dumps(KINK))
    for path, value, delete in edits:
        _mutate(data, path, value, delete)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        assert run(path, Path(tmp) / "rep", "csv") in (0, 1, 2)
