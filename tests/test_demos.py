"""Each demo script prints exactly the output committed under tests/data/demos/.

The committed files were made by running the scripts; a change that moves any
printed digit shows up here as a diff of the whole output.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_prints_its_committed_output(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    assert out.getvalue() == (EXPECTED / f"{script.stem}.txt").read_text()
