"""The narrative scripts in demos/ run to the end without a warning."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("demo_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    assert [str(w.message) for w in caught] == []
