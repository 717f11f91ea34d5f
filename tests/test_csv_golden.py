"""The contour CSVs stay byte-identical to the checked-in golden files.

A change that moves a row regenerates the file with
``mellin-polar run <experiment> --function <function> --out
tests/golden/<experiment>_<function>.csv`` and lists the row in CHANGES.md.
"""

from pathlib import Path

import pytest

from mellin_polar.cli import main

GOLDEN = Path(__file__).parent / "golden"
FUNCTIONS = ("mellin-sine", "translated-sine", "theta-shifted-sine", "power", "lin")


@pytest.mark.parametrize("function", FUNCTIONS)
@pytest.mark.parametrize("experiment", ["contour-cauchy", "residue-defect"])
def test_csv_matches_golden(experiment, function, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", experiment, "--function", function, "--out", str(out)]) == 0
    capsys.readouterr()
    got = out.read_bytes()
    want = (GOLDEN / f"{experiment}_{function}.csv").read_bytes()
    if got != want:
        got_rows, want_rows = got.decode().splitlines(), want.decode().splitlines()
        moved = [f"line {i + 1}:\n  golden: {w}\n  now:    {g}"
                 for i, (w, g) in enumerate(zip(want_rows, got_rows)) if w != g]
        if len(got_rows) != len(want_rows):
            moved.append(f"{len(want_rows)} golden lines, {len(got_rows)} now")
        pytest.fail("CSV differs from the golden file:\n" + "\n".join(moved))
