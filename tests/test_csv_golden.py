"""Every run of the CLI experiment matrix stays byte-identical to tests/golden/.

The matrix is the seven experiments x the six registry functions x two flag
sets, the defaults and ``VARIED``, less the two sine-blend ``bernstein``
runs (about 27 s each).  For each run ``tests/golden/runs.txt`` holds the
exit status and what the run printed: the stdout summary line when it wrote
a CSV, else its stderr message (the usage message of an exit-2 run).  The
CSV bytes are in ``tests/golden/<run>.csv``.

A change that moves a row regenerates every file with

    PYTHONPATH=src python tests/test_csv_golden.py

and lists the moved rows in CHANGES.md.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from mellin_polar.cli import EXPERIMENTS, main
from mellin_polar.functions import function_registry

GOLDEN = Path(__file__).parent / "golden"
INDEX = GOLDEN / "runs.txt"
VARIED = ["--c", "0.3", "--T", "1.7", "--a", "0.2+0.1j", "--alpha=-0.3",
          "--t-shift", "1.3", "--point", "1.4,0.2", "--n-rect", "2"]
FLAG_SETS = {"": [], "_varied": VARIED}
RUNS = {f"{experiment}_{entry.ident}{suffix}": [experiment, "--function", entry.ident, *flags]
        for suffix, flags in FLAG_SETS.items()
        for experiment in EXPERIMENTS
        for entry in function_registry()
        if (experiment, entry.ident) != ("bernstein", "sine-blend")}


def run(name, out_dir):
    """(exit status, printed message, CSV bytes or None) of one matrix run."""
    out = Path(out_dir) / f"{name}.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(["run", *RUNS[name], "--out", str(out)])
    message = (stdout.getvalue() or stderr.getvalue()).strip()
    return status, message, out.read_bytes() if out.exists() else None


def read_index():
    index = {}
    for line in INDEX.read_text(encoding="utf-8").splitlines():
        name, status, message = line.split("\t")
        index[name] = (int(status), message)
    return index


def test_index_lists_every_run():
    assert sorted(read_index()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, tmp_path):
    status, message, got = run(name, tmp_path)
    differs = []
    if (status, message) != read_index()[name]:
        differs.append(f"golden: {read_index()[name]}\nnow:    {(status, message)}")
    golden = GOLDEN / f"{name}.csv"
    want = golden.read_bytes() if golden.exists() else None
    if got != want:
        got_rows = [] if got is None else got.decode().splitlines()
        want_rows = [] if want is None else want.decode().splitlines()
        differs += [f"line {i + 1}:\n  golden: {w}\n  now:    {g}"
                    for i, (w, g) in enumerate(zip(want_rows, got_rows)) if w != g]
        if len(got_rows) != len(want_rows):
            differs.append(f"{len(want_rows)} golden lines, {len(got_rows)} now")
    if differs:
        pytest.fail("the run differs from its golden files:\n" + "\n".join(differs))


if __name__ == "__main__":
    for stale in GOLDEN.glob("*.csv"):
        stale.unlink()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            status, message, csv = run(name, tmp)
            if csv is not None:
                (GOLDEN / f"{name}.csv").write_bytes(csv)
            lines.append(f"{name}\t{status}\t{message}\n")
    INDEX.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} runs to {GOLDEN}", file=sys.stderr)
