"""The benchmark's checks accept the library's outputs and reject each output
moved just past its tolerance.

    python3 -m pytest -q -p no:cacheprovider benchmark/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from run import set_up, verify  # noqa: E402

SEED = 7


def first_of_each(workload) -> list[int]:
    seen: dict[str, int] = {}
    for i, spec in enumerate(workload.jobs):
        seen.setdefault(spec["kind"], i)
    return sorted(seen.values())


# ---------------------------------------------------------------------------
# the check primitives at their edges
# ---------------------------------------------------------------------------

def test_close_edges():
    assert checks.close("x", 1.0 + 0.999e-6, 1.0, 1e-6) == []
    assert checks.close("x", 1.0 + 1.001e-6, 1.0, 1e-6)
    assert checks.close("x", complex(math.nan, 0.0), 1.0, 1.0)
    assert checks.close("x", None, 1.0, 1.0)
    assert checks.close_rel("x", 100.0 * (1 + 0.99e-8), 100.0, 1e-8) == []
    assert checks.close_rel("x", 100.0 * (1 + 1.01e-8), 100.0, 1e-8)


def test_bound_edges():
    bound = 1e-3
    assert checks.within_bound("s", 0.5 + 0.99 * bound, 0.5, bound, bound) == []
    assert checks.within_bound("s", 0.5 + 1.01 * bound, 0.5, bound, bound)
    # a reported bound looser than ours by a relative 1e-9 is rejected
    assert checks.within_bound("s", 0.5, 0.5, bound * (1 + 1e-9), bound)
    assert checks.at_most("d", 1e-8, 1e-8) == []
    assert checks.at_most("d", 1.0001e-8, 1e-8)
    assert checks.at_most("d", math.nan, 1e-8)
    assert checks.bernstein_ratio(2.0 + 0.99e-3, 2.0, 1e-3) == []
    assert checks.bernstein_ratio(2.0 + 1.01e-3, 2.0, 1e-3)
    assert checks.bernstein_ratio(0.0, 2.0, 1e-3)


def test_reconstruct_bound_is_sound_and_near_tight():
    # With ring samples s_k = (-1)^k C_f every omitted term of the
    # reconstruction has one sign, the worst case the bound is derived for.
    x, n = 1.3, 16
    tail = abs(sum(x * math.sin(x) * (-1) ** (k + 1) * (-1) ** k
                   / (k * math.pi * (k * math.pi - x))
                   for kk in range(n + 1, 200000) for k in (kk, -kk)))
    bound = orc.reconstruct_bound(1.0, x, n)
    assert 0.95 * bound <= tail <= bound


# ---------------------------------------------------------------------------
# each workload's check on real outputs, then on perturbed ones
# ---------------------------------------------------------------------------

def test_series_point_checks_bite():
    w = wl.SeriesPoint(SEED)
    refs, prepared = w.oracles(), set_up(w, None)
    for i in first_of_each(w):
        spec, ref = w.jobs[i], refs[i]
        ladder, fourier = w.run(prepared[i])
        assert w.check(spec, ref, (ladder, fourier)) == []
        oracle = ref[1]
        bv, bb, vv, vb = ladder[-1]
        for last in ((oracle + 1.01 * bb, bb, vv, vb), (bv, bb, oracle - 1.01j * vb, vb),
                     (bv, bb * (1 + 1e-9), vv, vb), (bv, bb, vv, vb * (1 - 1e-9))):
            assert w.check(spec, ref, (ladder[:-1] + (last,), fourier)), spec["kind"]
        tone_bound = orc.fourier_bound(spec["tone"][0], wl.FOURIER_N)
        assert w.check(spec, ref, (ladder, fourier + 2.0 * tone_bound))


def test_series_grid_checks_bite():
    w = wl.SeriesGrid(SEED)
    refs, prepared = w.oracles(), set_up(w, None)
    for i in first_of_each(w):
        spec, ref = w.jobs[i], refs[i]
        ratio, rows = w.run(prepared[i])
        assert w.check(spec, ref, (ratio, rows)) == []
        member_ref, den_lower, recon_ref = ref
        T = member_ref.T
        allowance = orc.boas_bound(member_ref.growth, T, 0.0, spec["bern_theta"], 0.0,
                                   wl.BERNSTEIN_N) / den_lower
        assert w.check(spec, ref, (T + allowance * 1.001 + 1e-12, rows))
        r = spec["radii"][0]
        rec, lin_w, lin_p = rows[0]
        scale = r ** (-spec["c"]) * member_ref.growth
        bound = (orc.reconstruct_bound(member_ref.growth, T * math.log(r), wl.RECON_N)
                 + checks.ROUNDING * member_ref.growth)
        for first in ((recon_ref[0] + 1.01 * bound, lin_w, lin_p),
                      (rec, lin_w + 2 * checks.LIN_REL * scale, lin_p),
                      (rec, lin_w, lin_p - 2j * checks.LIN_REL * scale)):
            assert w.check(spec, ref, (ratio, (first,) + rows[1:])), spec["kind"]


def _bump(v, rel):
    return v + 2.0 * rel * max(1.0, abs(v))


def test_contour_residue_checks_bite():
    w = wl.ContourResidue(SEED)
    refs, prepared = w.oracles(), set_up(w, None)
    for i in first_of_each(w):
        spec, ref = w.jobs[i], refs[i]
        values, extracted, core, residues, defects = out = w.run(prepared[i])
        assert w.check(spec, ref, out) == []
        bad = [
            ((_bump(values[0], checks.CAUCHY_REL), values[1]), extracted, core, residues, defects),
            (values, extracted[:3] + (_bump(extracted[3], checks.EXTRACT_REL),), core,
             residues, defects),
            (values, extracted, core[:-1] + (_bump(core[-1], checks.CORE_REL),), residues,
             defects),
            (values, extracted, core, (_bump(residues[0], checks.RESIDUE_REL), residues[1]),
             defects),
            (values, extracted, core, (residues[0], _bump(residues[1], checks.CORE_REL)),
             defects),
            (values, extracted, core, residues, defects[:2] + (1.01 * 10 * wl.QUAD_TOL,)),
        ]
        for perturbed in bad:
            assert w.check(spec, ref, perturbed), spec["kind"]


def _csv_with_value(csv: bytes, row: int, value: complex) -> bytes:
    lines = csv.decode().splitlines()
    data = [k for k, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[2], cells[3] = repr(value.real), repr(value.imag)
    lines[data[row]] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _cli_tolerance(spec, ref, row) -> float:
    """Half-width of what the check accepts for the CSV row's value."""
    experiment, flags = spec["experiment"], spec["flags"]
    fn, extra = ref
    inputs = dict(part.split("=", 1) for part in row["inputs"].split())
    if experiment.endswith("-convergence"):
        r, th = flags["point"]
        bound = orc.boas_bound if experiment.startswith("boas") else orc.valiron_bound
        return bound(fn.growth, fn.T, math.log(r), th, fn.c, int(inputs["n"]))
    if experiment == "reconstruct":
        x = fn.T * math.log(float(inputs["r"]))
        return orc.reconstruct_bound(fn.growth, x, 256) + checks.ROUNDING * fn.growth
    if experiment == "contour-cauchy":
        return 1e-7
    if experiment == "fourier-demo":
        return orc.fourier_bound(flags["w"], int(inputs["n"]))
    raise ValueError(experiment)


def test_cli_checks_bite():
    import mellin_polar.cli as cli
    w = wl.CliRun(SEED, root=HERE.parent, env={}, out_dir=HERE)
    refs = w.oracles()
    for spec, ref in zip(w.jobs, refs):
        cfg = cli.build_config(spec["experiment"], dict(spec["flags"]))
        with contextlib.redirect_stdout(io.StringIO()):
            status, _, csv = cli.run_experiment(cfg)
        csv = csv.encode()
        assert status == 0
        assert wl.check_cli_csv(spec, ref, csv) == [], spec["experiment"]
        last = checks.parse_csv(csv)[-1]
        experiment = spec["experiment"]
        if experiment == "residue-defect":
            bad = 1.01 * 10 * wl.QUAD_TOL
        elif experiment == "bernstein":
            fn, den_lower = ref
            bad = fn.T + 1.01 * orc.boas_bound(fn.growth, fn.T, 0.0, spec["flags"]["theta"],
                                               0.0, 500) / den_lower
        else:
            want = last["oracle"]
            bad = want + 1.01 * _cli_tolerance(spec, ref, last)
        perturbed = _csv_with_value(csv, -1, complex(bad))
        assert wl.check_cli_csv(spec, ref, perturbed), experiment


def test_cli_summary_and_status_checks_bite():
    w = wl.CliRun(SEED, root=HERE.parent, env={}, out_dir=HERE)
    spec = next(s for s in w.jobs if s["experiment"] == "residue-defect")
    ref = w.oracles()[w.jobs.index(spec)]
    ok = wl.ChildResult(0, "residue-defect: rows=1 max_error=0.0 contract_violations=0\n",
                        b"", 0)
    failed = wl.ChildResult(1, ok.output, b"", 0)
    violated = wl.ChildResult(0, ok.output.replace("=0\n", "=1\n"), b"", 0)
    for child in (failed, violated):
        errs = w.check(spec, ref, (child, None))
        assert any("exit status" in e or "summary" in e for e in errs)


def test_rounds_must_repeat():
    class Fake:
        jobs = [{"kind": "a"}]

        def check(self, spec, ref, out):
            return []

        def repeat_key(self, out):
            return out

    assert verify(Fake(), [None], [[1.0], [1.0]]) == []
    assert verify(Fake(), [None], [[1.0], [1.0 + 1e-16 * 2]])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_rounds_are_seeded(name):
    cls = wl.WORKLOADS[name]
    kwargs = {"root": HERE.parent, "env": {}, "out_dir": HERE} if cls is wl.CliRun else {}
    a, b, c = cls(1, **kwargs), cls(1, **kwargs), cls(2, **kwargs)
    assert a.jobs == b.jobs
    assert a.jobs != c.jobs
    kinds = sorted(s["kind"] for s in a.jobs)
    assert kinds == sorted(s["kind"] for s in c.jobs)   # same mix on every seed
