"""Benchmark of mellin-polar: one workload per run, in a fresh interpreter.

    python3 benchmark/run.py --workload series-point --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
Each run is a closed loop with one client: it repeats the workload's seeded
round of jobs until ``--seconds`` have passed, one job at a time, then checks
every output against references computed apart from the library.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, from wrapped calls.
"""

from __future__ import annotations

import os

# one thread for every numeric library, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3        # before the timed loop, and as many again after it
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 120.0
P90_MIN_JOBS = 100

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("series-point", "series-grid", "contour-residue", "cli-run"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def make_workload(args, out_dir: Path):
    from workloads import WORKLOADS, CliRun
    cls = WORKLOADS[args.workload]
    if cls is CliRun:
        return cls(args.seed, root=ROOT, env=child_env(), out_dir=out_dir)
    return cls(args.seed)


def set_up(workload, tracer):
    """Import the library, build the workload's inputs and warm them up."""
    import mellin_polar as mp
    from tracing import CALL_SPANS

    calls = {attr: getattr(mp, attr) for attr in CALL_SPANS if hasattr(mp, attr)}
    calls["sample_set"] = mp.SampleSet.from_member
    if tracer is not None:
        calls = {attr: tracer.call(attr, fn) for attr, fn in calls.items()}
    prepared = workload.build(mp, types.SimpleNamespace(**calls), tracer)
    workload.warm_up(prepared)
    return prepared


def probe_seconds(args, kind: str, count: int) -> list[float]:
    """Times of ``count`` fresh interpreters, one after another.

    kind "setup": from spawning to the "ready" line, which the probe prints
    once it has imported the library, built the inputs and warmed up.
    kind "import": the time of ``import mellin_polar`` the probe reports.
    """
    from workloads import run_child
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--probe", kind]
    times = []
    for _ in range(count):
        marks = []
        start = perf_counter()
        status, output, _ = run_child(argv, child_env(), ROOT, PROBE_TIMEOUT_S,
                                      on_first_line=lambda: marks.append(perf_counter()))
        if status != 0 or not marks:
            raise RuntimeError(f"{kind} probe failed ({status}): {output[-500:]}")
        times.append(marks[0] - start if kind == "setup" else float(output.split()[0]))
    return times


def timed_loop(workload, prepared, seconds: float, run):
    """Whole rounds until ``seconds`` have passed; per-job latency and output."""
    latencies, rounds, failed = [], [], 0
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    while True:
        outs = []
        for job in prepared:
            t0 = perf_counter()
            try:
                out = run(job)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                out = exc
            latencies.append(perf_counter() - t0)
            outs.append(out)
        rounds.append(outs)
        if perf_counter() >= deadline and len(rounds) >= workload.min_rounds:
            break
    return perf_counter() - start, latencies, rounds, failed


def verify(workload, refs, rounds) -> list[str]:
    """Independent checks on the first round; later rounds must repeat it."""
    problems = []
    for i, (spec, ref) in enumerate(zip(workload.jobs, refs)):
        first = rounds[0][i]
        if isinstance(first, Exception):
            continue
        problems += [f"job {i} ({spec['kind']}): {m}" for m in workload.check(spec, ref, first)]
        key = workload.repeat_key(first)
        for r, outs in enumerate(rounds[1:], start=1):
            if not isinstance(outs[i], Exception) and workload.repeat_key(outs[i]) != key:
                problems.append(f"job {i} ({spec['kind']}): round {r} differs from round 0")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mellin_polar" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'mellin_polar'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe == "import":
        t0 = perf_counter()
        import mellin_polar  # noqa: F401
        print(perf_counter() - t0, flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir: Path) -> int:
    workload = make_workload(args, out_dir)
    if args.probe == "setup":
        set_up(workload, None)
        print("ready", flush=True)
        return 0

    refs = workload.oracles()                  # outside every timed interval
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    prepared = set_up(workload, tracer)
    job = workload.run if tracer is None else tracer.span("job", workload.run)

    if tracer is None:
        setup = probe_seconds(args, "setup", SETUP_PROBES)
    else:
        imports = probe_seconds(args, "import", IMPORT_PROBES)
        tracer.reset()                         # forget the warm-up
    elapsed, latencies, rounds, failed = timed_loop(workload, prepared, args.seconds, job)
    if tracer is None:                         # set-up samples from both ends of the run
        setup += probe_seconds(args, "setup", SETUP_PROBES)
    problems = verify(workload, refs, rounds)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)

    jobs = len(latencies)
    p50 = statistics.median(latencies) * 1e3
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{jobs} jobs in {elapsed:.3f} s, {jobs / elapsed:.4g} jobs/s, p50 {p50:.4g} ms")
    if jobs >= P90_MIN_JOBS:
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
        print(f"job_p90_ms {p90:.6g} over {jobs} jobs")

    if tracer is None:
        rss_kb = workload.peak_rss_kb()
        if rss_kb is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": statistics.median(setup), "jobs_per_s": jobs / elapsed,
                  "job_p50_ms": p50, "peak_rss_mb": rss_kb / 1024.0}
        units = dict(END_TO_END)
    else:
        from tracing import PER_LAYER
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics(jobs, statistics.median(imports))
        units = dict(PER_LAYER)

    result = {"correct": not problems, "attempted": jobs, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
