"""Spans and counts of the calls the benchmark makes into the library.

Tracing happens only from the benchmark's side of the interface: the
public functions a workload calls are wrapped, and so are the evaluators it
hands in (a member's ``weighted_profile``, the ``log_fn`` of a function given
to the contour routines).  Those evaluators are *leaves*: only the outermost
one is timed, and its time is charged to the innermost open span, so a
span's self time is its duration minus the leaf time inside it.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# public library call -> span name (the layer metric it feeds)
CALL_SPANS = {
    "boas_derivative": "sampling.series",
    "valiron_derivative": "sampling.series",
    "fourier_valiron_derivative": "sampling.series",
    "bernstein_check": "sampling.bernstein",
    "sample_set": "sampling.sampleset",
    "valiron_reconstruct": "sampling.reconstruct",
    "valiron_lin_form": "sampling.lin_form",
    "cauchy_value": "contours.cauchy",
    "extract_derivative": "contours.cauchy",
    "residue_numeric": "contours.residue",
    "residue_theorem_check": "contours.residue",
    "boas_kernel": "contours.kernel_build",
    "higher_mellin_derivative": "core.derivative",
    "residue_from_factor": "core.derivative",
    "run_experiment": "cli.run_experiment",
}

# the series' truncation argument n is its number of symmetric blocks
_SERIES_N_ARG = {"boas_derivative": 2, "valiron_derivative": 2,
                 "fourier_valiron_derivative": 3}

PER_LAYER = (
    ("functions.profile_calls", "count"),
    ("functions.profile_points", "count"),
    ("functions.profile_s", "s"),
    ("sampling.series_s", "s"),
    ("sampling.series_self_s", "s"),
    ("sampling.series_blocks", "count"),
    ("sampling.bernstein_s", "s"),
    ("sampling.sampleset_s", "s"),
    ("sampling.reconstruct_s", "s"),
    ("sampling.lin_form_s", "s"),
    ("contours.quad_calls", "count"),
    ("contours.quad_points", "count"),
    ("contours.integrand_s", "s"),
    ("contours.self_s", "s"),
    ("contours.cauchy_s", "s"),
    ("contours.residue_s", "s"),
    ("contours.kernel_build_s", "s"),
    ("core.derivative_calls", "count"),
    ("core.derivative_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run_experiment_s", "s"),
    ("cli.startup_s", "s"),
)


class Tracer:
    """Collects spans ``[name, start, end, parent, leaf_s]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._in_leaf = False

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay valid)."""
        self.spans.clear()
        self.counts.clear()
        self.leaf_s.clear()
        self._open.clear()

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span."""
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()

        return wrapper

    def call(self, attr: str, fn):
        """Wrap the public library call ``attr`` with its span and counters."""
        name = CALL_SPANS[attr]
        traced = self.span(name, fn)
        n_arg = _SERIES_N_ARG.get(attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if name == "core.derivative":
                counts["core.derivative_calls"] += 1
            if n_arg is not None:
                counts["sampling.series_blocks"] += int(args[n_arg])
            return traced(*args, **kwargs)

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap an evaluator ``fn(x, theta)``; nested leaf calls are not counted."""
        spans, open_, counts, leaf_s = self.spans, self._open, self.counts, self.leaf_s

        def wrapper(x, theta):
            if self._in_leaf:
                return fn(x, theta)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(x, theta)
            finally:
                dt = perf_counter() - start
                self._in_leaf = False
                counts[name + "_calls"] += 1
                counts[name + "_points"] += np.broadcast(x, theta).size
                leaf_s[name] += dt
                if open_:
                    spans[open_[-1]][4] += dt

        return wrapper

    # -- reduction ---------------------------------------------------------

    def _span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        total: dict[str, float] = defaultdict(float)
        inner_leaf: dict[str, float] = defaultdict(float)
        for name, start, end, _, leaf in self.spans:
            total[name] += end - start
            inner_leaf[name] += leaf
        return total, inner_leaf

    def layer_metrics(self, jobs: int, import_s: float) -> dict[str, float]:
        """Every per-layer metric, per job (``cli.import_s`` per import)."""
        total, inner = self._span_totals()
        c = self.counts
        contour_calls = total["contours.cauchy"] + total["contours.residue"]
        contour_leaf = inner["contours.cauchy"] + inner["contours.residue"]
        cli_child = total["cli.child"]
        raw = {
            "functions.profile_calls": c["functions.profile_calls"],
            "functions.profile_points": c["functions.profile_points"],
            "functions.profile_s": self.leaf_s["functions.profile"],
            "sampling.series_s": total["sampling.series"],
            "sampling.series_self_s": total["sampling.series"] - inner["sampling.series"],
            "sampling.series_blocks": c["sampling.series_blocks"],
            "sampling.bernstein_s": total["sampling.bernstein"],
            "sampling.sampleset_s": total["sampling.sampleset"],
            "sampling.reconstruct_s": total["sampling.reconstruct"],
            "sampling.lin_form_s": total["sampling.lin_form"],
            "contours.quad_calls": c["contours.integrand_calls"],
            "contours.quad_points": c["contours.integrand_points"],
            "contours.integrand_s": self.leaf_s["contours.integrand"],
            "contours.self_s": contour_calls - contour_leaf,
            "contours.cauchy_s": total["contours.cauchy"],
            "contours.residue_s": total["contours.residue"],
            "contours.kernel_build_s": total["contours.kernel_build"],
            "core.derivative_calls": c["core.derivative_calls"],
            "core.derivative_s": total["core.derivative"],
            "cli.run_experiment_s": total["cli.run_experiment"],
            "cli.startup_s": (cli_child - total["cli.run_experiment"]) if cli_child else 0.0,
        }
        out = {name: value / jobs for name, value in raw.items()}
        out["cli.import_s"] = import_s
        return {name: out[name] for name, _ in PER_LAYER}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, leaf_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
