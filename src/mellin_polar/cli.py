"""Experiment front end: reproducible sweeps emitting deterministic CSV.

Subcommands: ``run``, ``list-functions``, ``version``.  Experiments echo
their full configuration into a ``#``-prefixed header, serialize floats in
shortest round-trip form, and exit nonzero iff any row failed its contract,
so identical configs produce byte-identical artifacts suitable for diffing.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .contours import (
    LogRectangle,
    QuadratureSpec,
    boas_kernel,
    cauchy_value,
    residue_theorem_check,
)
from .core import DomainError, PolarPoint, PreconditionError, ToleranceNotMetError
from .functions import function_registry
from .sampling import (
    SampleSet,
    bernstein_check,
    boas_derivative,
    fourier_valiron_derivative,
    theta_oracle,
    valiron_derivative,
    valiron_reconstruct,
)

CSV_SCHEMA = "mellin-polar-csv v2"

EXPERIMENTS = ("boas-convergence", "valiron-convergence", "reconstruct",
               "contour-cauchy", "residue-defect", "bernstein", "fourier-demo")

# truncation defaults when --n is not given; bernstein's matches the
# epsilon = 1e-3 slack budget of the ratio contract
_DEFAULT_N = {
    "boas-convergence": (2, 4, 8, 16, 32, 64),
    "valiron-convergence": (2, 4, 8, 16, 32, 64),
    "reconstruct": (256,),
    "contour-cauchy": (1,),
    "residue-defect": (1,),
    "bernstein": (500,),
    "fourier-demo": (8, 32, 128),
}

_ROUNDING = 1e-12  # rounding allowance on top of the reconstruction bound, times C_f


class UsageError(ValueError):
    """Invalid configuration; carries the offending field name."""


@dataclass
class ExperimentConfig:
    experiment: str
    function: str = "mellin-sine"
    c: float = 0.0
    T: float = 1.0
    a: complex = 1.0 + 0j
    t_shift: Optional[float] = None
    alpha: float = 0.5
    point: tuple[float, float] = (1.0, 0.0)
    theta: float = 0.0
    n_list: Optional[tuple[int, ...]] = None  # experiment-specific default
    r_grid: tuple[float, float, int] = (0.5, 2.0, 16)
    tol: float = 1e-9
    n_rect: int = 1
    w: float = 1.0
    w0: float = 0.7
    x: float = 0.0
    out: Optional[str] = None
    timing: bool = False

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"experiment: unknown id {self.experiment!r}")
        if self.n_list is None:
            self.n_list = _DEFAULT_N[self.experiment]
        if not self.n_list:
            raise UsageError("n: at least one value required")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise UsageError("n: list must be strictly increasing")
        for opt in _OPTIONS:
            value = getattr(self, opt.field)
            parts = value if isinstance(value, tuple) else (value,)
            if not all(cmath.isfinite(v) for v in parts if isinstance(v, (float, complex))):
                raise UsageError(f"{opt.key}: must be finite")
        if self.tol <= 0:
            raise UsageError("tol: must be positive")
        lo, hi, count = self.r_grid
        if not (0 < lo < hi) or count < 1:
            raise UsageError("r-grid: need 0 < lo < hi and count >= 1")

    def echo_items(self) -> list[tuple[str, str]]:
        """The ``# config:`` items; written back as a config file they
        rebuild this configuration."""
        return [("experiment", self.experiment)] + [
            (opt.key, opt.show(getattr(self, opt.field))) for opt in _OPTIONS if opt.show]


@dataclass
class ResultRow:
    """One experiment row; ``error`` is recomputed at write time."""

    experiment: str
    inputs: str
    value: complex
    oracle: Optional[complex]
    apriori_bound: Optional[float]
    passed: bool
    wall_time: float = 0.0

    @property
    def abs_error(self) -> Optional[float]:
        if self.oracle is None:
            return None
        return abs(self.value - self.oracle)


def _fmt(v) -> str:
    """Shortest round-trip decimal form (repr semantics) for scalars."""
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _opt(v) -> str:
    return "" if v is None else _fmt(v)


# ---------------------------------------------------------------------------
# experiment runners (each returns rows; contracts decide the exit status)
# ---------------------------------------------------------------------------

def _build_member(cfg: ExperimentConfig, bernstein: bool = False):
    for entry in function_registry():
        if entry.ident == cfg.function:
            member = entry.build(c=cfg.c, T=cfg.T, a=cfg.a, t_shift=cfg.t_shift,
                                 alpha=cfg.alpha)
            if bernstein and not hasattr(member, "weighted_profile"):
                raise UsageError("function: this experiment needs a Bernstein member")
            return member
    raise UsageError(f"function: unknown id {cfg.function!r}")


def _run_derivative_convergence(cfg: ExperimentConfig, which: str) -> list[ResultRow]:
    member = _build_member(cfg, bernstein=True)
    if which == "valiron" and min(cfg.n_list) < 2:
        raise UsageError("n: the Valiron-derived series needs n >= 2")
    p = PolarPoint(*cfg.point)
    oracle = theta_oracle(member, p)
    rows = []
    for n in cfg.n_list:
        start = time.perf_counter()
        if which == "boas":
            rep = boas_derivative(member, p, n)
        else:
            rep = valiron_derivative(member, p, n)
        err = abs(rep.value - oracle)
        rows.append(ResultRow(
            experiment=cfg.experiment, inputs=f"n={n}", value=rep.value,
            oracle=oracle, apriori_bound=rep.apriori_bound,
            passed=err <= rep.apriori_bound,
            wall_time=time.perf_counter() - start))
    return rows


def _run_reconstruct(cfg: ExperimentConfig) -> list[ResultRow]:
    member = _build_member(cfg, bernstein=True)
    lo, hi, count = cfg.r_grid
    radii = np.exp(np.linspace(math.log(lo), math.log(hi), count))
    rows = []
    for n in cfg.n_list:
        samples = SampleSet.from_member(member, n)
        for r in radii:
            start = time.perf_counter()
            rep = valiron_reconstruct(samples, float(r), n)
            oracle = complex(member.weighted_profile(math.log(r), 0.0))
            err = abs(rep.value - oracle)
            rows.append(ResultRow(
                experiment=cfg.experiment, inputs=f"n={n} r={_fmt(float(r))}",
                value=rep.value, oracle=oracle, apriori_bound=rep.apriori_bound,
                passed=err <= rep.apriori_bound + _ROUNDING * samples.growth_constant,
                wall_time=time.perf_counter() - start))
    return rows


def _run_contour_cauchy(cfg: ExperimentConfig) -> list[ResultRow]:
    member_or_fn = _build_member(cfg)
    f = getattr(member_or_fn, "f", member_or_fn)
    rect = LogRectangle(-1.0, 1.0, -1.0, 1.0)
    gamma = rect.boundary()
    q = QuadratureSpec(tol=cfg.tol)
    # deterministic interior points on a golden-angle chart lattice
    pts = []
    for i in range(10):
        u = (0.5 + i * 0.6180339887498949) % 1.0
        v = (0.5 + i * 0.7548776662466927) % 1.0
        pts.append(complex(-0.8 + 1.6 * u, -0.8 + 1.6 * v))
    rows = []
    for zeta in pts:
        p0 = PolarPoint(math.exp(zeta.real), zeta.imag)
        start = time.perf_counter()
        got = cauchy_value(f, gamma, p0, q)
        want = f(p0)
        rows.append(ResultRow(
            experiment=cfg.experiment,
            inputs=f"r0={_fmt(p0.r)} theta0={_fmt(p0.theta)}",
            value=got, oracle=want, apriori_bound=None,
            passed=abs(got - want) <= max(1e-8, 100.0 * cfg.tol),
            wall_time=time.perf_counter() - start))
    return rows


def _run_residue_defect(cfg: ExperimentConfig) -> list[ResultRow]:
    built = _build_member(cfg)
    base = getattr(built, "f", built)
    start = time.perf_counter()
    F, gamma, poles = boas_kernel(base, T=cfg.T, n_rect=cfg.n_rect)
    q = QuadratureSpec(tol=cfg.tol)
    defect = residue_theorem_check(F, gamma, poles, cfg.c, q)
    row = ResultRow(
        experiment=cfg.experiment,
        inputs=f"n-rect={cfg.n_rect} c={_fmt(cfg.c)}",
        value=complex(defect), oracle=0.0 + 0j, apriori_bound=10.0 * cfg.tol,
        passed=defect <= 10.0 * cfg.tol,
        wall_time=time.perf_counter() - start)
    return [row]


def _run_bernstein(cfg: ExperimentConfig) -> list[ResultRow]:
    member = _build_member(cfg, bernstein=True)
    start = time.perf_counter()
    n = max(cfg.n_list)
    ratio = bernstein_check(member, theta=cfg.theta, n=n)
    row = ResultRow(
        experiment=cfg.experiment, inputs=f"theta={_fmt(cfg.theta)} n={n}",
        value=complex(ratio), oracle=None, apriori_bound=member.T * (1.0 + 1e-3),
        passed=ratio <= member.T * (1.0 + 1e-3),
        wall_time=time.perf_counter() - start)
    return [row]


def _run_fourier_demo(cfg: ExperimentConfig) -> list[ResultRow]:
    w, w0, x = cfg.w, cfg.w0 * cfg.w, cfg.x
    g = lambda t: complex(math.cos(w0 * t), math.sin(w0 * t))
    oracle = 1j * w0 * g(x)
    rows = []
    for n in cfg.n_list:
        start = time.perf_counter()
        val = fourier_valiron_derivative(g, w, x, n)
        bound = 2.0 * w / (math.pi * (8.0 * n * n - 2.0))  # truncation bound for |g| <= 1
        if not math.isfinite(bound):
            raise DomainError(f"fourier-demo: the truncation bound at w={_fmt(w)} overflows")
        rows.append(ResultRow(
            experiment=cfg.experiment, inputs=f"n={n}", value=val, oracle=oracle,
            apriori_bound=bound, passed=abs(val - oracle) <= bound,
            wall_time=time.perf_counter() - start))
    return rows


_RUNNERS: dict[str, Callable[[ExperimentConfig], list[ResultRow]]] = {
    "boas-convergence": lambda cfg: _run_derivative_convergence(cfg, "boas"),
    "valiron-convergence": lambda cfg: _run_derivative_convergence(cfg, "valiron"),
    "reconstruct": _run_reconstruct,
    "contour-cauchy": _run_contour_cauchy,
    "residue-defect": _run_residue_defect,
    "bernstein": _run_bernstein,
    "fourier-demo": _run_fourier_demo,
}


# ---------------------------------------------------------------------------
# CSV artifact
# ---------------------------------------------------------------------------

def _write_csv(path: Optional[str], cfg: ExperimentConfig, rows: list[ResultRow]) -> str:
    lines = [f"# {CSV_SCHEMA}"]
    echo = " ".join(f"{k}={v}" for k, v in cfg.echo_items())
    lines.append(f"# config: {echo}")
    header = ["experiment", "inputs", "value_re", "value_im", "oracle_re",
              "oracle_im", "abs_error", "apriori_bound"]
    if cfg.timing:
        header.append("wall_time_s")
    lines.append(",".join(header))
    for row in rows:
        cells = [row.experiment, row.inputs,
                 _fmt(row.value.real), _fmt(row.value.imag),
                 _opt(None if row.oracle is None else row.oracle.real),
                 _opt(None if row.oracle is None else row.oracle.imag),
                 _opt(row.abs_error), _opt(row.apriori_bound)]
        if cfg.timing:
            cells.append(_fmt(row.wall_time))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    return text


def run_experiment(cfg: ExperimentConfig) -> tuple[int, list[ResultRow], str]:
    """Execute one experiment; returns (exit_status, rows, csv_text)."""
    cfg.validate()
    rows = _RUNNERS[cfg.experiment](cfg)
    text = _write_csv(cfg.out, cfg, rows)
    failures = sum(1 for r in rows if not r.passed)
    errors = [r.abs_error for r in rows if r.abs_error is not None]
    max_err = max(errors) if errors else 0.0
    print(f"{cfg.experiment}: rows={len(rows)} max_error={_fmt(float(max_err))} "
          f"contract_violations={failures}")
    return (0 if failures == 0 else 1), rows, text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Parsers raise ValueError; build_config names the option in the message.

def _parse_point(text: str) -> tuple[float, float]:
    r, theta = text.split(",")
    return float(r), float(theta)


def _parse_n_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_r_grid(text: str) -> tuple[float, float, int]:
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _optional_float(text: str) -> Optional[float]:
    """The inverse of ``_opt``: empty text is None (unset)."""
    return None if text == "" else float(text)


class _Option(NamedTuple):
    key: str    # --key on the command line; key= in a config file and the CSV header
    field: str  # the ExperimentConfig attribute
    parse: Callable[[str], object]
    show: Optional[Callable[[object], str]]  # header formatter; None: not echoed


_OPTIONS = (
    _Option("function", "function", str, str),
    _Option("c", "c", float, _fmt),
    _Option("T", "T", float, _fmt),
    _Option("a", "a", _parse_complex, _fmt),
    _Option("t-shift", "t_shift", _optional_float, _opt),
    _Option("alpha", "alpha", float, _fmt),
    _Option("point", "point", _parse_point, lambda v: ",".join(map(_fmt, v))),
    _Option("theta", "theta", float, _fmt),
    _Option("n", "n_list", _parse_n_list, lambda v: ",".join(map(_fmt, v))),
    _Option("r-grid", "r_grid", _parse_r_grid, lambda v: ":".join(map(_fmt, v))),
    _Option("tol", "tol", float, _fmt),
    _Option("n-rect", "n_rect", int, str),
    _Option("w", "w", float, _fmt),
    _Option("w0", "w0", float, _fmt),
    _Option("x", "x", float, _fmt),
    _Option("out", "out", str, None),
)
_OPTION_BY_KEY = {opt.key: opt for opt in _OPTIONS}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"config: cannot read {path!r}: {exc}")
    for ln, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config: line {ln} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(experiment: str, flag_values: dict[str, object],
                 config_path: Optional[str] = None) -> ExperimentConfig:
    """Merge config-file values and flags; flags win."""
    cfg = ExperimentConfig(experiment=experiment)
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            if key == "experiment":
                continue
            opt = _OPTION_BY_KEY.get(key)
            if opt is None:
                raise UsageError(f"config: unknown key {key!r}")
            try:
                setattr(cfg, opt.field, opt.parse(raw))
            except ValueError as exc:
                raise UsageError(f"{key}: {exc}") from None
    for key, value in flag_values.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def list_functions() -> str:
    lines = ["available functions (stable order):"]
    for entry in function_registry():
        params = ", ".join(entry.params) if entry.params else "none"
        lines.append(f"  {entry.ident:20s} params: {params}")
        lines.append(f"  {'':20s} {entry.summary}")
        lines.append(f"  {'':20s} note: {entry.note}")
    return "\n".join(lines)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mellin-polar",
        description="Reproducible experiments over the polar Mellin calculus library.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment and emit CSV")
    runp.add_argument("experiment", choices=EXPERIMENTS)
    for opt in _OPTIONS:
        runp.add_argument("--" + opt.key, dest=opt.field, type=opt.parse, default=None)
    runp.add_argument("--config", default=None)
    runp.add_argument("--timing", action="store_true", default=None,
                      help="append wall-clock column (breaks byte determinism)")

    sub.add_parser("list-functions", help="print the function registry")
    sub.add_parser("version", help="print the version")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-functions":
            print(list_functions())
            return 0
        if args.command == "version":
            print(f"mellin-polar {__version__}")
            return 0
        flags = {opt.field: getattr(args, opt.field) for opt in _OPTIONS}
        flags["timing"] = args.timing
        cfg = build_config(args.experiment, flags, args.config)
        with np.errstate(over="ignore", invalid="ignore"):  # the library refuses non-finite values
            status, _, _ = run_experiment(cfg)
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, DomainError, ToleranceNotMetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
