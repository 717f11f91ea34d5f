"""The four workloads: seeded jobs, the library calls a job makes, its checks.

A workload draws one *round* of jobs from the seed: a fixed number of jobs
of each kind with seeded parameters, in a seeded order.  A run repeats that
round until its time is up, so every run attempts whole rounds of the same
operations.  Job specs are plain data; ``build`` turns them into library
objects, ``run`` makes a job's calls and returns plain numbers, and
``check`` compares those numbers with the references of ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import oracles as orc

LADDER = (2, 4, 8, 16, 32, 64, 128, 256)   # series-point truncation orders
FOURIER_N = 128
BERNSTEIN_N = 100                           # series-grid Bernstein truncation
BERNSTEIN_GRID = (-3.0, 3.0, 401)
RECON_N = 256
RECON_RADII = 6
QUAD_TOL = 1e-9                             # QuadratureSpec default
N_RECT = (1, 2, 3)
DERIV_ORDERS = 4                            # extract_derivative for k = 0..3
CHILD_TIMEOUT_S = 60.0

MEMBER_KINDS = ("sine-blend", "mellin-sine", "translated-sine",
                "theta-shifted-sine", "power-member")
CONTOUR_KINDS = ("mellin-sine", "translated-sine", "theta-shifted-sine", "power", "lin")
SINE_FUNCTIONS = ("mellin-sine", "translated-sine", "theta-shifted-sine")


def _round(rng: random.Random, kinds, per_kind: int, draw) -> list[dict]:
    jobs = [draw(rng, kind) for _ in range(per_kind) for kind in kinds]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Members: seeded specs, library construction, independent references
# ---------------------------------------------------------------------------

def member_spec(rng: random.Random, kind: str) -> dict:
    T = rng.uniform(1.0, math.pi)
    spec = {"kind": kind, "c": rng.uniform(-1.0, 1.0), "T": T}
    if kind in ("sine-blend", "translated-sine"):
        spec["t"] = math.exp(rng.uniform(0.1, 0.5) / T)
    elif kind == "theta-shifted-sine":
        spec["alpha"] = rng.uniform(-0.5, 0.5)
    elif kind == "power-member":
        spec["b"] = rng.choice((-1.0, 1.0)) * T
    return spec


def build_member(mp, spec: dict):
    kind, c, T = spec["kind"], spec["c"], spec["T"]
    if kind == "sine-blend":
        return mp.mellin_translate(mp.make_sine_blend(c, T), spec["t"])
    if kind == "mellin-sine":
        return mp.make_mellin_sine(c, T)
    if kind == "translated-sine":
        return mp.mellin_translate(mp.make_mellin_sine(c, T), spec["t"])
    if kind == "theta-shifted-sine":
        return mp.theta_shift(mp.make_mellin_sine(c, T), spec["alpha"])
    if kind == "power-member":
        return mp.power_member(c, spec["b"])
    raise ValueError(kind)


def member_reference(spec: dict):
    kind, c, T = spec["kind"], spec["c"], spec["T"]
    if kind == "sine-blend":
        return orc.Profiled("blend", c, T, lt=math.log(spec["t"]), growth=orc.blend_growth())
    if kind == "mellin-sine":
        return orc.Profiled("sin", c, T)
    if kind == "translated-sine":
        return orc.Profiled("sin", c, T, lt=math.log(spec["t"]))
    if kind == "theta-shifted-sine":
        a = spec["alpha"]
        return orc.Profiled("sin", c, T, alpha=a, growth=math.exp(T * abs(a)))
    if kind == "power-member":
        return orc.PowerMember(c, spec["b"])
    raise ValueError(kind)


def traced_member(member, tracer):
    if tracer is not None:
        member.weighted_profile = tracer.leaf("functions.profile", member.weighted_profile)
    return member


class Workload:
    name = ""
    min_rounds = 1


    def __init__(self, seed: int):
        self.seed = seed
        self.jobs = self.make_jobs(random.Random(f"{self.name}:{seed}"))

    def make_jobs(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def oracles(self) -> list:
        raise NotImplementedError

    def build(self, mp, lib, tracer) -> list:
        raise NotImplementedError

    def warm_up(self, prepared: list) -> None:
        raise NotImplementedError

    def run(self, job) -> tuple:
        raise NotImplementedError

    def check(self, spec: dict, ref, out: tuple) -> list[str]:
        raise NotImplementedError

    def repeat_key(self, out):
        """The part of a job's output that must repeat exactly in every round."""
        return out

    def peak_rss_kb(self):
        """Peak RSS of the process doing the work, when it is not this one."""
        return None


# ---------------------------------------------------------------------------
# series-point: the scalar series loops at one point, over an n-ladder
# ---------------------------------------------------------------------------

class SeriesPoint(Workload):
    name = "series-point"

    def make_jobs(self, rng):
        def draw(rng, kind):
            spec = member_spec(rng, kind)
            spec["x"] = rng.uniform(-1.0, 1.0)
            spec["theta"] = rng.uniform(-0.5, 0.5)
            w = rng.uniform(0.5, 2.0)
            spec["tone"] = (w, rng.uniform(0.3, 0.9) * w, rng.uniform(-2.0, 2.0))
            return spec
        return _round(rng, MEMBER_KINDS, 4, draw)

    def oracles(self):
        refs = []
        for s in self.jobs:
            ref = member_reference(s)
            refs.append((ref, ref.theta_power(s["x"], s["theta"], 1)))
        return refs

    def build(self, mp, lib, tracer):
        self.lib = lib
        out = []
        for s in self.jobs:
            member = traced_member(build_member(mp, s), tracer)
            w, w0, x = s["tone"]
            tone = (lambda t, w0=w0: complex(math.cos(w0 * t), math.sin(w0 * t)))
            out.append((member, mp.PolarPoint(math.exp(s["x"]), s["theta"]), tone, w, x))
        return out

    def warm_up(self, prepared):
        lib = self.lib
        for member, p, tone, w, x in _first_of_each(self.jobs, prepared):
            lib.boas_derivative(member, p, 2)
            lib.valiron_derivative(member, p, 2)
            lib.fourier_valiron_derivative(tone, w, x, 2)

    def run(self, job):
        member, p, tone, w, x = job
        lib = self.lib
        out = []
        for n in LADDER:
            b = lib.boas_derivative(member, p, n)
            v = lib.valiron_derivative(member, p, n)
            out.append((b.value, b.apriori_bound, v.value, v.apriori_bound))
        return tuple(out), lib.fourier_valiron_derivative(tone, w, x, FOURIER_N)

    def check(self, spec, ref, out):
        member_ref, oracle = ref
        ladder, fourier = out
        errs = []
        x, th, c, T = spec["x"], spec["theta"], spec["c"], member_ref.T
        for n, (bv, bb, vv, vb) in zip(LADDER, ladder):
            errs += checks.within_bound(f"boas n={n}", bv, oracle, bb,
                                        orc.boas_bound(member_ref.growth, T, x, th, c, n))
            errs += checks.within_bound(f"valiron n={n}", vv, oracle, vb,
                                        orc.valiron_bound(member_ref.growth, T, x, th, c, n))
        w, w0, xf = spec["tone"]
        tone_oracle = 1j * w0 * complex(math.cos(w0 * xf), math.sin(w0 * xf))
        errs += checks.close("fourier", fourier, tone_oracle, orc.fourier_bound(w, FOURIER_N))
        return errs


# ---------------------------------------------------------------------------
# series-grid: Bernstein on a log grid, then one sample set over many radii
# ---------------------------------------------------------------------------

class SeriesGrid(Workload):
    name = "series-grid"

    def make_jobs(self, rng):
        def draw(rng, kind):
            spec = member_spec(rng, kind)
            spec["bern_theta"] = rng.uniform(-0.3, 0.3)
            lo, hi = math.log(0.5), math.log(2.0)
            spec["radii"] = sorted(math.exp(rng.uniform(lo, hi)) for _ in range(RECON_RADII))
            return spec
        return _round(rng, MEMBER_KINDS, 2, draw)

    def oracles(self):
        lo, hi, count = BERNSTEIN_GRID
        # every tenth grid point: a lower bound of the grid sup the ratio divides by
        xs = np.linspace(lo, hi, count)[::10]
        refs = []
        for s in self.jobs:
            ref = member_reference(s)
            den_lower = max(abs(ref.weighted(float(x), s["bern_theta"])) for x in xs)
            recon = [ref.weighted(math.log(r), 0.0) for r in s["radii"]]
            refs.append((ref, den_lower, recon))
        return refs

    def build(self, mp, lib, tracer):
        self.lib = lib
        self.grid = mp.LogGrid(*BERNSTEIN_GRID)
        return [(traced_member(build_member(mp, s), tracer), s["bern_theta"], s["radii"])
                for s in self.jobs]

    def warm_up(self, prepared):
        lib = self.lib
        for member, theta, radii in _first_of_each(self.jobs, prepared):
            lib.bernstein_check(member, theta, 2, self.grid)
            s = lib.sample_set(member, 2)
            lib.valiron_reconstruct(s, radii[0], 2)
            lib.valiron_lin_form(s, radii[0], 2, "weighted")
            lib.valiron_lin_form(s, radii[0], 2, "plain")

    def run(self, job):
        member, theta, radii = job
        lib = self.lib
        ratio = lib.bernstein_check(member, theta, BERNSTEIN_N, self.grid)
        s = lib.sample_set(member, RECON_N)
        rows = []
        for r in radii:
            rec = lib.valiron_reconstruct(s, r, RECON_N)
            rows.append((rec.value,
                         lib.valiron_lin_form(s, r, RECON_N, "weighted"),
                         lib.valiron_lin_form(s, r, RECON_N, "plain")))
        return ratio, tuple(rows)

    def check(self, spec, ref, out):
        member_ref, den_lower, recon_ref = ref
        ratio, rows = out
        T, c = member_ref.T, spec["c"]
        allowance = orc.boas_bound(member_ref.growth, T, 0.0, spec["bern_theta"], 0.0,
                                   BERNSTEIN_N) / den_lower
        errs = checks.bernstein_ratio(ratio, T, allowance)
        for r, want, (rec, lin_w, lin_p) in zip(spec["radii"], recon_ref, rows):
            bound = orc.reconstruct_bound(member_ref.growth, T * math.log(r), RECON_N)
            errs += checks.close(f"reconstruct r={r!r}", rec, want,
                                 bound + checks.ROUNDING * member_ref.growth)
            scale = r ** (-c) * member_ref.growth
            errs += checks.close(f"lin weighted r={r!r}", lin_w, rec * r ** (-c),
                                 checks.LIN_REL * scale)
            errs += checks.close(f"lin plain r={r!r}", lin_p, rec * r ** (-c),
                                 checks.LIN_REL * scale)
        return errs


# ---------------------------------------------------------------------------
# contour-residue: adaptive contour quadrature and the derivative routes
# ---------------------------------------------------------------------------

def contour_spec(rng: random.Random, kind: str) -> dict:
    spec = {"kind": kind, "x0": rng.uniform(-0.5, 0.5), "theta0": rng.uniform(-0.5, 0.5)}
    if kind in SINE_FUNCTIONS:
        T = rng.uniform(1.0, 2.0)
        spec.update(c=rng.uniform(-1.0, 1.0), T=T, kernel_T=T)
        if kind == "translated-sine":
            spec["t"] = math.exp(rng.uniform(0.1, 0.5) / T)
        elif kind == "theta-shifted-sine":
            spec["alpha"] = rng.uniform(-0.5, 0.5)
    elif kind == "power":
        spec.update(a=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)),
                    c=rng.uniform(-0.5, 0.5), kernel_T=rng.uniform(1.5, 2.5))
    else:  # lin
        spec.update(c=rng.uniform(-0.5, 0.5), kernel_T=rng.uniform(2.5, 3.5))
    # lin's Theta-chain ends after first order and higher_mellin_derivative
    # then raises TypeError, so its factor route asks at most one derivative.
    spec["pole_order"] = rng.choice((1, 2) if kind == "lin" else (1, 2, 3))
    return spec


def contour_reference(spec: dict):
    kind = spec["kind"]
    if kind == "power":
        return orc.Power(spec["a"])
    if kind == "lin":
        return orc.Profiled("sinc", spec["c"], 1.0)
    return member_reference(spec)


def core_orders(spec: dict) -> int:
    """Orders asked of higher_mellin_derivative: 0..3, lin only 0..1."""
    return 2 if spec["kind"] == "lin" else DERIV_ORDERS


class ContourResidue(Workload):
    name = "contour-residue"

    def make_jobs(self, rng):
        return _round(rng, CONTOUR_KINDS, 4, contour_spec)

    def oracles(self):
        refs = []
        for s in self.jobs:
            fn = contour_reference(s)
            x0, th0, c = s["x0"], s["theta0"], s["c"]
            derivs = [orc.derivative_at(fn, x0, th0, k, c) for k in range(DERIV_ORDERS)]
            k1 = s["pole_order"] - 1
            residue = (np.exp(c * complex(x0, th0)) * derivs[k1] / math.factorial(k1))
            refs.append((derivs, complex(residue)))
        return refs

    def build(self, mp, lib, tracer):
        self.lib = lib
        self.view = view = _contour_view(mp, tracer)
        rect = mp.LogRectangle(-1.0, 1.0, -1.0, 1.0).boundary()
        out = []
        for s in self.jobs:
            kind = s["kind"]
            if kind == "power":
                f = mp.make_power(s["a"])
            elif kind == "lin":
                f = mp.make_lin(s["c"])
            else:
                f = build_member(mp, s).f
            p0 = mp.PolarPoint(math.exp(s["x0"]), s["theta0"])
            pole = _log_pole(mp, f, p0, s["pole_order"])
            spec = mp.LogPoleSpec(p0, s["pole_order"], f)
            out.append((f, view(f), p0, mp.log_circle(p0, 0.4), rect, view(pole), spec,
                        s["c"], s["kernel_T"], core_orders(s)))
        return out

    def warm_up(self, prepared):
        for job in _first_of_each(self.jobs, prepared):
            self.run(job)

    def run(self, job):
        f, f_view, p0, circle, rect, pole_view, spec, c, kernel_T, orders = job
        lib = self.lib
        values = (lib.cauchy_value(f_view, rect, p0), lib.cauchy_value(f_view, circle, p0))
        extracted = tuple(lib.extract_derivative(f_view, circle, p0, c, k)
                          for k in range(DERIV_ORDERS))
        core = tuple(lib.higher_mellin_derivative(f, p0, c, k) for k in range(orders))
        residues = (lib.residue_numeric(pole_view, p0, c), lib.residue_from_factor(spec, c))
        defects = []
        for n in N_RECT:
            F, gamma, poles = lib.boas_kernel(f, kernel_T, n)
            defects.append(lib.residue_theorem_check(self.view(F), gamma, poles, c))
        return values, extracted, core, residues, tuple(defects)

    def check(self, spec, ref, out):
        derivs, residue = ref
        values, extracted, core, (res_num, res_fac), defects = out
        errs = []
        for where, v in zip(("rectangle", "circle"), values):
            errs += checks.close_rel(f"cauchy {where}", v, derivs[0], checks.CAUCHY_REL)
        for k, v in enumerate(extracted):
            errs += checks.close_rel(f"extract k={k}", v, derivs[k], checks.EXTRACT_REL)
        for k, v in enumerate(core):
            errs += checks.close_rel(f"core k={k}", v, derivs[k], checks.CORE_REL)
        errs += checks.close_rel("residue factor", res_fac, residue, checks.CORE_REL)
        errs += checks.close_rel("residue numeric", res_num, residue, checks.RESIDUE_REL)
        errs += checks.close_rel("residue numeric vs factor", res_num, res_fac,
                                 checks.RESIDUE_REL)
        for n, d in zip(N_RECT, defects):
            errs += checks.at_most(f"defect n_rect={n}", d, 10.0 * QUAD_TOL)
        return errs


def _log_pole(mp, f, p0, order: int):
    """f / (log(r/r0) + i(theta - theta0))^order, a logarithmic pole at p0."""
    z0 = p0.log_z

    def log_fn(x, th):
        L = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
        return f.values_log(x, th) / (L - z0) ** order

    return mp.PolarFunction(log_fn, domain=mp.Domain(excluded=(p0,)),
                            name=f"log_pole({f.name}, k={order})")


def _contour_view(mp, tracer):
    """The function handed to a contour routine: itself, or a copy whose
    evaluator is traced as the quadrature integrand."""
    if tracer is None:
        return lambda f: f

    def view(f):
        return mp.PolarFunction(tracer.leaf("contours.integrand", f.log_fn),
                                domain=f.domain, name=f.name)
    return view


def _first_of_each(specs: list[dict], prepared: list) -> list:
    seen, out = set(), []
    for spec, job in zip(specs, prepared):
        if spec["kind"] not in seen:
            seen.add(spec["kind"])
            out.append(job)
    return out


# ---------------------------------------------------------------------------
# cli-run: one `python -m mellin_polar.cli run <experiment>` per job
# ---------------------------------------------------------------------------

EXPERIMENTS = ("boas-convergence", "valiron-convergence", "reconstruct",
               "contour-cauchy", "residue-defect", "bernstein", "fourier-demo")
CONVERGENCE_FUNCTIONS = SINE_FUNCTIONS + ("sine-blend",)
CLI_DEFAULT_N = {"boas-convergence": (2, 4, 8, 16, 32, 64),
                 "valiron-convergence": (2, 4, 8, 16, 32, 64),
                 "reconstruct": (256,), "bernstein": (500,), "fourier-demo": (8, 32, 128)}
CLI_DEFAULT_GRID = (-6.0, 6.0, 4001)         # LogGrid() used by the bernstein experiment
CONTOUR_CAUCHY_POINTS = 10


def cli_flags(rng: random.Random, experiment: str) -> dict:
    """Seeded flags for one experiment; values are written with repr."""
    if experiment == "fourier-demo":
        return {"w": rng.uniform(0.5, 2.0), "w0": rng.uniform(0.3, 0.9),
                "x": rng.uniform(-2.0, 2.0)}
    pool = {"boas-convergence": CONVERGENCE_FUNCTIONS,
            "valiron-convergence": CONVERGENCE_FUNCTIONS,
            "reconstruct": SINE_FUNCTIONS, "bernstein": SINE_FUNCTIONS,
            "contour-cauchy": SINE_FUNCTIONS + ("power", "lin"),
            "residue-defect": SINE_FUNCTIONS + ("power",)}[experiment]
    function = rng.choice(pool)
    T = rng.uniform(1.0, 2.0)
    flags = {"function": function, "c": rng.uniform(-0.5, 0.5), "T": T}
    if function in ("translated-sine", "sine-blend"):
        flags["t_shift"] = math.exp(rng.uniform(0.1, 0.5) / T)
    elif function == "theta-shifted-sine":
        flags["alpha"] = rng.uniform(-0.5, 0.5)
    elif function == "power":
        flags["a"] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
    if experiment.endswith("-convergence"):
        flags["point"] = (math.exp(rng.uniform(-0.8, 0.8)), rng.uniform(-0.5, 0.5))
    elif experiment == "residue-defect":
        flags["n_rect"] = rng.choice(N_RECT)
    elif experiment == "bernstein":
        flags["theta"] = rng.uniform(-0.3, 0.3)
    return flags


def cli_argv(experiment: str, flags: dict, out: str) -> list[str]:
    argv = ["run", experiment]
    for key, value in flags.items():
        if key == "point":
            text = f"{value[0]!r},{value[1]!r}"
        else:
            text = repr(value) if not isinstance(value, str) else value
        argv += ["--" + key.replace("_", "-"), text]
    return argv + ["--out", out]


def cli_reference(experiment: str, flags: dict):
    """Reference function for the experiment, in the CLI's registry terms."""
    if experiment == "fourier-demo":
        return None
    function, c, T = flags["function"], flags["c"], flags["T"]
    if function == "power":
        return orc.Power(flags["a"])
    if function == "lin":
        return orc.Profiled("sinc", c, 1.0)
    if function == "sine-blend":
        return orc.Profiled("blend", c, T, lt=math.log(flags["t_shift"]),
                            growth=orc.blend_growth())
    spec = {"kind": function, "c": c, "T": T,
            "t": flags.get("t_shift"), "alpha": flags.get("alpha")}
    return member_reference(spec)


@dataclass
class ChildResult:
    status: int
    output: str
    csv: bytes
    max_rss_kb: int


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float = CHILD_TIMEOUT_S,
              on_first_line=None) -> tuple[int, str, int]:
    """Run a child to its end; return (exit status, output, peak RSS in KiB).

    The child is reaped with ``os.wait4`` so that its own resource usage is
    read.  ``on_first_line`` is called when the first output line arrives.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=cwd)
    deadline = perf_counter() + timeout
    chunks, seen_line = [], on_first_line is None
    fd = proc.stdout.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = deadline - perf_counter()
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    break
                data = os.read(fd, 65536)
                if not data:
                    break
                chunks.append(data)
                if not seen_line and b"\n" in data:
                    seen_line = True
                    on_first_line()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode("utf-8", "replace"), usage.ru_maxrss


class CliRun(Workload):
    name = "cli-run"
    min_rounds = 2          # a repeated configuration must give the same CSV bytes

    def __init__(self, seed, root: Path, env: dict, out_dir: Path):
        super().__init__(seed)
        self.root, self.env, self.out_dir = root, env, out_dir
        self.child_rss_kb: list[int] = []

    def make_jobs(self, rng):
        order = list(EXPERIMENTS)
        rng.shuffle(order)
        return [{"kind": e, "experiment": e, "flags": cli_flags(rng, e)} for e in order]

    def oracles(self):
        refs = []
        lo, hi, count = CLI_DEFAULT_GRID
        xs = np.linspace(lo, hi, count)[::10]
        for s in self.jobs:
            ref = cli_reference(s["experiment"], s["flags"])
            extra = None
            if s["experiment"] == "bernstein":
                theta = s["flags"]["theta"]
                extra = max(abs(ref.weighted(float(x), theta)) for x in xs)
            refs.append((ref, extra))
        return refs

    def build(self, mp, lib, tracer):
        import mellin_polar.cli as cli
        self.cli = cli
        self.tracer = tracer
        self.run_experiment = (cli.run_experiment if tracer is None
                               else tracer.call("run_experiment", cli.run_experiment))
        return list(range(len(self.jobs)))

    def warm_up(self, prepared):
        # the CLI path once in this interpreter: argparse, a run, the CSV
        path = self.out_dir / "warm-up.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["run", "fourier-demo", "--n", "8", "--out", str(path)])
        path.unlink()

    def _out_path(self, i: int, tag: str) -> Path:
        return self.out_dir / f"job{i}-{tag}.csv"

    def run(self, i):
        s = self.jobs[i]
        path = self._out_path(i, "child")
        argv = [sys.executable, "-m", "mellin_polar.cli"] + cli_argv(
            s["experiment"], s["flags"], str(path))
        child = run_child
        if self.tracer is not None:
            child = self.tracer.span("cli.child", run_child)
        status, output, rss = child(argv, self.env, self.root)
        self.child_rss_kb.append(rss)
        csv = path.read_bytes() if path.exists() else b""
        if path.exists():
            path.unlink()
        in_process = None
        if self.tracer is not None:
            in_process = self._run_in_process(i)
        return ChildResult(status, output, csv, rss), in_process

    def _run_in_process(self, i):
        """run_experiment in this interpreter on the job's configuration."""
        s = self.jobs[i]
        path = self._out_path(i, "in-process")
        flags = dict(s["flags"], out=str(path))
        cfg = self.cli.build_config(s["experiment"], flags)
        with contextlib.redirect_stdout(io.StringIO()):
            status, _, _ = self.run_experiment(cfg)
        csv = path.read_bytes()
        path.unlink()
        return status, csv

    def repeat_key(self, out):
        child, in_process = out
        return child.status, child.output, child.csv, in_process

    def peak_rss_kb(self):
        return max(self.child_rss_kb)

    def check(self, spec, ref, out):
        child, in_process = out
        errs = []
        if child.status != 0:
            errs.append(f"exit status {child.status}: {child.output.strip()[-300:]}")
        if "contract_violations=0" not in child.output:
            errs.append(f"summary line: {child.output.strip()[-300:]}")
        if in_process is not None and in_process != (0, child.csv):
            errs.append("in-process run_experiment differs from the CLI's CSV")
        errs += check_cli_csv(spec, ref, child.csv)
        return errs


def check_cli_csv(spec: dict, ref, csv: bytes) -> list[str]:
    experiment, flags = spec["experiment"], spec["flags"]
    fn, extra = ref
    rows = checks.parse_csv(csv)
    if rows is None:
        return ["CSV missing or malformed"]
    errs = []
    want_rows = {"contour-cauchy": CONTOUR_CAUCHY_POINTS, "residue-defect": 1, "bernstein": 1,
                 "reconstruct": 16}.get(experiment, len(CLI_DEFAULT_N.get(experiment, ())))
    if len(rows) != want_rows:
        errs.append(f"{len(rows)} CSV rows, expected {want_rows}")
    for row in rows:
        inputs = dict(part.split("=", 1) for part in row["inputs"].split())
        value = row["value"]
        if experiment.endswith("-convergence"):
            n = int(inputs["n"])
            r, th = flags["point"]
            x = math.log(r)
            oracle = fn.theta_power(x, th, 1)
            if experiment.startswith("boas"):
                bound = orc.boas_bound(fn.growth, fn.T, x, th, fn.c, n)
            else:
                bound = orc.valiron_bound(fn.growth, fn.T, x, th, fn.c, max(n, 2))
            errs += checks.close_rel(f"oracle column n={n}", row["oracle"], oracle,
                                     checks.COLUMN_REL)
            errs += checks.within_bound(f"n={n}", value, oracle, row["bound"], bound)
        elif experiment == "reconstruct":
            r = float(inputs["r"])
            want = fn.weighted(math.log(r), 0.0)
            errs += checks.close_rel(f"oracle column r={r!r}", row["oracle"], want,
                                     checks.COLUMN_REL)
            bound = orc.reconstruct_bound(fn.growth, fn.T * math.log(r), CLI_DEFAULT_N[experiment][0])
            errs += checks.close(f"reconstruct r={r!r}", value, want,
                                 bound + checks.ROUNDING * fn.growth)
        elif experiment == "contour-cauchy":
            x0, th0 = math.log(float(inputs["r0"])), float(inputs["theta0"])
            want = orc.derivative_at(fn, x0, th0, 0, flags["c"])
            errs += checks.close(f"cauchy {row['inputs']}", value, want,
                                 max(1e-8, 100.0 * QUAD_TOL))
        elif experiment == "residue-defect":
            errs += checks.at_most("defect", abs(value), 10.0 * QUAD_TOL)
        elif experiment == "bernstein":
            n = CLI_DEFAULT_N["bernstein"][0]
            allowance = orc.boas_bound(fn.growth, fn.T, 0.0, flags["theta"], 0.0, n) / extra
            errs += checks.bernstein_ratio(value.real, fn.T, allowance)
        elif experiment == "fourier-demo":
            n = int(inputs["n"])
            w = flags["w"]
            w0 = flags["w0"] * w
            want = 1j * w0 * complex(math.cos(w0 * flags["x"]), math.sin(w0 * flags["x"]))
            errs += checks.close_rel(f"oracle column n={n}", row["oracle"], want,
                                     checks.COLUMN_REL)
            errs += checks.close(f"fourier n={n}", value, want, orc.fourier_bound(w, n))
    return errs


WORKLOADS = {w.name: w for w in (SeriesPoint, SeriesGrid, ContourResidue, CliRun)}
