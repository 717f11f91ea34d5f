"""Sampling-series differentiation and reconstruction with error bounds.

For a member f of the Mellin-Bernstein class (c, T) the weighted derivative
(Theta_c f) is recovered from geometrically spaced samples two ways:

* the Boas-type series, samples at r e^{(k+1/2) pi/T} with coefficients
  (-1)^k/(2k+1)^2,
* the Valiron-derived series, a central difference at r e^{+/- pi/(2T)} plus
  samples at r e^{k pi/T} with coefficients (-1)^k/(k(4k^2 - 1)).

Truncating after n symmetric blocks leaves errors bounded a priori by

    |E_boas(n)|    <= 4 C_f r^{-c} T e^{T|theta|} / (pi^2 (2n - 1)),
    |E_valiron(n)| <= C_f r^{-c} T e^{T|theta|} / (pi (4(n-1)^2 - 1)),

obtained from |delta_{c,h} f| <= 2 C_f r^{-c} e^{T|theta|} and integral
comparison of the coefficient tails.  The faster k^{-3} coefficient decay is
what the Valiron route buys over the k^{-2} of the Boas route.

The Valiron sampling theorem itself reconstructs r^c f(r, 0) from the ring
samples f(e^{k pi/T}, 0) together with f(1, 0) and (Theta_c f)(1, 0).  For
x = T log r and y = |x|/pi < n, truncating after n symmetric blocks leaves

    |E_recon(n)| <= C_f |sin x| (1/pi) log((n + y)/(n - y)):

the omitted terms, paired over +/-k, total at most C_f |sin x| (2y/pi)
sum_{k>n} 1/(k^2 - y^2), and for k > y that decreasing sum is at most its
integral from n.  Its lin-function forms (the Mellin analogue of sinc
interpolation) are an independent route and must agree to rounding.

Summation is deterministic: all seven sampling sums -- the Boas and the
Valiron-derived series, the Bernstein numerator, the classical-line
analogue, the reconstruction and both lin forms -- go through one
compensated (Kahan) sum, from the smallest |k| outward.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DegenerateInputError,
    DomainError,
    PolarPoint,
    PreconditionError,
)
from .functions import LogGrid, MellinBernsteinMember, lin_value, sinc

__all__ = [
    "ConvergenceRow",
    "SampleSet",
    "TruncationReport",
    "bernstein_check",
    "boas_derivative",
    "convergence_study",
    "fit_loglog_slope",
    "fourier_valiron_derivative",
    "theta_oracle",
    "valiron_derivative",
    "valiron_lin_form",
    "valiron_reconstruct",
]

def _kahan_sum(values: Iterable):
    """Compensated (Kahan) sum of ``values`` in the order given, from 0 + 0j;
    elementwise when the values are arrays."""
    total = carry = 0.0 + 0j
    for value in values:
        value = value + carry
        new_total = total + value
        carry = value - (new_total - total)
        total = new_total
    return total


def _div_real(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """z / d with real d, each part divided as Python's complex / float does.

    numpy's complex division multiplies by the reciprocal of the divisor,
    which can move the last ulp.
    """
    out = np.empty(z.shape, dtype=complex)
    out.real = z.real / d
    out.imag = z.imag / d
    return out


def _pow(x: float, p: float) -> float:
    """x ** p for x >= 0, inf where Python's float power raises OverflowError."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TruncationReport:
    """A truncated series value, its term count and the closed-form bound
    above on its truncation error (finite for every series here)."""

    value: complex
    n_terms: int
    apriori_bound: float


def _lattice(n: int) -> np.ndarray:
    """Lattice indices k in block order 1, -1, 2, -2, ..., n, -n."""
    ks = np.arange(1, n + 1).repeat(2)
    ks[1::2] *= -1
    return ks


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Data consumed by the reconstruction formulas.

    ``weighted`` holds the weighted ring samples e^{k pi c/T} f(e^{k pi/T}, 0)
    as one read-only array in block order k = 1, -1, 2, -2, ..., n, -n (see
    :func:`_lattice`), so its first 2n entries are the n innermost symmetric
    blocks.  They are the bounded quantity the series use (|.| <= C_f for a
    member, with ``growth_constant`` = C_f finite and positive).  Built from a
    member via :meth:`from_member`, which evaluates the weighted samples stably.
    """

    c: float
    T: float
    growth_constant: float
    center_value: complex
    center_derivative: complex
    weighted: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.growth_constant < math.inf:
            raise PreconditionError("growth_constant must be finite and positive")
        weighted = np.array(self.weighted, dtype=complex)
        if weighted.ndim != 1 or not weighted.size or weighted.size % 2:
            raise PreconditionError(
                "weighted ring samples must come in symmetric pairs k, -k (even nonzero length)")
        if not (np.isfinite(weighted).all()
                and np.isfinite([self.center_value, self.center_derivative]).all()):
            raise PreconditionError("every sample must be finite")
        weighted.flags.writeable = False
        object.__setattr__(self, "weighted", weighted)

    @property
    def n_ring(self) -> int:
        return len(self.weighted) // 2

    @classmethod
    def from_member(cls, m: MellinBernsteinMember, n: int) -> "SampleSet":
        if n < 1:
            raise PreconditionError("need at least one ring sample pair")
        _check_shifts(0.0, (math.pi / m.T, n * math.pi / m.T))  # the least and greatest |x|
        center = PolarPoint(1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are refused
            return cls(
                c=m.c, T=m.T, growth_constant=m.growth_constant,
                center_value=m.value(center),
                center_derivative=m.theta_c(center),
                weighted=m.weighted_profile(_lattice(n) * math.pi / m.T, 0.0))


# ---------------------------------------------------------------------------
# Differentiation series
# ---------------------------------------------------------------------------

def _check_shifts(x, rhos: Sequence[float]) -> None:
    """Refuse shifts x +/- rho that are not finite or leave some x in place."""
    lo = min(rhos)
    if not (math.isfinite(max(rhos)) and np.all((x + lo != x) & (x - lo != x))):
        raise DomainError("a sampling shift is not finite or too small to move the point")


def _block_sum(profile: Callable, x, rhos: Sequence[float], coefs: Sequence[float]):
    """Compensated sum, in table order, of coefs[j] (profile(x + rhos[j]) - profile(x - rhos[j])).

    Elementwise for an array x.
    """
    _check_shifts(x, rhos)
    return _kahan_sum(coef * (profile(x + rho) - profile(x - rho))
                      for rho, coef in zip(rhos, coefs))


def _boas_blocks(T: float, n: int) -> tuple[list[float], list[float]]:
    """rho_j = (j + 1/2) pi/T with coefficient (-1)^j/(2j + 1)^2, j = 0..n-1."""
    return ([(j + 0.5) * math.pi / T for j in range(n)],
            [(-1.0) ** j / (2 * j + 1.0) ** 2 for j in range(n)])


def _valiron_sum(profile: Callable, x, T: float, n: int):
    """The sum of fourier_valiron_derivative with w = T."""
    half = math.pi / (2.0 * T)
    _check_shifts(x, (half,))
    central = 0.5 * T * (profile(x + half) - profile(x - half))
    total = _block_sum(
        profile, x, [k * math.pi / T for k in range(1, n + 1)],
        [(-1.0) ** k / (k * (4.0 * k * k - 1.0)) for k in range(1, n + 1)])
    return central + (T / math.pi) * total


def _series_point(m: MellinBernsteinMember, p: PolarPoint) -> tuple[float, float, float]:
    """log r, r^{-c} and the factor C_f T e^{T|theta|} r^{-c} of both bounds."""
    x0 = math.log(p.r)
    try:
        unweight = math.exp(-m.c * x0)
        factor = m.growth_constant * m.T * math.exp(m.T * abs(p.theta)) * unweight
    except OverflowError:
        factor = math.inf
    if not math.isfinite(factor):
        raise DomainError("the a-priori truncation bound overflows at this point")
    return x0, unweight, factor


def theta_oracle(m: MellinBernsteinMember, p: PolarPoint) -> complex:
    """(Theta_c f)(p) from the Theta-chain of ``m.f``, the one closed form of
    Theta_c f: the reference value of both differentiation series, which read
    only the weighted profile.  A point where the oracle leaves the double
    range is refused with DomainError."""
    if m.f.theta_chain is None:
        raise PreconditionError("the Theta_c oracle needs a closed-form derivative")
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = m.theta_c(p)
    if not cmath.isfinite(oracle):
        raise DomainError("the closed-form Theta_c oracle overflows at this point")
    return oracle


def boas_derivative(m: MellinBernsteinMember, p: PolarPoint, n: int) -> TruncationReport:
    """Truncated Boas-type series for (Theta_c f)(p) from 2n samples.

        value = (4T/pi^2) sum_{k=-n}^{n-1} (-1)^k (2k+1)^{-2}
                              e^{(k+1/2) pi c/T} f(r e^{(k+1/2) pi/T}, theta).

    Symmetric blocks pair k = j with k = -(j+1).
    """
    if n < 1:
        raise PreconditionError("boas_derivative needs n >= 1")
    x0, unweight, factor = _series_point(m, p)
    scale = 4.0 * m.T / math.pi ** 2
    bound = 4.0 * factor / (math.pi ** 2 * (2.0 * n - 1.0))
    if not (math.isfinite(scale) and math.isfinite(bound)):
        raise DomainError("the a-priori truncation bound overflows at this point")
    total = _block_sum(lambda x: complex(m.weighted_profile(x, p.theta)), x0,
                       *_boas_blocks(m.T, n))
    return TruncationReport(value=scale * unweight * total, n_terms=2 * n,
                            apriori_bound=bound)


def valiron_derivative(m: MellinBernsteinMember, p: PolarPoint, n: int) -> TruncationReport:
    """Truncated Valiron-derived series for (Theta_c f)(p) from 2n samples.

        value = (T/2)[e^{pi c/(2T)} f(r e^{pi/(2T)}, th)
                      - e^{-pi c/(2T)} f(r e^{-pi/(2T)}, th)]
              + (T/pi) sum_{0<|k|<=n-1} (-1)^k e^{k pi c/T}
                              f(r e^{k pi/T}, th) / (k (4k^2 - 1)).
    """
    if n < 2:
        raise PreconditionError("valiron_derivative needs n >= 2")
    x0, unweight, factor = _series_point(m, p)
    value = _valiron_sum(lambda x: complex(m.weighted_profile(x, p.theta)), x0, m.T, n - 1)
    return TruncationReport(value=unweight * value, n_terms=2 * n,
                            apriori_bound=factor / (math.pi * (4.0 * (n - 1.0) ** 2 - 1.0)))


def fourier_valiron_derivative(g: Callable[[float], complex], w: float, x: float,
                               n: int) -> complex:
    """Classical-line analogue: estimate g'(x) for bandlimited g of type w.

        (w/2)[g(x + pi/(2w)) - g(x - pi/(2w))]
            + (w/pi) sum_{k=1}^{n} (-1)^k [g(x + k pi/w) - g(x - k pi/w)]
                                    / (k (4k^2 - 1)).
    """
    if n < 1:
        raise PreconditionError("fourier_valiron_derivative needs n >= 1")
    if not (w > 0.0):
        raise PreconditionError("bandwidth w must be positive")
    return _valiron_sum(lambda t: complex(g(t)), x, w, n)


# ---------------------------------------------------------------------------
# Valiron reconstruction and its lin-function forms
# ---------------------------------------------------------------------------

def _check_ring_args(s: SampleSet, r: float, n: int) -> None:
    """Refuse a radius that is not positive and finite, or n outside 1..n_ring."""
    if not 0.0 < r < math.inf:
        raise PreconditionError("reconstruction radius must be positive and finite")
    if not 1 <= n <= s.n_ring:
        raise PreconditionError(f"need 1 <= n <= {s.n_ring}, the ring pairs held; got {n}")


def valiron_reconstruct(s: SampleSet, r: float, n: int) -> TruncationReport:
    """Truncated reconstruction of r^c f(r, 0) from a sample set.

        sin(T log r) [ A/T + f(1,0)/(T log r)
            + T log r sum_{0<|k|<=n} (-1)^{k+1} e^{k pi c/T} f(e^{k pi/T},0)
                                      / (k pi (k pi - T log r)) ]

    with A = (Theta_c f)(1, 0).  Every term is formed by the sinc
    continuation sin(x)/(k pi - x) = (-1)^{k+1} sin(d)/d, d = x - k pi, an
    identity for every x = T log r: lattice term k is x w_k sin(d)/(d k pi)
    with w_k the weighted sample, the centre term f(1,0) sin(x)/x, and
    sin(d)/d is 1 at d = 0.  So no term loses digits to the rounding of
    k pi next to a lattice abscissa; where x w_k overflows, the term is
    x sin(d)/d (w_k/(k pi)) instead.  The 2n lattice terms are formed as
    one array; each symmetric block is the pair sum t_k + t_{-k} (for
    finite terms a compensated sum of the pair, up to the sign of a zero),
    and the blocks are compensated in turn after the two centre terms.  The
    report carries the module's truncation bound, which needs
    y = |T log r|/pi < n: larger y is refused.
    """
    _check_ring_args(s, r, n)
    T = s.T
    x = T * math.log(r)
    y = abs(x) / math.pi
    if not y < n:
        raise PreconditionError(
            f"the truncation bound needs |T log r|/pi < n = {n}; here it is {y:.6g}")
    sin_x = math.sin(x)
    bound = s.growth_constant * abs(sin_x) * math.log1p(2.0 * y / (n - y)) / math.pi
    if not math.isfinite(bound):
        raise DomainError("the a-priori truncation bound overflows at this radius")

    kp, weighted = _lattice(n) * math.pi, s.weighted[:2 * n]
    d = x - kp
    # 0/0 on a lattice abscissa, where the ratio is 1; an overflowing term is formed again below
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.where(d == 0.0, 1.0, np.sin(d) / d)
        terms = _div_real(x * ratio * weighted, kp)
        bad = ~np.isfinite(terms)
        if bad.any():  # x w_k overflowed: divide by k pi first there
            terms[bad] = x * ratio[bad] * _div_real(weighted[bad], kp[bad])
        blocks = (terms[0::2] + terms[1::2]).tolist()
    value = _kahan_sum([sin_x * s.center_derivative / T,
                        (sin_x / x if x else 1.0) * s.center_value, *blocks])
    if not cmath.isfinite(value):
        raise DomainError("the reconstruction overflows: a term or their sum is not finite")
    return TruncationReport(value=value, n_terms=2 * n + 2, apriori_bound=bound)


def valiron_lin_form(s: SampleSet, r: float, n: int, variant: str = "weighted") -> complex:
    """Reconstruction written through the lin kernel; estimates f(r, 0).

    variant="weighted": the lin_{c pi/T} form, with the c-dependence hidden
    inside the kernel applied to the *raw* samples,

        f(r,0) = lin_{c pi/T}(r^{T/pi}) [log r * A + f(1,0)]
               + log(r^{T/pi}) sum_{k != 0} f(e^{k pi/T},0)/k
                                 * lin_{c pi/T}(e^{-k} r^{T/pi});

    variant="plain": the lin_0 form with the c-weights moved onto the
    samples (the shape needed to estimate through the growth bound), divided
    by r^c so both variants estimate f(r, 0).  Both are algebraically equal
    to r^{-c} * valiron_reconstruct; the kernel is entire, so no limit
    branches are needed on the lattice.

    Far out on the lattice the kernel argument e^{-k} y leaves the normal
    double range (|k| beyond about 708), or the raw sample and the weighted
    kernel do so in opposite directions (|c| |k| pi/T beyond about 709) and
    their product is 0 * inf or inf * 0.  Such a term is therefore formed
    from the weighted sample instead, with the e^{-k}, e^{-/+k nu} factors
    cancelled: log y * weighted_k * y^{-nu} sinc(log y - k) / k.  Other
    terms keep the product above.  The 2n lattice terms are formed
    as one array and summed in the order 1, -1, 2, -2, ... through one
    compensated sum.
    """
    if variant not in ("weighted", "plain"):
        raise PreconditionError("variant must be 'weighted' or 'plain'")
    _check_ring_args(s, r, n)
    T, c = s.T, s.c
    y = _pow(r, T / math.pi)        # lattice variable: samples sit at e^k
    log_r = math.log(r)
    log_y = T * log_r / math.pi
    ks, weighted = _lattice(n), s.weighted[:2 * n]
    # lin_{c pi/T} with the raw samples, or lin_0 with the weighted samples
    # and the r^c stripped at the end
    nu = c * math.pi / T if variant == "weighted" else 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        head = float(lin_value(nu, y))  # lin is real on the positive reals
        # math.exp, not np.exp: the kernel arguments round as in a scalar loop;
        # e^{-k} overflows for k <= -710
        arg = np.array([math.exp(-k) if k > -710 else math.inf for k in ks.tolist()]) * y
        normal = np.isfinite(arg) & (arg >= np.finfo(float).tiny)  # log() of a subnormal loses bits
        kernel = lin_value(nu, np.where(normal, arg, 1.0))
        # the raw samples may over/underflow; such terms are formed again below
        samples = weighted * np.exp(-c * (ks * math.pi / T)) if variant == "weighted" \
            else weighted
        terms = _div_real(log_y * samples * kernel, ks)
        bad = ~(normal & np.isfinite(terms))
        if bad.any():
            kb = ks[bad]
            kernel = _pow(y, -nu) * sinc(log_y - kb).real  # y^{-nu} = r^{-c} when weighted
            terms[bad] = _div_real(log_y * weighted[bad] * kernel, kb)
    total = _kahan_sum([head * (log_r * s.center_derivative + s.center_value), *terms.tolist()])
    value = total if variant == "weighted" else total * _pow(r, -c)
    if not cmath.isfinite(value):
        raise DomainError("the lin form overflows: a power of r, a term or their sum is not finite")
    return value


# ---------------------------------------------------------------------------
# Bernstein-inequality check and convergence studies
# ---------------------------------------------------------------------------

def bernstein_check(m: MellinBernsteinMember, theta: float = 0.0, n: int = 500,
                    grid: LogGrid = LogGrid()) -> float:
    """Grid ratio sup r^c |Theta_c f(r, theta)| / sup r^c |f(r, theta)|.

    The numerator goes through the truncated Boas series at n blocks, the
    denominator through the member's weighted profile.  For a member of class
    (c, T) the ratio cannot exceed T; the tolerance budget for truncation and
    grid error is the caller's (default epsilon 1e-3 at n = 500 on the
    default grid).
    """
    if n < 1:
        raise PreconditionError("bernstein_check needs n >= 1")
    xs = grid.xs()
    rhos, coefs = _boas_blocks(m.T, n)
    _check_shifts(xs, rhos)  # before any profile call, which could overflow first
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        den = float(np.max(np.abs(m.weighted_profile(xs, theta))))
        if den == 0.0:
            raise DegenerateInputError("member vanishes on the whole grid")
        total = _block_sum(lambda x: m.weighted_profile(x, theta), xs, rhos, coefs)
        num = float(np.max(np.abs(4.0 * m.T / math.pi ** 2 * total)))
    if not (math.isfinite(den) and math.isfinite(num)):
        raise DomainError("the weighted profile or its Boas series is not finite on the grid")
    return num / den


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    boas_error: float
    boas_bound: float
    valiron_error: float
    valiron_bound: float


def convergence_study(m: MellinBernsteinMember, p: PolarPoint,
                      n_values: Sequence[int]) -> list[ConvergenceRow]:
    """Truncation error vs n for both differentiation series at a point.

    Errors are measured against the member's closed-form Theta_c oracle
    (required); bounds are the a-priori expressions attached to the reports.
    The errors can never exceed the bounds; the decay exponents separate the
    two routes (about n^{-1} for Boas vs n^{-2} for the Valiron-derived form
    on worst-case members).
    """
    if any(n < 2 for n in n_values):
        raise PreconditionError("convergence_study needs n >= 2 (the Valiron-derived series)")
    oracle = theta_oracle(m, p)
    rows = []
    for n in n_values:
        b = boas_derivative(m, p, n)
        v = valiron_derivative(m, p, n)
        rows.append(ConvergenceRow(
            n=int(n),
            boas_error=abs(b.value - oracle),
            boas_bound=float(b.apriori_bound),
            valiron_error=abs(v.value - oracle),
            valiron_bound=float(v.apriori_bound)))
    return rows


def fit_loglog_slope(ns: Iterable[float], errors: Iterable[float]) -> float:
    """Least-squares slope of log error against log n (zero errors dropped)."""
    ns = np.asarray(list(ns), dtype=float)
    errors = np.asarray(list(errors), dtype=float)
    if ns.shape != errors.shape or not (np.all(np.isfinite(ns) & (ns > 0.0))
                                         and np.all(np.isfinite(errors))):
        raise PreconditionError("the fit needs one finite error per positive finite n")
    keep = errors > 0.0
    if np.count_nonzero(keep) < 2:
        raise DegenerateInputError("need at least two nonzero errors to fit a slope")
    return float(np.polyfit(np.log(ns[keep]), np.log(errors[keep]), 1)[0])
