"""Curves in the half-plane, contour quadrature, Cauchy formulas, residues.

All geometry lives in the chart zeta = log r + i theta, where the line
element of the theory is exact:

    e^{i theta} (dr + i r dtheta) = e^{zeta} dzeta.

A closed curve around (r0, theta0) therefore computes, for polar-analytic f,

    (1/2 pi i) oint f e^{i theta}/(r e^{i theta} - r0 e^{i theta0}) (dr + ir dth)
        = f(r0, theta0)            [on a theta-strip narrower than 2 pi]

and, weighting by (r e^{i theta})^{c-1},

    (1/2 pi i) oint (re^{i th})^{c-1} f e^{i th} / (log(r/r0) + i(th - th0))^{k+1}
        = (r0 e^{i th0})^c (Theta_c^k f)(r0, th0) / k!.

Isolated singularities of the form g/(log(r/r0) + i(theta - theta0))^k with
g polar-analytic and g(r0, theta0) != 0 are *logarithmic poles*; the weighted
integral around a curve equals 2 pi i times the sum of their c-residues

    (res_c f)(r0, th0) = (r0 e^{i th0})^c (Theta_c^{k-1} g)(r0, th0)/(k-1)!.

Quadrature: composite Gauss-Legendre with global bisection under a fixed pass
cap; integrands are smooth on the contours (poles stay interior), so
convergence is spectral.  Segments are parametrized symmetrically around their
midpoint and node sets are exactly symmetric, so reversing a curve evaluates
the same chart points with negated velocities, splits the mirrored pieces, and
the integral negates exactly.  Enclosure needs no quadrature: the winding
number around a point is the exact sum of the segments' turnings around it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    Domain,
    DomainError,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    ToleranceNotMetError,
    WHOLE_PLANE,
    divide,
    higher_mellin_derivative,
)
from .functions import TrigTone, _profiled

__all__ = [
    "ArcSegment",
    "Curve",
    "LineSegment",
    "LogPoleSpec",
    "LogRectangle",
    "QuadratureSpec",
    "boas_kernel",
    "cauchy_derivative",
    "cauchy_value",
    "extract_derivative",
    "line_integral",
    "log_circle",
    "residue_from_factor",
    "residue_numeric",
    "residue_theorem_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance on the curve's summed gap."""

    tol: float = 1e-9

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise PreconditionError("tolerance must be positive")


_MAX_PASSES = 4096  # per quadrature; a tolerance still unmet then is an error

# The one Gauss-Legendre rule: scipy's roots_legendre(16) with x -> (x(i) - x(15-i))/2
# and w -> (w(i) + w(15-i))/2, so the node set is exactly +/- symmetric.  Its positive
# half is written out (and checked in the tests), which keeps scipy.linalg off import.
_GL_HALF_NODES = np.array([0.09501250983763745, 0.2816035507792589, 0.4580167776572274,
                           0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                           0.9445750230732326, 0.9894009349916499])
_GL_HALF_WEIGHTS = np.array([0.1894506104550681, 0.18260341504492328, 0.16915651939500212,
                             0.14959598881657638, 0.12462897125553363, 0.09515851168249231,
                             0.06225352393864763, 0.027152459411756466])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


# ---------------------------------------------------------------------------
# Segments and curves (chart coordinates).  Segments are maps of the
# symmetric parameter u in [-1/2, 1/2]; reversal negates the direction data
# exactly and re-traverses the identical chart points.  ``turning(zeta0)`` is
# the exact increase of arg(zeta - zeta0) along a segment, NaN on the segment.
# ---------------------------------------------------------------------------

class LineSegment:
    """Straight chart segment from zeta0 to zeta1."""

    __slots__ = ("zeta0", "zeta1", "_mid", "_dir")

    def __init__(self, zeta0: complex, zeta1: complex):
        self.zeta0 = complex(zeta0)
        self.zeta1 = complex(zeta1)
        self._mid = 0.5 * (self.zeta0 + self.zeta1)
        self._dir = self.zeta1 - self.zeta0

    def chart(self, u):
        return self._mid + self._dir * np.asarray(u)

    def velocity(self, u):
        u = np.asarray(u)
        return np.full(u.shape, self._dir, dtype=complex)

    @property
    def start(self):
        return self.zeta0

    @property
    def end(self):
        return self.zeta1

    def reversed(self):
        return LineSegment(self.zeta1, self.zeta0)

    def turning(self, zeta0: complex) -> float:
        t = (self.zeta0 - zeta0).conjugate() * (self.zeta1 - zeta0)
        return math.nan if t.imag == 0.0 and t.real <= 0.0 else cmath.phase(t)


class ArcSegment:
    """Chart circular arc center + radius e^{i phi}, phi affine in u."""

    __slots__ = ("center", "radius", "phi0", "phi1", "_phi_mid", "_phi_dir")

    def __init__(self, center: complex, radius: float, phi0: float, phi1: float):
        if not (radius > 0.0):
            raise PreconditionError("arc radius must be positive")
        self.center = complex(center)
        self.radius = float(radius)
        self.phi0 = float(phi0)
        self.phi1 = float(phi1)
        self._phi_mid = 0.5 * (self.phi0 + self.phi1)
        self._phi_dir = self.phi1 - self.phi0

    def chart(self, u):
        phi = self._phi_mid + self._phi_dir * np.asarray(u)
        return self.center + self.radius * np.exp(1j * phi)

    def velocity(self, u):
        phi = self._phi_mid + self._phi_dir * np.asarray(u)
        return 1j * self._phi_dir * self.radius * np.exp(1j * phi)

    @property
    def start(self):
        return self.center + cmath.rect(self.radius, self.phi0)

    @property
    def end(self):
        return self.center + cmath.rect(self.radius, self.phi1)

    def reversed(self):
        return ArcSegment(self.center, self.radius, self.phi1, self.phi0)

    def turning(self, zeta0: complex) -> float:
        """The chord's turning, plus a full turn when zeta0 lies between chord and arc."""
        if abs(self._phi_dir) >= 2.0 * math.pi:  # halves, so that arc and chord bound one region
            return sum(ArcSegment(self.center, self.radius, a, b).turning(zeta0)
                       for a, b in ((self.phi0, self._phi_mid), (self._phi_mid, self.phi1)))
        t = (self.start - zeta0).conjugate() * (self.end - zeta0)
        if t == 0.0:  # zeta0 is an end point
            return math.nan
        turn = cmath.phase(t)
        dist = abs(zeta0 - self.center)
        if turn * self._phi_dir < 0.0 and dist <= self.radius:  # the arc's side of the chord
            if dist == self.radius:  # on the arc
                return math.nan
            turn += math.copysign(2.0 * math.pi, self._phi_dir)
        return turn


_CLOSURE_TOL = 1e-12


class Curve:
    """Piecewise-smooth path of line and arc segments; closed when ends meet."""

    __slots__ = ("segments", "closed")

    def __init__(self, segments: Sequence):
        segments = tuple(segments)
        if not segments:
            raise PreconditionError("a curve needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if abs(a.end - b.start) > _CLOSURE_TOL:
                raise PreconditionError("curve segments are not contiguous")
        self.segments = segments
        self.closed = abs(segments[-1].end - segments[0].start) <= _CLOSURE_TOL

    def reversed(self) -> "Curve":
        return Curve(tuple(s.reversed() for s in reversed(self.segments)))

    def theta_span(self) -> tuple[float, float]:
        lo, hi = math.inf, -math.inf
        us = np.linspace(-0.5, 0.5, 65)
        for seg in self.segments:
            ys = np.imag(seg.chart(us))
            lo = min(lo, float(np.min(ys)))
            hi = max(hi, float(np.max(ys)))
        return lo, hi


@dataclass(frozen=True)
class LogRectangle:
    """Axis-aligned rectangle in the chart (rectangular in (log r, theta))."""

    log_r_min: float
    log_r_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        if not (self.log_r_min < self.log_r_max and self.theta_min < self.theta_max):
            raise PreconditionError("degenerate chart rectangle")

    def boundary(self) -> Curve:
        c = [complex(self.log_r_min, self.theta_min),
             complex(self.log_r_max, self.theta_min),
             complex(self.log_r_max, self.theta_max),
             complex(self.log_r_min, self.theta_max)]
        segs = [LineSegment(c[i], c[(i + 1) % 4]) for i in range(4)]
        return Curve(segs)


def log_circle(center: PolarPoint, radius: float) -> Curve:
    """Positively oriented boundary of the polar disk E(center, radius)."""
    if not (radius > 0.0):
        raise PreconditionError("radius must be positive")
    quarters = [ArcSegment(center.log_z, radius, k * math.pi / 2.0, (k + 1) * math.pi / 2.0)
                for k in range(4)]
    return Curve(quarters)


@dataclass(frozen=True)
class LogPoleSpec:
    """A logarithmic pole: location, order k >= 1, optional regular factor g.

    For the singularity to genuinely have order k the factor must satisfy
    g(location) != 0; a vanishing factor means the declared order overstates
    the actual one.  The residue formula stays valid in that degenerate case
    (it is linear in g), so it is reported as a warning, not an error.
    """

    location: PolarPoint
    order: int
    factor_g: Optional[PolarFunction] = None

    def __post_init__(self):
        if self.order < 1:
            raise PreconditionError("pole order must be >= 1")
        if self.factor_g is not None:
            g0 = self.factor_g(self.location)
            if not (math.isfinite(g0.real) and math.isfinite(g0.imag)):
                raise PreconditionError("regular factor must be finite at the pole")
            if abs(g0) == 0.0:
                warnings.warn(
                    "regular factor vanishes at the pole: the declared order "
                    "overstates the actual order (residue formula still valid)",
                    UserWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# Contour quadrature: global bisection of Gauss-Legendre pieces
# ---------------------------------------------------------------------------

def _gl_pass(fn_u, a: float, b: float) -> complex:
    half = 0.5 * (b - a)
    u = 0.5 * (a + b) + half * _GL_NODES
    vals = np.asarray(fn_u(u), dtype=complex)
    try:
        total = half * complex(math.fsum((_GL_WEIGHTS * vals.real).tolist()),
                               math.fsum((_GL_WEIGHTS * vals.imag).tolist()))
    except (ValueError, OverflowError):  # fsum of inf - inf, or a sum past the float range
        total = complex(math.nan)
    if not cmath.isfinite(total):  # its gaps would be NaN or inf
        raise DomainError("the integrand is not finite on the contour")
    return total


def _piece(fn_u, a: float, b: float, whole: complex) -> tuple:
    """(gap, fn_u, a, mid, b, left, right): passes over the halves, gap to ``whole``."""
    mid = 0.5 * (a + b)
    left = _gl_pass(fn_u, a, mid)
    right = _gl_pass(fn_u, mid, b)
    return abs(left + right - whole), fn_u, a, mid, b, left, right


def _contour_quadrature(fn_chart, gamma: Curve, q: QuadratureSpec) -> complex:
    """Integrate fn_chart(zeta) dzeta along gamma (fn_chart vectorized)."""
    pieces = []
    for seg in gamma.segments:
        def fn_u(u, seg=seg):
            return np.asarray(fn_chart(seg.chart(u)), dtype=complex) * seg.velocity(u)
        pieces.append(_piece(fn_u, -0.5, 0.5, _gl_pass(fn_u, -0.5, 0.5)))
    passes = 3 * len(pieces)
    while (gap := math.fsum(p[0] for p in pieces)) > q.tol:
        worst = max(p[0] for p in pieces)
        passes += 4 * sum(p[0] == worst for p in pieces)  # once the worst pieces split
        if passes > _MAX_PASSES:
            break
        split = []  # in position order, like pieces
        for p in pieces:
            if p[0] == worst:
                _, fn_u, a, mid, b, left, right = p
                split += [_piece(fn_u, a, mid, left), _piece(fn_u, mid, b, right)]
            else:
                split.append(p)
        pieces = split
    values = [p[5] + p[6] for p in pieces]
    total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    if gap > q.tol:
        raise ToleranceNotMetError(
            f"contour quadrature missed tolerance {q.tol} within {_MAX_PASSES} passes "
            f"(residual gap {gap:.3e})", best_estimate=total, gap=gap)
    return total


def _winding(gamma: Curve, p0: PolarPoint) -> float:
    """Winding number of gamma around p0 (exact angle sum); NaN for p0 on gamma."""
    zeta0 = p0.log_z
    return math.fsum(seg.turning(zeta0) for seg in gamma.segments) / (2.0 * math.pi)


def _require_interior(gamma: Curve, p0: PolarPoint) -> None:
    """Refuse p0 unless gamma winds once positively around it."""
    if not abs(_winding(gamma, p0) - 1.0) < 0.5:  # also NaN: p0 on the curve
        raise PreconditionError("the target point is not interior to the curve "
                                "(wound once, positively)")


# ---------------------------------------------------------------------------
# Line integrals and the Cauchy formulas
# ---------------------------------------------------------------------------

def line_integral(g: PolarFunction, gamma: Curve, q: QuadratureSpec = QuadratureSpec()) -> complex:
    """integral_gamma g(r, theta) e^{i theta} (dr + i r dtheta).

    In the chart this is the integral of g * e^{zeta} dzeta.  g must be
    continuous on the trace of gamma.
    """
    return _contour_quadrature(
        lambda zeta: g.values_log(zeta.real, zeta.imag) * np.exp(zeta), gamma, q)


def _weighted_integral(f: PolarFunction, gamma: Curve, c: float,
                       q: QuadratureSpec) -> complex:
    """oint (re^{i th})^{c-1} f e^{i th}(dr + ir dth) = oint e^{c zeta} f dzeta."""
    return _contour_quadrature(
        lambda zeta: np.exp(c * zeta) * f.values_log(zeta.real, zeta.imag), gamma, q)


def cauchy_value(f: PolarFunction, gamma: Curve, p0: PolarPoint,
                 q: QuadratureSpec = QuadratureSpec()) -> complex:
    """Reproduce f(p0) from boundary values on a narrow-strip closed curve.

    Preconditions: gamma closed, positively oriented, contained in a
    theta-strip of width < 2 pi, and p0 interior.  Width >= 2 pi would pick
    up contributions from the 2 pi-translates (r0, theta0 + 2 j pi); that
    regime is intentionally not exposed here (use the residue machinery).
    """
    if not gamma.closed:
        raise PreconditionError("cauchy_value needs a closed curve")
    lo, hi = gamma.theta_span()
    if hi - lo >= 2.0 * math.pi:
        raise PreconditionError(
            f"curve spans a theta-width of {hi - lo:.6f} >= 2 pi; "
            "the single-point boundary formula does not apply")
    _require_interior(gamma, p0)
    z0 = p0.z

    def fn(zeta):
        return (f.values_log(zeta.real, zeta.imag) * np.exp(zeta)) / (np.exp(zeta) - z0)

    return _contour_quadrature(fn, gamma, q) / (2j * math.pi)


def cauchy_derivative(f: PolarFunction, gamma: Curve, p0: PolarPoint, c: float,
                      k: int, q: QuadratureSpec = QuadratureSpec()) -> complex:
    """Weighted boundary integral equal to (r0 e^{i th0})^c (Theta_c^k f)(p0)/k!.

    Evaluates (1/2 pi i) oint (re^{i th})^{c-1} f e^{i th}
    / (log(r/r0) + i(th - th0))^{k+1} (dr + ir dth) for p0 interior to gamma.
    The singular denominator stays regular on gamma because the pole is
    interior; tolerance failures surface as in line_integral.
    """
    if k < 0:
        raise PreconditionError("derivative order k must be >= 0")
    if not gamma.closed:
        raise PreconditionError("cauchy_derivative needs a closed curve")
    _require_interior(gamma, p0)
    zeta0 = p0.log_z

    def fn(zeta):
        return (np.exp(c * zeta) * f.values_log(zeta.real, zeta.imag)
                / (zeta - zeta0) ** (k + 1))

    return _contour_quadrature(fn, gamma, q) / (2j * math.pi)


def extract_derivative(f: PolarFunction, gamma: Curve, p0: PolarPoint, c: float,
                       k: int, q: QuadratureSpec = QuadratureSpec()) -> complex:
    """(Theta_c^k f)(p0) recovered from the weighted boundary integral."""
    raw = cauchy_derivative(f, gamma, p0, c, k, q)
    return raw * math.factorial(k) / cmath.exp(c * p0.log_z)


# ---------------------------------------------------------------------------
# c-residues of logarithmic poles
# ---------------------------------------------------------------------------

def residue_from_factor(spec: LogPoleSpec, c: float) -> complex:
    """(res_c f) = (r0 e^{i th0})^c (Theta_c^{k-1} g)(r0, th0)/(k-1)! from the factor."""
    if spec.factor_g is None:
        raise PreconditionError("residue_from_factor needs the regular factor g")
    p0 = spec.location
    val = higher_mellin_derivative(spec.factor_g, p0, c, spec.order - 1)
    return cmath.exp(c * p0.log_z) * val / math.factorial(spec.order - 1)


def residue_numeric(F: PolarFunction, p0: PolarPoint, c: float,
                    radius: float | None = None,
                    q: QuadratureSpec = QuadratureSpec()) -> complex:
    """c-residue at p0 by a small-circle weighted integral (no factorization).

    F must be polar-analytic on the punctured chart disk of the given radius.
    Default radius: half the chart distance to the nearest *other* declared
    singularity of F's domain, capped at 0.5.  Enclosing a second singularity
    is the caller's responsibility, as documented.
    """
    if radius is None:
        radius = 0.5
        z0 = p0.log_z
        for s in F.domain.excluded:
            d = abs(s.log_z - z0)
            if d > 1e-14:
                radius = min(radius, d / 2.0)
    circle = log_circle(p0, radius)
    return _weighted_integral(F, circle, c, q) / (2j * math.pi)


def residue_theorem_check(F: PolarFunction, gamma: Curve,
                          poles: Iterable[LogPoleSpec], c: float,
                          q: QuadratureSpec = QuadratureSpec()) -> float:
    """Defect |oint (re^{i th})^{c-1} F e^{i th}(dr + ir dth) - 2 pi i sum res_c|.

    Near zero certifies the residue bookkeeping.  Refused with PreconditionError
    unless gamma is closed, winds once positively around every listed pole, and
    neither meets nor winds around a declared singularity of F left unlisted.
    """
    if not gamma.closed:
        raise PreconditionError("residue_theorem_check needs a closed curve")
    poles = tuple(poles)
    for spec in poles:
        _require_interior(gamma, spec.location)
    listed = [spec.location.log_z for spec in poles]
    for s in F.domain.excluded:  # an unlisted one must be off gamma (NaN) and not wound around
        z = s.log_z
        if all(abs(z - w) > 1e-14 for w in listed) and not abs(_winding(gamma, s)) < 0.5:
            raise PreconditionError("the curve passes through or winds around a declared "
                                    "singularity that is not a listed pole")
    lhs = _weighted_integral(F, gamma, c, q)
    res_re, res_im = [], []
    for spec in poles:
        r = residue_from_factor(spec, c)
        res_re.append(r.real)
        res_im.append(r.imag)
    rhs = 2j * math.pi * complex(math.fsum(res_re), math.fsum(res_im))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# The differentiation kernel behind the sampling series
# ---------------------------------------------------------------------------

def boas_kernel(f: PolarFunction, T: float = 1.0,
                n_rect: int = 1) -> tuple[PolarFunction, Curve, tuple[LogPoleSpec, ...]]:
    """Kernel F = f / (L^2 cos(T L)), L = log r + i theta, with its rectangle.

    Returns (F, boundary of the chart square [-n pi/T, n pi/T]^2, poles):
    an order-2 logarithmic pole at (1, 0) with factor f/cos(T L) and simple
    poles at (e^{(k+1/2) pi/T}, 0) for k = -n..n-1 with factors
    f (L - L_k)/(L^2 cos(T L)).  The c-residue at (1, 0) equals
    (Theta_c f)(1, 0) and

        (res_c F)(r_k, 0) = (4 T / pi^2) (-1)^{k+1} (2k+1)^{-2} r_k^c f(r_k, 0),

    so summing residues over growing rectangles rebuilds the sampling form
    of the derivative.
    """
    if not (T > 0.0):
        raise PreconditionError("T must be positive")
    if n_rect < 1:
        raise PreconditionError("n_rect must be >= 1")
    half = n_rect * math.pi / T
    cos_t = _profiled(0.0, T, TrigTone(0.0, 1.0), name=f"cos({T}L)")

    sample_points = [PolarPoint(math.exp((k + 0.5) * math.pi / T), 0.0)
                     for k in range(-n_rect, n_rect)]
    punctures = (PolarPoint(1.0, 0.0), *sample_points)

    def F_log_fn(x, th):
        L = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
        return f.values_log(x, th) / (L * L * np.cos(T * L))

    F = PolarFunction(F_log_fn, domain=Domain(excluded=punctures),
                      name=f"boas_kernel({f.name})")

    with warnings.catch_warnings():
        # f may vanish at (1, 0) (the sine witness does); see LogPoleSpec.
        warnings.simplefilter("ignore", UserWarning)
        poles = [LogPoleSpec(PolarPoint(1.0, 0.0), 2, divide(f, cos_t))]
        for k in range(-n_rect, n_rect):
            poles.append(LogPoleSpec(sample_points[k + n_rect], 1,
                                     _simple_pole_factor(f, T, k)))
    rect = LogRectangle(-half, half, -half, half)
    return F, rect.boundary(), tuple(poles)


def _simple_pole_factor(f: PolarFunction, T: float, k: int) -> PolarFunction:
    """Regular factor of the kernel at L_k = (k + 1/2) pi / T:

        g_k = f (L - L_k) / (L^2 cos(T L)),

    with the removable 0/0 at L = L_k evaluated through
    cos(T L) = (-1)^{k+1} sin(T (L - L_k)).
    """
    Lk = (k + 0.5) * math.pi / T
    sign = (-1.0) ** (k + 1)

    def log_fn(x, th):
        L = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
        w = L - Lk
        small = np.abs(w) < 1e-6
        L_safe = np.where(small, Lk + math.pi / (2.0 * T), L)  # |cos| = 1 there
        direct = np.where(small, 1.0, w) / np.cos(T * L_safe)
        near = (1.0 + (T * w) ** 2 / 6.0) * (sign / T)
        ratio = np.where(small, near, direct)
        return f.values_log(x, th) * ratio / (L * L)

    return PolarFunction(log_fn, domain=WHOLE_PLANE, name=f"pole_factor(k={k})")
