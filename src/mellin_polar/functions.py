"""Closed-form polar-analytic test functions and Mellin-Bernstein metadata.

The Mellin-Bernstein space B^inf_{c,T} collects functions that are
polar-analytic on all of H, have a bounded weighted restriction to the
positive reals, and satisfy the growth bound

    r^c |f(r, theta)| <= C_f e^{T |theta|}        on H.

Members built here carry their class parameters (c, T, C_f), closed-form
derivative metadata, and a *weighted profile*

    wp(x, theta) = e^{c x} f(e^x, theta),

which is the quantity the sampling series actually consume.  For a member
the profile is bounded by C_f e^{T|theta|}, so evaluating it directly (rather
than multiplying e^{c x} by f at huge radii) keeps the series finite at any
truncation order.

sinc convention used throughout: sinc(t) = sin(pi t)/(pi t), sinc(0) = 1.
With it the function lin_c(x) = x^{-c} sinc(log x) vanishes at x = e^k for
every nonzero integer k and equals 1 at x = 1, matching the sample lattice
of the reconstruction formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .core import (
    Domain,
    DomainError,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    WHOLE_PLANE,
    mellin_derivative,
    scale,
)

__all__ = [
    "LogGrid",
    "MellinBernsteinMember",
    "NormEstimate",
    "central_mellin_difference",
    "function_registry",
    "lin_value",
    "make_lin",
    "make_mellin_sine",
    "make_power",
    "make_sine_blend",
    "mellin_dilate",
    "mellin_translate",
    "sinc",
    "sup_norm",
    "theta_shift",
    "verify_growth_bound",
]

_EULER_GAMMA = 0.5772156649015328606065


# ---------------------------------------------------------------------------
# Entire scalar profiles G(w); a profiled function on H is
# e^{-weight*(x + i theta)} * G(rate*(x + i theta)).
# ---------------------------------------------------------------------------

def sinc(w):
    """sin(pi w)/(pi w) for real or complex input, 1 at w = 0."""
    w = np.asarray(w, dtype=complex)
    pw = np.pi * np.where(w == 0, 1.0, w)
    out = np.sin(pw) / pw
    return np.where(w == 0, 1.0 + 0j, out)


def _sinc_prime(w):
    """d/dw [sin(pi w)/(pi w)], series-switched near the removable point."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 1.0, w)
    direct = (np.cos(np.pi * ws) - np.sin(np.pi * ws) / (np.pi * ws)) / ws
    series = -(np.pi ** 2) * w / 3.0 + (np.pi ** 4) * w ** 3 / 30.0
    return np.where(small, series, direct)


class TrigTone:
    """a*sin(w) + b*cos(w); closed under differentiation."""

    __slots__ = ("sin_coef", "cos_coef")

    def __init__(self, sin_coef=1.0, cos_coef=0.0):
        self.sin_coef = complex(sin_coef)
        self.cos_coef = complex(cos_coef)

    def value(self, w):
        return self.sin_coef * np.sin(w) + self.cos_coef * np.cos(w)

    def deriv(self):
        # (a sin + b cos)' = a cos - b sin
        return TrigTone(-self.cos_coef, self.sin_coef)


class ProfileSum:
    """Linear combination of profiles (fallback when tones cannot merge)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    def value(self, w):
        total = 0.0
        for coef, g in self.terms:
            total = total + coef * g.value(w)
        return total

    def deriv(self):
        derivs = []
        for coef, g in self.terms:
            d = g.deriv()
            if d is None:
                return None
            derivs.append((coef, d))
        return ProfileSum(derivs)


def _combine_profiles(a, g1, b, g2):
    """a*g1 + b*g2, merged into one tone when both are tones."""
    if isinstance(g1, TrigTone) and isinstance(g2, TrigTone):
        return TrigTone(a * g1.sin_coef + b * g2.sin_coef,
                        a * g1.cos_coef + b * g2.cos_coef)
    return ProfileSum([(a, g1), (b, g2)])


class SincProfile:
    """sinc(w); first derivative closed, chain ends there."""

    def value(self, w):
        return sinc(w)

    def deriv(self):
        return _SincPrimeProfile()


class _SincPrimeProfile:
    def value(self, w):
        return _sinc_prime(w)

    def deriv(self):
        return None


def _si(z):
    return special.sici(np.asarray(z, dtype=complex))[0]


def _cin(z):
    """Entire even cosine integral Cin(z) = gamma + log z - Ci(z)."""
    z = np.asarray(z, dtype=complex)
    zm = np.where(z.real < 0, -z, z)  # Cin is even; keep scipy's Ci branch happy
    ci = special.sici(np.where(zm == 0, 1.0, zm))[1]
    out = _EULER_GAMMA + np.log(np.where(zm == 0, 1.0, zm)) - ci
    return np.where(z == 0, 0.0 + 0j, out)


class SineBlendProfile:
    """Dominant tone plus a uniform blend of slower tones:

        G(w) = amp*sin(w) + integral_{floor <= e <= 1/2} sin((1-e) w) / e de.

    The 1/e weight concentrates mass just below the top frequency, which
    makes the alternating-stripped coefficients of both sampling series
    asymptotically constant-sign: their truncation errors then decay at the
    worst-case rates of the a-priori bounds (the reference family for
    convergence-rate studies).  Closed form via the entire integrals Si/Cin:

        G(w) = (amp + log(1/(2 floor)) - Cin(w/2) + Cin(floor*w)) sin(w)
               - (Si(w/2) - Si(floor*w)) cos(w),

    bounded by (amp + log(1/(2 floor))) e^{|Im w|}.
    """

    __slots__ = ("amp", "floor", "log_factor")

    def __init__(self, amp=10.0, floor=1e-4):
        if not (0.0 < floor < 0.5):
            raise PreconditionError("blend floor must lie in (0, 1/2)")
        self.amp = float(amp)
        self.floor = float(floor)
        self.log_factor = math.log(1.0 / (2.0 * floor))

    def bound_constant(self):
        return self.amp + self.log_factor

    def _blend_integrals(self, w):
        """(amp + log(1/(2 floor)) - Cin(w/2) + Cin(floor w), Si(w/2) - Si(floor w))."""
        c1 = self.log_factor - _cin(w / 2.0) + _cin(self.floor * w)
        s1 = _si(w / 2.0) - _si(self.floor * w)
        return self.amp + c1, s1

    def value(self, w):
        w = np.asarray(w, dtype=complex)
        c1, s1 = self._blend_integrals(w)
        return c1 * np.sin(w) - s1 * np.cos(w)

    def deriv(self):
        return _SineBlendPrimeProfile(self)


class _SineBlendPrimeProfile:
    __slots__ = ("base",)

    def __init__(self, base: SineBlendProfile):
        self.base = base

    def value(self, w):
        b = self.base
        w = np.asarray(w, dtype=complex)
        c1, s1 = b._blend_integrals(w)
        small = np.abs(w) < 1e-6
        ws = np.where(small, 1.0, w)
        tail = (np.sin((1.0 - b.floor) * ws) - np.sin(ws / 2.0)) / ws
        tail = np.where(small, (0.5 - b.floor) + 0.0 * w, tail)
        return c1 * np.cos(w) + s1 * np.sin(w) - tail

    def deriv(self):
        return None


# ---------------------------------------------------------------------------
# Profiled functions on H and the library factories
# ---------------------------------------------------------------------------

def _profiled(weight: float, rate: float, profile, name: str) -> PolarFunction:
    """f(r, theta) = (r e^{i theta})^{-weight} G(rate (log r + i theta))."""
    weight = float(weight)
    rate = float(rate)

    def log_fn(x, th):
        w = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
        return np.exp(-weight * w) * profile.value(rate * w)

    f = PolarFunction(log_fn, domain=WHOLE_PLANE, name=name)
    dG = profile.deriv()
    if dG is not None:
        f.theta_chain = lambda c: _profiled(
            weight, rate, _combine_profiles(rate, dG, c - weight, profile),
            name=f"Theta_{c}[{name}]")
    return f


def make_power(a: complex) -> PolarFunction:
    """f(r, theta) = (r e^{i theta})^a := e^{a (log r + i theta)}.

    Single-valued on H by construction; eigenfunction of every Theta_c with
    eigenvalue a + c, so its Theta-chain is exact at any order.
    """
    a = complex(a)

    def log_fn(x, th):
        return np.exp(a * (np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)))

    f = PolarFunction(log_fn, domain=WHOLE_PLANE, name=f"power({a})")
    f.theta_chain = lambda c: scale(f, a + c, name=f"{a + c}*power({a})")
    return f


@dataclass(frozen=True)
class LogGrid:
    """Log-uniform radial grid, the search domain of grid-sup norms."""

    log_min: float = -6.0
    log_max: float = 6.0
    count: int = 4001

    def __post_init__(self):
        if not (self.log_min < self.log_max) or self.count < 2:
            raise PreconditionError("grid needs log_min < log_max and count >= 2")

    def xs(self) -> np.ndarray:
        return np.linspace(self.log_min, self.log_max, self.count)

    def radii(self) -> np.ndarray:
        return np.exp(self.xs())

    def describe(self) -> str:
        return f"log r in [{self.log_min}, {self.log_max}], {self.count} points"


@dataclass(frozen=True)
class NormEstimate:
    """Grid estimate of the weighted sup norm sup_r r^c |f(r, theta)|.

    A lower bound of the true sup: the grid sup never exceeds it.
    """

    value: float
    grid_spec: str
    truncation_note: str


class MellinBernsteinMember:
    """A polar-analytic function tagged with class data (c, T, C_f).

    ``weighted_profile(x, theta)`` evaluates e^{c x} f(e^x, theta) stably
    (library members compute it structurally, so geometric sample radii far
    beyond float range stay finite).  Theta_c f has one closed form, the
    Theta-chain of ``f``, evaluated by :meth:`theta_c`.
    """

    __slots__ = ("f", "c", "T", "growth_constant", "name", "weighted_profile")

    def __init__(self, f: PolarFunction, c: float, T: float, growth_constant: float,
                 name: str = "", weighted_profile=None):
        if not (T > 0.0):
            raise PreconditionError("exponential type T must be positive")
        if not (growth_constant > 0.0):
            raise PreconditionError("growth constant must be positive")
        self.f = f
        self.c = float(c)
        self.T = float(T)
        self.growth_constant = float(growth_constant)
        self.name = name or f.name
        self.weighted_profile = weighted_profile or _generic_weighted_profile(f, self.c)

    def value(self, p: PolarPoint) -> complex:
        return self.f(p)

    def theta_c(self, p: PolarPoint) -> complex:
        """(Theta_c f)(p) at the member's own weight c."""
        return mellin_derivative(self.f, p, self.c)

    def as_class(self, T_new: float, growth_constant: float | None = None) -> "MellinBernsteinMember":
        """View the member inside a wider class (T_new >= T keeps the bound)."""
        if T_new < self.T:
            raise PreconditionError("a member can only be re-classed with a larger type")
        return MellinBernsteinMember(
            self.f, self.c, T_new, growth_constant or self.growth_constant,
            name=f"{self.name}|T={T_new}",
            weighted_profile=self.weighted_profile)

    def __repr__(self):
        return (f"MellinBernsteinMember({self.name}, c={self.c}, T={self.T}, "
                f"C_f={self.growth_constant})")


def _generic_weighted_profile(f: PolarFunction, c: float):
    def wp(x, theta):
        x = np.asarray(x, dtype=float)
        return np.exp(c * x) * f.values_log(x, theta)
    return wp


def _profiled_member(weight_c, rate_T, profile, growth_constant, name) -> MellinBernsteinMember:
    """Member whose weight matches its class parameter c (stable profiles)."""
    f = _profiled(weight_c, rate_T, profile, name)

    def wp(x, theta):
        w = np.asarray(x, dtype=float) + 1j * np.asarray(theta, dtype=float)
        return np.exp(-1j * weight_c * np.asarray(theta, dtype=float)) * profile.value(rate_T * w)

    return MellinBernsteinMember(f, weight_c, rate_T, growth_constant,
                                 name=name, weighted_profile=wp)


def make_mellin_sine(c: float, T: float) -> MellinBernsteinMember:
    """f(r, theta) = (r e^{i theta})^{-c} sin(T (log r + i theta)).

    The equality witness of the class (c, T): C_f = 1 since
    |sin(T(x + i y))| <= e^{T |y|}, and Theta_c f = T (.)^{-c} cos(T log(.)),
    attained in closed form.  Vanishes on the whole sample lattice
    (e^{k pi / T}, 0).
    """
    if not (T > 0.0):
        raise PreconditionError("T must be positive")
    return _profiled_member(float(c), float(T), TrigTone(1.0, 0.0), 1.0,
                            name=f"mellin_sine(c={c},T={T})")


def make_sine_blend(c: float, T: float, amplitude: float = 10.0,
                    floor: float = 1e-4) -> MellinBernsteinMember:
    """Member of class (c, T) whose truncation errors track the a-priori
    bound decay rates (see SineBlendProfile); C_f = amplitude + log(1/(2 floor))."""
    if not (T > 0.0):
        raise PreconditionError("T must be positive")
    profile = SineBlendProfile(amplitude, floor)
    return _profiled_member(float(c), float(T), profile, profile.bound_constant(),
                            name=f"sine_blend(c={c},T={T})")


def make_lin(c: float) -> PolarFunction:
    """Polar extension of lin_c(x) = x^{-c} sinc(log x), lin_c(1) := 1.

    The Mellin analogue of the sinc kernel: equals 1 at (1, 0) and vanishes
    at (e^k, 0) for every nonzero integer k.
    """
    return _profiled(float(c), 1.0, SincProfile(), name=f"lin(c={c})")


def lin_value(c: float, x) -> np.ndarray:
    """lin_c on the positive reals (the form used by the sampling formulas)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("lin_c is defined on positive reals")
    return np.asarray((x ** (-float(c)) * sinc(np.log(x))).real)


def power_member(c: float, b: float) -> MellinBernsteinMember:
    """(r e^{i theta})^{-c + i b}: unimodular weighted profile, class (c, |b|)."""
    if b == 0.0:
        raise PreconditionError("b = 0 has exponential type 0; pick b != 0")
    f = make_power(complex(-c, b))
    return MellinBernsteinMember(
        f, float(c), abs(float(b)), 1.0, name=f"power_member(c={c},b={b})",
        weighted_profile=lambda x, th: np.exp(
            1j * b * np.asarray(x, dtype=float) + complex(-c, b) * 1j * np.asarray(th, dtype=float)))


# ---------------------------------------------------------------------------
# The three space-preserving transformations: chart-affine maps
# zeta -> a zeta + b of zeta = log r + i theta
# ---------------------------------------------------------------------------

def _pullback(f: PolarFunction, a: float, b: complex, s: float, name: str) -> PolarFunction:
    """g(zeta) = s f(a zeta + b), with the chain Theta_c g = a s (Theta_{c/a} f)(a zeta + b)."""
    br, bi = b.real, b.imag
    domain = f.domain
    if domain != WHOLE_PLANE:
        pre = [(q.log_z - b) / a for q in domain.excluded]
        domain = Domain((domain.theta_min - bi) / a, (domain.theta_max - bi) / a,
                        tuple(PolarPoint(math.exp(z.real), z.imag) for z in pre))

    def log_fn(x, th):
        return s * f.log_fn(a * x + br, a * th + bi)

    g = PolarFunction(log_fn, domain=domain, name=name)
    if f.theta_chain is not None:
        g.theta_chain = lambda c: _pullback(f.theta_chain(c / a), a, b, a * s,
                                            f"Theta_{c}[{name}]")
    return g


def _chart_affine(m: MellinBernsteinMember, a: float, b: complex, s: float,
                  name: str) -> MellinBernsteinMember:
    """g(zeta) = s f(a zeta + b) for a member f of class (c, T, C_f), a > 0.

    s must equal e^{c Re b} (up to rounding): the weight then cancels and
    g lies in class (a c, a T, C_f e^{T |Im b|}) with the pulled-back
    profile

        wp_g(x, theta) = wp_f(a x + Re b, a theta + Im b).

    Derivative law, at every order the chain of f reaches:
    (Theta_{c'} g)(zeta) = a s (Theta_{c'/a} f)(a zeta + b).
    """
    br, bi = b.real, b.imag
    wp_f = m.weighted_profile
    return MellinBernsteinMember(
        _pullback(m.f, a, b, s, name), a * m.c, a * m.T,
        m.growth_constant * math.exp(m.T * abs(bi)), name=name,
        weighted_profile=lambda x, th: wp_f(a * x + br, a * th + bi))


def mellin_translate(m: MellinBernsteinMember, t: float) -> MellinBernsteinMember:
    """g(r, theta) = t^c f(t r, theta): same class (c, T, C_f).

    Derivative law: (Theta_c g)(r, theta) = t^c (Theta_c f)(t r, theta);
    the weighted profile simply shifts, wp_g(x, th) = wp_f(x + log t, th).
    """
    if not (t > 0.0):
        raise PreconditionError("translation parameter t must be positive")
    return _chart_affine(m, 1.0, complex(math.log(t), 0.0), t ** m.c,
                         f"translate({m.name}, t={t})")


def mellin_dilate(m: MellinBernsteinMember) -> MellinBernsteinMember:
    """h(r, theta) = f(r^{1/T}, theta/T): lands in class (c/T, 1), same C_f.

    Derivative law: (Theta_{c/T} h)(r, theta) = (1/T)(Theta_c f)(r^{1/T}, theta/T).
    """
    return _chart_affine(m, 1.0 / m.T, 0j, 1.0, f"dilate({m.name})")


def theta_shift(m: MellinBernsteinMember, alpha: float) -> MellinBernsteinMember:
    """phi(r, theta) = f(r, theta + alpha): class (c, T), C_phi = C_f e^{T |alpha|}.

    Derivative law: (Theta_c phi)(r, theta) = (Theta_c f)(r, theta + alpha).
    """
    alpha = float(alpha)
    return _chart_affine(m, 1.0, complex(0.0, alpha), 1.0,
                         f"theta_shift({m.name}, alpha={alpha})")


# ---------------------------------------------------------------------------
# Central Mellin differences and the weighted sup norm
# ---------------------------------------------------------------------------

def central_mellin_difference(f: PolarFunction, p: PolarPoint, c: float, h: float) -> complex:
    """(delta_{c,h} f)(p) = h^c f(h r, theta) - h^{-c} f(r/h, theta)."""
    if not (h > 0.0):
        raise PreconditionError("increment h must be positive")
    x, th = math.log(p.r), p.theta
    lh = math.log(h)
    for dx in (lh, -lh):
        f.domain.require(PolarPoint(math.exp(x + dx), th))
    hc = math.exp(c * lh)
    return complex(hc * f.log_fn(x + lh, th) - f.log_fn(x - lh, th) / hc)


def sup_norm(f: PolarFunction, c: float, theta: float = 0.0,
             grid: LogGrid = LogGrid()) -> NormEstimate:
    """Grid sup of r^c |f(r, theta)| — the X_c^infinity norm estimate.

    A lower bound of the true sup over r > 0 (honest for inequality checks
    with explicit slack); the grid is reported alongside the value.
    """
    xs = grid.xs()
    vals = np.abs(np.exp(c * xs) * f.values_log(xs, theta))
    return NormEstimate(
        value=float(np.max(vals)),
        grid_spec=grid.describe(),
        truncation_note="grid sup; lower bound of the sup over all r > 0")


def verify_growth_bound(m: MellinBernsteinMember,
                        log_range: tuple[float, float] = (-6.0, 6.0),
                        theta_range: tuple[float, float] = (-3.0, 3.0),
                        n_log: int = 41, n_theta: int = 41) -> float:
    """Minimum slack of C_f e^{T|theta|} - r^c |f| over the verification grid.

    Nonnegative iff the declared growth bound holds on the grid.  Members
    that attain the bound with exact equality evaluate the two sides through
    different floating routes, so the comparison carries a 1e-13 relative
    rounding margin (far below any meaningful violation).
    """
    xs = np.linspace(log_range[0], log_range[1], n_log)
    ths = np.linspace(theta_range[0], theta_range[1], n_theta)
    X, TH = np.meshgrid(xs, ths, indexing="ij")
    weighted = np.abs(m.weighted_profile(X.ravel(), TH.ravel()))
    allowed = m.growth_constant * np.exp(m.T * np.abs(TH.ravel()))
    return float(np.min(allowed * (1.0 + 1e-13) - weighted))


# ---------------------------------------------------------------------------
# Registry (consumed by the CLI)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistryEntry:
    ident: str
    params: tuple[str, ...]
    summary: str
    note: str
    build: Callable[..., object]


def _build_translated_sine(c=0.0, T=1.0, t_shift=None, **_):
    t = t_shift if t_shift is not None else math.exp(math.pi / (6.0 * T))
    return mellin_translate(make_mellin_sine(c, T), t)


def _build_translated_blend(c=0.0, T=1.0, t_shift=None, **_):
    t = t_shift if t_shift is not None else math.exp(0.4 / T)
    return mellin_translate(make_sine_blend(c, T), t)


_REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry(
        "mellin-sine", ("c", "T"),
        "(re^{i th})^{-c} sin(T(log r + i th)); class (c, T), C_f = 1",
        "equality witness of the Bernstein inequality; vanishes on the sample lattice",
        lambda c=0.0, T=1.0, **_: make_mellin_sine(c, T)),
    RegistryEntry(
        "translated-sine", ("c", "T", "t-shift"),
        "t^c f(t r, th) for f = mellin-sine; class (c, T), C_f = 1",
        "default t-shift = e^{pi/(6T)} puts all ring samples at magnitude 1/2",
        _build_translated_sine),
    RegistryEntry(
        "theta-shifted-sine", ("c", "T", "alpha"),
        "f(r, th + alpha) for f = mellin-sine; class (c, T), C_f = e^{T|alpha|}",
        "angular-shift invariance witness",
        lambda c=0.0, T=1.0, alpha=0.5, **_: theta_shift(make_mellin_sine(c, T), alpha)),
    RegistryEntry(
        "sine-blend", ("c", "T", "t-shift"),
        "dominant tone + uniform sub-frequency blend; class (c, T), C_f ~= 18.5",
        "truncation errors decay at the worst-case rates of the a-priori bounds",
        _build_translated_blend),
    RegistryEntry(
        "power", ("a",),
        "(re^{i th})^a = e^{a(log r + i th)}; eigenfunction: Theta_c -> (a+c)",
        "not a Bernstein member unless Re a = -c",
        lambda a=1.0, **_: make_power(a)),
    RegistryEntry(
        "lin", ("c",),
        "x^{-c} sinc(log x) extended to H; class (c, pi), C_f = 1",
        "sinc convention: sinc(t) = sin(pi t)/(pi t); zeros at x = e^k, k != 0",
        lambda c=0.0, **_: make_lin(c)),
)


def function_registry() -> tuple[RegistryEntry, ...]:
    """Stable, ordered listing of the shipped function constructors."""
    return _REGISTRY
