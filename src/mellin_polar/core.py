"""Differential calculus for polar-analytic functions on the half-plane.

The half-plane is H = {(r, theta) : r > 0, theta real}.  theta is a free
real coordinate and is never reduced modulo 2*pi: H stands in for the
Riemann surface of the logarithm, and the natural chart is
(x, y) = (log r, theta).  A function f on H is polar-analytic at a point
when the difference quotient against r*e^{i*theta} has a direction-free
limit there; equivalently d f/d theta = i r d f/d r (the polar form of
the Cauchy-Riemann equations).  That limit is the polar derivative

    (D_pol f)(r, theta) = e^{-i theta} df/dr = e^{-i theta}/(i r) df/dtheta,

and the weighted first-order operator built on it,

    (Theta_c f)(r, theta) = r e^{i theta} (D_pol f)(r, theta) + c f(r, theta),

is the half-plane analogue of the Mellin operator x d/dx + c.  Its k-th
power expands over pure polar derivatives with generalized Stirling
coefficients S_c(k, j), and drives a Taylor-type expansion in the variable
log(r/r0) + i(theta - theta0).

Everything here is double precision; all objects are immutable after
construction and every operation is pure.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "ConditioningWarning",
    "DegenerateInputError",
    "Domain",
    "DomainError",
    "GeneralizedStirlingTable",
    "PolarFunction",
    "PolarPoint",
    "PreconditionError",
    "TaylorExpansion",
    "ToleranceNotMetError",
    "WHOLE_PLANE",
    "add",
    "cauchy_riemann_residual",
    "constant",
    "divide",
    "higher_mellin_derivative",
    "mellin_derivative",
    "multiply",
    "polar_derivative_fd",
    "scale",
    "stirling_table",
    "taylor_expand",
]

DEFAULT_FD_STEP = 1e-3


class DomainError(ValueError):
    """Evaluation point outside a function's domain (or too close to it)."""


class PreconditionError(ValueError):
    """An operation's stated precondition is violated."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested operation (e.g. f == 0 on a grid)."""


class ToleranceNotMetError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerance.

    Carries the best estimate and the residual gap so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, message: str, best_estimate: complex, gap: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.gap = gap


class ConditioningWarning(UserWarning):
    """Result computed through an ill-conditioned numerical route."""


@dataclass(frozen=True)
class PolarPoint:
    """A point (r, theta) of the half-plane H, r > 0, theta unrestricted."""

    r: float
    theta: float

    def __post_init__(self):
        if not (self.r > 0.0) or not math.isfinite(self.r):
            raise DomainError(f"radial coordinate must be positive and finite, got {self.r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"angular coordinate must be finite, got {self.theta}")

    @property
    def z(self) -> complex:
        """The associated complex number r*e^{i*theta} (not injective on H)."""
        return self.r * cmath.exp(1j * self.theta)

    @property
    def log_z(self) -> complex:
        """Chart coordinate log r + i*theta (injective on H)."""
        return complex(math.log(self.r), self.theta)


@dataclass(frozen=True)
class Domain:
    """Sub-domain of H: an open theta-strip minus finitely many points.

    Distances are measured in the (log r, theta) chart, the natural metric
    of the calculus.  The default is the whole half-plane.
    """

    theta_min: float = -math.inf
    theta_max: float = math.inf
    excluded: tuple[PolarPoint, ...] = ()

    def __post_init__(self):
        if not self.theta_min < self.theta_max:
            raise PreconditionError("empty theta-strip")

    def margin(self, p: PolarPoint) -> float:
        """Chart distance from p to the nearest boundary piece or puncture."""
        m = min(self.theta_max - p.theta, p.theta - self.theta_min)
        w0 = p.log_z
        for q in self.excluded:
            m = min(m, abs(w0 - q.log_z))
        return m

    def contains(self, p: PolarPoint, margin: float = 0.0) -> bool:
        return self.margin(p) > margin

    def require(self, p: PolarPoint, margin: float = 0.0) -> None:
        if not self.contains(p, margin):
            raise DomainError(
                f"point (r={p.r}, theta={p.theta}) outside domain "
                f"(or within margin {margin} of its boundary/singularities)"
            )


WHOLE_PLANE = Domain()


class PolarFunction:
    """Evaluatable complex-valued function on a sub-domain of H.

    The evaluator works in the chart: ``log_fn(x, theta)`` with x = log r,
    vectorized over numpy arrays.  Closed-form derivatives follow one
    protocol, the optional ``theta_chain``: a map ``c -> PolarFunction``
    giving Theta_c f in closed form.  Its results carry chains of their own
    where the closed form continues, so following the chain gives
    Theta_c^k f for as many orders as it reaches.  Every other closed form
    derives from it; the polar derivative is

        D_pol f = e^{-(x + i theta)} Theta_0 f        (``dpol``).

    When present, the chain must agree with the finite-difference oracle;
    that is a tested contract, not an assumption.
    """

    __slots__ = ("log_fn", "domain", "theta_chain", "name")

    def __init__(self, log_fn, domain=WHOLE_PLANE, theta_chain=None, name=""):
        self.log_fn = log_fn
        self.domain = domain
        self.theta_chain = theta_chain
        self.name = name

    @property
    def dpol(self) -> Optional["PolarFunction"]:
        """Closed-form polar derivative e^{-(x + i theta)} Theta_0 f, or None."""
        if self.theta_chain is None:
            return None
        theta0 = self.theta_chain(0.0)

        def log_fn(x, th):
            w = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
            return np.exp(-w) * theta0.log_fn(x, th)

        return PolarFunction(log_fn, domain=self.domain, name=f"dpol[{self.name}]")

    def __call__(self, p: PolarPoint) -> complex:
        return complex(self.log_fn(math.log(p.r), p.theta))

    def values_log(self, x, theta):
        """Vectorized evaluation in the chart, x = log r."""
        return np.asarray(self.log_fn(np.asarray(x, dtype=float), np.asarray(theta, dtype=float)),
                          dtype=complex)

    def __repr__(self):
        return f"PolarFunction({self.name or 'anonymous'})"


# ---------------------------------------------------------------------------
# Algebra of functions with Theta-chains.  Theta_c is linear and obeys
# Leibniz rules (Theta_c = d/dzeta + c in the chart zeta = log r + i theta),
# which is what makes these combinators exact:
#     Theta_c(f g) = (Theta_c f) g + f (Theta_0 g),
#     Theta_c(f/g) = (Theta_c f)/g - f (Theta_0 g)/g^2.
# ---------------------------------------------------------------------------

def constant(value: complex, name: str = "") -> PolarFunction:
    value = complex(value)
    f = PolarFunction(lambda x, th: np.full(np.broadcast(x, th).shape, value, dtype=complex)
                      if np.ndim(x) or np.ndim(th) else value,
                      name=name or f"const({value})")
    if value == 0.0:
        f.theta_chain = lambda c: f
    else:
        f.theta_chain = lambda c: constant(c * value)
    return f


def scale(f: PolarFunction, alpha: complex, name: str = "") -> PolarFunction:
    alpha = complex(alpha)
    g = PolarFunction(lambda x, th: alpha * f.log_fn(x, th), domain=f.domain,
                      name=name or f"{alpha}*{f.name}")
    if f.theta_chain is not None:
        g.theta_chain = lambda c: scale(f.theta_chain(c), alpha)
    return g


def add(f: PolarFunction, g: PolarFunction, name: str = "") -> PolarFunction:
    dom = _intersect(f.domain, g.domain)
    h = PolarFunction(lambda x, th: f.log_fn(x, th) + g.log_fn(x, th), domain=dom,
                      name=name or f"({f.name}+{g.name})")
    if f.theta_chain is not None and g.theta_chain is not None:
        h.theta_chain = lambda c: add(f.theta_chain(c), g.theta_chain(c))
    return h


def multiply(f: PolarFunction, g: PolarFunction, name: str = "") -> PolarFunction:
    dom = _intersect(f.domain, g.domain)
    h = PolarFunction(lambda x, th: f.log_fn(x, th) * g.log_fn(x, th), domain=dom,
                      name=name or f"({f.name}*{g.name})")
    if f.theta_chain is not None and g.theta_chain is not None:
        h.theta_chain = lambda c: add(multiply(f.theta_chain(c), g),
                                      multiply(f, g.theta_chain(0.0)))
    return h


def divide(f: PolarFunction, g: PolarFunction, name: str = "") -> PolarFunction:
    """Quotient f/g.  Zeros of g are the caller's responsibility."""
    dom = _intersect(f.domain, g.domain)
    h = PolarFunction(lambda x, th: f.log_fn(x, th) / g.log_fn(x, th), domain=dom,
                      name=name or f"({f.name}/{g.name})")
    if f.theta_chain is not None and g.theta_chain is not None:
        h.theta_chain = lambda c: add(
            divide(f.theta_chain(c), g),
            scale(divide(multiply(f, g.theta_chain(0.0)), multiply(g, g)), -1.0))
    return h


def _intersect(a: Domain, b: Domain) -> Domain:
    if a is b or b == WHOLE_PLANE:
        return a
    if a == WHOLE_PLANE:
        return b
    return Domain(max(a.theta_min, b.theta_min), min(a.theta_max, b.theta_max),
                  tuple(dict.fromkeys(a.excluded + b.excluded)))


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------

def polar_derivative_fd(f: PolarFunction, p: PolarPoint, h: float = DEFAULT_FD_STEP) -> complex:
    """Central-difference estimate of the polar derivative D_pol f at p.

    The difference is taken in log r, so the step is scale-invariant:

        D(h) = e^{-i theta} [f(r e^h, th) - f(r e^{-h}, th)] / (r (e^h - e^{-h}))

    followed by one Richardson step combining D(h) and D(h/2), which removes
    the O(h^2) term and leaves an O(h^4) error.
    """
    if not (h > 0.0):
        raise PreconditionError("step h must be positive")
    f.domain.require(p, margin=h)
    return complex(_polar_derivative_fd_grid(f, math.log(p.r), p.theta, h))


def _polar_derivative_fd_grid(f: PolarFunction, x, theta, h: float = DEFAULT_FD_STEP):
    """The finite-difference body of :func:`polar_derivative_fd`, elementwise over chart arrays."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rot = np.exp(-1j * theta) * np.exp(-x)

    def diff(step):
        num = f.values_log(x + step, theta) - f.values_log(x - step, theta)
        return rot * num / (math.exp(step) - math.exp(-step))

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def mellin_derivative(f: PolarFunction, p: PolarPoint, c: float) -> complex:
    """(Theta_c f)(p) = r e^{i theta} (D_pol f)(p) + c f(p).

    The first order of :func:`higher_mellin_derivative`: the function's
    Theta-chain when it carries one, the finite-difference oracle otherwise.
    """
    return higher_mellin_derivative(f, p, c, 1)


def cauchy_riemann_residual(f: PolarFunction, p: PolarPoint, h: float = 1e-5) -> float:
    """|df/dtheta - i r df/dr| at p via central differences.

    Near zero certifies polar analyticity at p; an O(1) value is a witness
    of non-analyticity.  r df/dr is differenced in log r.  The default step
    balances O(h^2) truncation against roundoff for function values up to
    a few hundred in magnitude.
    """
    if not (h > 0.0):
        raise PreconditionError("step h must be positive")
    f.domain.require(p, margin=h)
    x, th = math.log(p.r), p.theta
    d_theta = (complex(f.log_fn(x, th + h)) - complex(f.log_fn(x, th - h))) / (2.0 * h)
    r_d_r = (complex(f.log_fn(x + h, th)) - complex(f.log_fn(x - h, th))) / (2.0 * h)
    return abs(d_theta - 1j * r_d_r)


# ---------------------------------------------------------------------------
# Generalized Stirling numbers and higher Mellin derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedStirlingTable:
    """Coefficients S_c(k, j) expanding Theta_c^k over pure polar derivatives:

        Theta_c^k f = sum_{j=0}^{k} S_c(k, j) r^j e^{i j theta} D_pol^j f.

    Built from S_c(0,0) = 1 by the recurrence

        S_c(k+1, j) = S_c(k, j-1) + (c + j) S_c(k, j),

    which follows from Theta_c = (r e^{i theta}) D_pol + c and the product
    rule.  Entries are kept as exact Fractions in c (every float is a dyadic
    rational, so this is lossless); ``value`` gives the float view.
    """

    c: float
    max_order: int
    rows: tuple[tuple[Fraction, ...], ...]

    def exact(self, k: int, j: int) -> Fraction:
        if j < 0 or j > k:
            return Fraction(0)
        return self.rows[k][j]

    def value(self, k: int, j: int) -> float:
        return float(self.exact(k, j))


def stirling_table(c: float, k_max: int) -> GeneralizedStirlingTable:
    if k_max < 0:
        raise PreconditionError("k_max must be >= 0")
    cf = Fraction(c)
    rows = [(Fraction(1),)]
    for k in range(k_max):
        prev = rows[k]
        row = []
        for j in range(k + 2):
            left = prev[j - 1] if 1 <= j <= k + 1 and j - 1 <= k else Fraction(0)
            diag = (cf + j) * prev[j] if j <= k else Fraction(0)
            row.append(left + diag)
        rows.append(tuple(row))
    return GeneralizedStirlingTable(c=float(c), max_order=k_max, rows=tuple(rows))


_NESTED_FD_STEPS = (1e-3, 3e-3, 1e-2, 3e-2)


def _fd_derivative_function(f: PolarFunction, h: float) -> PolarFunction:
    """D_pol f as a PolarFunction backed by the finite-difference oracle."""
    return PolarFunction(lambda x, th: _polar_derivative_fd_grid(f, x, th, h),
                         domain=f.domain, name=f"fd[D_pol {f.name}]")


def higher_mellin_derivative(f: PolarFunction, p: PolarPoint, c: float, k: int) -> complex:
    """(Theta_c^k f)(p), by two routes taken in turn.

    1. The function's Theta-chain is followed for as many of the k orders as
       it reaches.  This is exact and stable at any order.
    2. The orders the chain lacks are taken by nested central finite
       differences of the last closed form reached: D_pol^j for j up to the
       missing order m, with widening steps, combined by the Stirling sum
       Theta_c^m = sum_j S_c(m, j) (r e^{i theta})^j D_pol^j.  This route is
       ill-conditioned: beyond order 4 a ConditioningWarning is emitted and
       the digits decay quickly.

    p must lie in f's domain, and for route 2 as far inside the last closed
    form's domain as the nested steps reach.
    """
    if k < 0:
        raise PreconditionError("derivative order k must be >= 0")
    f.domain.require(p)
    g, done = f, 0
    while done < k and g.theta_chain is not None:
        g, done = g.theta_chain(c), done + 1
    if done == k:
        return g(p)
    m = k - done
    steps = [_NESTED_FD_STEPS[min(j, len(_NESTED_FD_STEPS) - 1)] for j in range(m)]
    g.domain.require(p, margin=sum(steps))
    if m > 4:
        warnings.warn(
            f"nested finite-difference polar derivatives of order {m} > 4 are "
            "ill-conditioned; supply closed-form derivatives for trustworthy digits",
            ConditioningWarning, stacklevel=2)
    table = stirling_table(c, m)
    x, th = math.log(p.r), p.theta
    derivs = [complex(g.log_fn(x, th))]
    for h in steps:
        g = _fd_derivative_function(g, h)
        derivs.append(complex(g.log_fn(x, th)))
    zj = 1.0 + 0j
    total = 0.0 + 0j
    for j in range(m + 1):
        total += table.value(m, j) * zj * derivs[j]
        zj *= p.z
    return total


# ---------------------------------------------------------------------------
# Taylor-type expansion in w = log(r/r0) + i (theta - theta0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorExpansion:
    """Finite Taylor expansion of (r e^{i theta})^c f around a center:

        (r e^{i th})^c f(r, th)
            ~ (r0 e^{i th0})^c * sum_k a_k (log(r/r0) + i(th - th0))^k,

    with a_k = (Theta_c^k f)(r0, th0) / k!.  ``partial_sum`` evaluates the
    truncated right-hand side; compare it against (r e^{i th})^c f(r, th).
    """

    center: PolarPoint
    c: float
    coefficients: tuple[complex, ...]
    order: int

    def partial_sum(self, p: PolarPoint, order: int | None = None) -> complex:
        if order is None:
            order = self.order
        if order < 0 or order > self.order:
            raise PreconditionError(f"partial-sum order must be in [0, {self.order}]")
        w = p.log_z - self.center.log_z
        acc = 0.0 + 0j
        for k in range(order, -1, -1):  # Horner
            acc = acc * w + self.coefficients[k]
        return cmath.exp(self.c * self.center.log_z) * acc

    def weighted_target(self, f: PolarFunction, p: PolarPoint) -> complex:
        """(r e^{i theta})^c f(r, theta), the quantity the sum approximates."""
        return cmath.exp(self.c * p.log_z) * f(p)


def taylor_expand(f: PolarFunction, p0: PolarPoint, c: float, K: int) -> TaylorExpansion:
    """Expansion coefficients a_k = (Theta_c^k f)(p0)/k! for k = 0..K.

    Each coefficient comes from :func:`higher_mellin_derivative`, so it is
    exact for the orders f's Theta-chain reaches.  Orders past the end of
    the chain fall to nested finite differences, which lose digits quickly
    once more than about 4 orders are missing: expansions of high order
    need a chain that reaches K.
    """
    if K < 0:
        raise PreconditionError("expansion order K must be >= 0")
    f.domain.require(p0)
    coeffs = []
    fact = 1.0
    for k in range(K + 1):
        if k > 0:
            fact *= k
        coeffs.append(higher_mellin_derivative(f, p0, c, k) / fact)
    return TaylorExpansion(center=p0, c=c, coefficients=tuple(coeffs), order=K)
