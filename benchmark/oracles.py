"""Reference values computed apart from the library.

Nothing here imports ``mellin_polar``.  Every function in the workloads is a
*profiled* function

    f(r, theta) = (r e^{i(theta + alpha)})^{-c} G(T (log r + log t + i(theta + alpha)))

for an entire profile G, so the weighted Mellin derivatives have the closed
form

    (Theta_c^k f)(r, theta) = (r e^{i(theta + alpha)})^{-c} T^k G^{(k)}(T L'),

with L' the shifted chart coordinate.  ``sin`` gives the mellin-sine family
(translation t, angular shift alpha), ``blend`` the sine-blend profile through
its integral definition evaluated by mpmath, and ``sinc`` the lin kernel
through sinc(w) = int_0^1 cos(pi w s) ds.  Complex powers z^a are
eigenfunctions: Theta_c^k z^a = (a + c)^k z^a.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath

mpmath.mp.dps = 30

BLEND_AMP = 10.0
BLEND_FLOOR = 1e-4
# breakpoints for the 1/e weight of the blend integral
_BLEND_SPLITS = [BLEND_FLOOR, 1e-3, 1e-2, 0.1, 0.5]


def blend_derivative(w: complex, k: int) -> complex:
    """G^{(k)}(w) for G(w) = amp sin w + int_floor^{1/2} sin((1-e) w)/e de."""
    wm = mpmath.mpc(w)
    shift = k * mpmath.pi / 2

    def integrand(e):
        return (1 - e) ** k * mpmath.sin((1 - e) * wm + shift) / e

    total = BLEND_AMP * mpmath.sin(wm + shift) + mpmath.quad(integrand, _BLEND_SPLITS)
    return complex(total)


def sinc_derivative(w: complex, k: int) -> complex:
    """k-th derivative of sin(pi w)/(pi w) through its cosine integral."""
    if k == 0:
        return 1.0 + 0j if w == 0 else cmath.sin(math.pi * w) / (math.pi * w)
    wm = mpmath.mpc(w)
    shift = k * mpmath.pi / 2
    val = mpmath.quad(lambda s: (mpmath.pi * s) ** k * mpmath.cos(mpmath.pi * wm * s + shift),
                      [0, 1])
    return complex(val)


def sin_derivative(w: complex, k: int) -> complex:
    return cmath.sin(w + k * math.pi / 2)


PROFILES = {"sin": sin_derivative, "blend": blend_derivative, "sinc": sinc_derivative}


@dataclass(frozen=True)
class Profiled:
    """(r e^{i(theta+alpha)})^{-c} G(T (log r + lt + i(theta + alpha)))."""

    profile: str
    c: float
    T: float
    lt: float = 0.0
    alpha: float = 0.0
    growth: float = 1.0

    def theta_power(self, x: float, theta: float, k: int) -> complex:
        """(Theta_c^k f)(e^x, theta) at the function's own weight c."""
        th = theta + self.alpha
        w = self.T * complex(x + self.lt, th)
        return (cmath.exp(-self.c * complex(x, th)) * self.T ** k
                * PROFILES[self.profile](w, k))

    def weighted(self, x: float, theta: float, k: int = 0) -> complex:
        """e^{c x} (Theta_c^k f)(e^x, theta): the bounded weighted profile."""
        return math.exp(self.c * x) * self.theta_power(x, theta, k)


@dataclass(frozen=True)
class Power:
    """z^a with z = r e^{i theta}; here Theta_c^k uses the weight passed in."""

    a: complex

    def theta_power(self, x: float, theta: float, k: int, c: float) -> complex:
        return (self.a + c) ** k * cmath.exp(self.a * complex(x, theta))


@dataclass(frozen=True)
class PowerMember:
    """(r e^{i theta})^{-c + i b}: class (c, |b|), unimodular weighted profile."""

    c: float
    b: float
    growth: float = 1.0

    @property
    def T(self) -> float:
        return abs(self.b)

    def theta_power(self, x: float, theta: float, k: int) -> complex:
        a = complex(-self.c, self.b)
        return (a + self.c) ** k * cmath.exp(a * complex(x, theta))

    def weighted(self, x: float, theta: float, k: int = 0) -> complex:
        return math.exp(self.c * x) * self.theta_power(x, theta, k)


def blend_growth() -> float:
    return BLEND_AMP + math.log(1.0 / (2.0 * BLEND_FLOOR))


def derivative_at(fn, x: float, theta: float, k: int, c: float) -> complex:
    """(Theta_c^k f)(e^x, theta); profiled functions take their own weight."""
    if isinstance(fn, Power):
        return fn.theta_power(x, theta, k, c)
    return fn.theta_power(x, theta, k)


# ---------------------------------------------------------------------------
# A-priori bounds, derived independently of the library's code
# ---------------------------------------------------------------------------

def boas_bound(growth: float, T: float, x: float, theta: float, c: float, n: int) -> float:
    """4 C_f r^{-c} T e^{T|theta|} / (pi^2 (2n - 1))."""
    return (4.0 * growth * T * math.exp(T * abs(theta)) * math.exp(-c * x)
            / (math.pi ** 2 * (2.0 * n - 1.0)))


def valiron_bound(growth: float, T: float, x: float, theta: float, c: float, n: int) -> float:
    """C_f r^{-c} T e^{T|theta|} / (pi (4 (n-1)^2 - 1))."""
    return (growth * T * math.exp(T * abs(theta)) * math.exp(-c * x)
            / (math.pi * (4.0 * (n - 1.0) ** 2 - 1.0)))


def reconstruct_bound(growth: float, x: float, n: int) -> float:
    """Truncation bound of the Valiron reconstruction of r^c f(r, 0), x = T log r.

    The omitted terms are sin(x) x (-1)^{k+1} s_k / (k pi (k pi - x)) for
    |k| > n with |s_k| <= C_f, and for y = |x|/pi < n

        sum_{|k|>n} |x| / (|k| pi |k pi - x|) = (2|x|/pi^2) sum_{k>n} 1/(k^2 - y^2)
                                              <= (1/pi) log((n + y)/(n - y)).
    """
    y = abs(x) / math.pi
    return growth * abs(math.sin(x)) * math.log((n + y) / (n - y)) / math.pi


def fourier_bound(w: float, n: int) -> float:
    """Tail of the classical-line series for |g| <= 1:
    (w/pi) sum_{k>n} 2/(k(4k^2-1)) <= (w/pi) log(4n^2/(4n^2-1)) <= (w/pi)/(4n^2-1)."""
    return (w / math.pi) / (4.0 * n * n - 1.0)
