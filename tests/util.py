"""Shared test helpers: deterministic point sets and independent oracles."""

import math
from fractions import Fraction

import numpy as np

from mellin_polar import MellinBernsteinMember, PolarFunction, PolarPoint, PreconditionError

# plastic-constant (R2) low-discrepancy sequence: deterministic quasi-random
_R2_A = 0.7548776662466927
_R2_B = 0.5698402909980532


def lattice_points(n, log_r_range=(-2.0, 2.0), theta_range=(-2.0, 2.0)):
    """n quasi-random chart points (log r, theta), reproducible."""
    pts = []
    for i in range(1, n + 1):
        u = (0.5 + i * _R2_A) % 1.0
        v = (0.5 + i * _R2_B) % 1.0
        x = log_r_range[0] + (log_r_range[1] - log_r_range[0]) * u
        th = theta_range[0] + (theta_range[1] - theta_range[0]) * v
        pts.append((x, th))
    return pts


def brute_force_stirling(c, k):
    """Independent oracle for the generalized Stirling row S_c(k, .).

    The defining identity: applying (x d/dx + c) k times to x^a multiplies it
    by (a + c)^k, while the claimed expansion gives
    sum_j S_c(k, j) * falling(a, j).  Solving that linear system over
    a = 0..k in exact Fraction arithmetic (it is lower-triangular, since
    falling(a, j) = 0 for j > a) determines the row uniquely.
    """
    c = Fraction(c)

    def falling(a, j):
        out = Fraction(1)
        for i in range(j):
            out *= a - i
        return out

    coeffs = [Fraction(0)] * (k + 1)
    for a in range(k + 1):
        target = (Fraction(a) + c) ** k
        acc = sum((coeffs[j] * falling(a, j) for j in range(a)), Fraction(0))
        coeffs[a] = (target - acc) / falling(a, a)  # falling(a, a) = a! != 0
    return coeffs


def loglog_slope(ns, errs):
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# reference forms of the theory, used as oracles
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
