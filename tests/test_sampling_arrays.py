"""Array evaluation of the Valiron reconstruction, the lin forms and the tail gauge.

The reference below is the scalar evaluation the library used before its
lattice sums became array code: one kernel call per lattice point and one
compensated (Kahan) addition per term.  Every finite value of the array code
must equal it bitwise.  The tail gauge is checked against mpmath, and against
the former 20 000-term partial sum where the summand has poles.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from mellin_polar import (
    SampleSet,
    make_mellin_sine,
    make_sine_blend,
    mellin_translate,
    power_member,
    theta_shift,
    valiron_lin_form,
    valiron_reconstruct,
)
from mellin_polar.functions import lin_value, sinc
from mellin_polar.sampling import _reconstruct_tail_estimate

_WINDOW = 1e-8


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------

class _Kahan:
    def __init__(self):
        self.total = 0.0 + 0j
        self.carry = 0.0 + 0j

    def add(self, value):
        value = value + self.carry
        new_total = self.total + value
        self.carry = value - (new_total - self.total)
        self.total = new_total


def reference_reconstruct(s, r, n):
    """(value, last block, largest |weighted sample|) of the scalar loop."""
    T = s.T
    x = T * math.log(r)
    sin_x = math.sin(x)
    acc = _Kahan()
    acc.add(sin_x * s.center_derivative / T)
    if abs(x) < _WINDOW:
        acc.add(s.center_value)
    else:
        acc.add(sin_x * s.center_value / x)
    last_block = 0.0 + 0j
    scale_max = 0.0
    for k in range(1, n + 1):
        block = _Kahan()
        for kk in (k, -k):
            sk = s.weighted_ring[kk]
            scale_max = max(scale_max, abs(sk))
            kp = kk * math.pi
            if abs(x - kp) < _WINDOW:
                cont = (-1.0) ** (kk + 1) * float(sinc((x - kp) / math.pi).real)
                term = x * (-1.0) ** (kk + 1) * sk * cont / kp
            else:
                term = sin_x * x * (-1.0) ** (kk + 1) * sk / (kp * (kp - x))
            block.add(term)
        acc.add(block.total)
        last_block = block.total
    return acc.total, last_block, scale_max


def reference_lin_form(s, r, n, variant):
    T, c = s.T, s.c
    y = r ** (T / math.pi)
    log_r = math.log(r)
    log_y = T * log_r / math.pi
    nu, samples = (c * math.pi / T, s.ring_samples) if variant == "weighted" \
        else (0.0, s.weighted_ring)
    head = float(lin_value(nu, y))
    acc = _Kahan()
    acc.add(head * (log_r * s.center_derivative + s.center_value))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            for kk in (k, -k):
                kernel = float(lin_value(nu, math.exp(-kk) * y))
                acc.add(log_y * samples[kk] * kernel / kk)
    return acc.total if variant == "weighted" else acc.total * r ** (-c)


def reference_tail(x, n, scale):
    """The former gauge: 20 000 terms plus an integral remainder."""
    if scale == 0.0 or x == 0.0:
        return 0.0
    ks = np.arange(n + 1, n + 20001, dtype=float)
    kp = ks * math.pi
    with np.errstate(divide="ignore"):
        partial = float(np.sum(1.0 / (kp * np.abs(kp - x)) + 1.0 / (kp * np.abs(kp + x))))
    remainder = 2.0 / (math.pi ** 2 * (n + 20000))
    return abs(x) * scale * (partial + remainder)


# ---------------------------------------------------------------------------
# bitwise identity
# ---------------------------------------------------------------------------

MEMBERS = [
    ("blend", lambda: mellin_translate(make_sine_blend(0.3, 1.4), math.exp(0.25 / 1.4))),
    ("mellin-sine", lambda: make_mellin_sine(-0.6, 2.2)),
    ("theta-shifted-sine", lambda: theta_shift(make_mellin_sine(0.7, 1.3), 0.35)),
    ("power-member", lambda: power_member(0.45, -1.7)),
]
NS = (1, 2, 7, 256)


def _radii(T):
    lattice = [math.exp(k * math.pi / T) for k in (-3, -2, -1, 1, 2, 3)]
    return ([1.0] + lattice + [r * (1.0 + 1e-10) for r in lattice]
            + [0.5, 0.731, 0.97, 1.0 + 1e-9, 1.3, 2.0, 3.7])


@pytest.fixture(scope="module", params=MEMBERS, ids=[name for name, _ in MEMBERS])
def sample_set(request):
    return SampleSet.from_member(request.param[1](), max(NS))


def test_reconstruction_bitwise_identical(sample_set):
    for r in _radii(sample_set.T):
        for n in NS:
            want, last, scale = reference_reconstruct(sample_set, r, n)
            rep = valiron_reconstruct(sample_set, r, n)
            assert rep.value == want, (r, n)
            x = sample_set.T * math.log(r)
            if abs(x / math.pi - round(x / math.pi)) > 1e-6 or abs(x) < (n + 0.5) * math.pi:
                # away from the poles of the omitted lattice terms
                assert rep.empirical_tail == pytest.approx(
                    abs(last) + reference_tail(x, n, scale), rel=1e-5)


@pytest.mark.parametrize("variant", ["weighted", "plain"])
def test_lin_form_bitwise_identical(sample_set, variant):
    compared = 0
    for r in _radii(sample_set.T):
        for n in NS:
            want = reference_lin_form(sample_set, r, n, variant)
            got = valiron_lin_form(sample_set, r, n, variant)
            if np.isfinite(want):
                assert got == want, (r, n)
                compared += 1
            else:
                assert np.isfinite(got)
    assert compared >= len(_radii(sample_set.T)) * (len(NS) - 1)


# ---------------------------------------------------------------------------
# the weighted lin form far out on the lattice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c, T", [(0.95, 1.0), (-0.939, 1.021)])
def test_weighted_lin_form_finite_beyond_double_range(c, T):
    n = 256
    assert abs(c) * n * math.pi / T > 709.0  # raw samples leave the double range
    m = mellin_translate(make_mellin_sine(c, T), math.exp(math.pi / (6.0 * T)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = SampleSet.from_member(m, n)
        for r in (0.5, 0.83, 1.0, 1.21, 2.0):
            weighted = valiron_lin_form(s, r, n, "weighted")
            plain = valiron_lin_form(s, r, n, "plain")
            assert np.isfinite(weighted)
            assert abs(weighted - plain) <= 1e-10 * r ** (-c)


# ---------------------------------------------------------------------------
# closed-form tail gauge
# ---------------------------------------------------------------------------

def _nsum_gauge(x, n):
    # Euler-Maclaurin: the default Richardson extrapolation misses by ~1 %
    # when the sum starts at k = 257
    with mpmath.workdps(30):
        xm, pi = mpmath.mpf(x), mpmath.pi
        s = mpmath.nsum(lambda k: 1 / (k * pi * (k * pi - xm)) + 1 / (k * pi * (k * pi + xm)),
                        [n + 1, mpmath.inf], method="euler-maclaurin")
        return float(abs(xm) * s)


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_tail_gauge_matches_mpmath_inside_the_smooth_range(n):
    edge = (n + 1) * math.pi
    for frac in (1e-12, 1e-6, 1e-3, 0.05, 0.249, 0.251, 0.5, 0.9, 0.999):
        for x in (frac * edge, -frac * edge):
            assert _reconstruct_tail_estimate(x, n, 1.0) == pytest.approx(
                _nsum_gauge(x, n), rel=1e-12, abs=0.0), x
    assert _reconstruct_tail_estimate(0.0, n, 1.0) == 0.0
    assert _reconstruct_tail_estimate(1.0, n, 0.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_tail_gauge_matches_former_sum_beyond_it(n):
    for k in (n + 1, n + 2, n + 5, 2 * n + 3, n + 700):
        for offset in (0.01, 0.3, 0.5, 0.77, 0.99):
            for x in ((k + offset) * math.pi, -(k + offset) * math.pi):
                assert _reconstruct_tail_estimate(x, n, 2.5) == pytest.approx(
                    reference_tail(x, n, 2.5), rel=1e-5), x


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_tail_gauge_infinite_on_the_omitted_lattice(n):
    for k in (n + 1, n + 2, n + 11, n + 13, 3 * n + 26):
        for x in (k * math.pi, -k * math.pi):
            assert _reconstruct_tail_estimate(x, n, 1.0) == math.inf
            assert reference_tail(x, n, 1.0) == math.inf
