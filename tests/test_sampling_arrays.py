"""Array evaluation of the Valiron reconstruction and the lin forms.

The reference below is the scalar evaluation the library used before its
lattice sums became array code: one kernel call per lattice point and one
compensated (Kahan) addition per term.  Every finite value of the array code
must equal it bitwise.
"""

import math
import warnings

import numpy as np
import pytest

from mellin_polar import (
    PreconditionError,
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
    """The value of the scalar loop."""
    T = s.T
    x = T * math.log(r)
    sin_x = math.sin(x)
    acc = _Kahan()
    acc.add(sin_x * s.center_derivative / T)
    if abs(x) < _WINDOW:
        acc.add(s.center_value)
    else:
        acc.add(sin_x * s.center_value / x)
    for k in range(1, n + 1):
        block = _Kahan()
        for kk in (k, -k):
            sk = s.weighted_ring[kk]
            kp = kk * math.pi
            if abs(x - kp) < _WINDOW:
                cont = (-1.0) ** (kk + 1) * float(sinc((x - kp) / math.pi).real)
                term = x * (-1.0) ** (kk + 1) * sk * cont / kp
            else:
                term = sin_x * x * (-1.0) ** (kk + 1) * sk / (kp * (kp - x))
            block.add(term)
        acc.add(block.total)
    return acc.total


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
    refused = 0
    for r in _radii(sample_set.T):
        for n in NS:
            if abs(sample_set.T * math.log(r)) / math.pi < n:
                assert valiron_reconstruct(sample_set, r, n).value \
                    == reference_reconstruct(sample_set, r, n), (r, n)
            else:  # outside the truncation bound: a documented refusal
                with pytest.raises(PreconditionError, match="truncation bound"):
                    valiron_reconstruct(sample_set, r, n)
                refused += 1
    assert refused < len(_radii(sample_set.T)) * len(NS) // 2


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


@pytest.mark.parametrize("m", [
    make_mellin_sine(0.2, 1.0),
    # ring samples of magnitude 1/2, so the terms whose kernel argument
    # e^{-k} y is subnormal (708 < k < 745) are not negligible
    mellin_translate(make_mellin_sine(-0.4, 2.0), math.exp(math.pi / 12.0)),
], ids=["mellin-sine", "translated-sine"])
def test_lin_forms_past_the_exp_range(m):
    # n >= 710: e^{-k} overflows at k = -710 and leaves the normal range
    # past k = 708, so those terms take the sinc(log y - k) branch
    n = 800
    s = SampleSet.from_member(m, n)
    for r in (0.7, 1.3, 5.0):
        want = valiron_reconstruct(s, r, n).value * r ** (-m.c)
        for variant in ("weighted", "plain"):
            got = valiron_lin_form(s, r, n, variant)
            assert abs(got - want) <= 1e-10 * abs(want), (r, variant)
