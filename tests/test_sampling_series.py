"""One compensated block sum behind the differentiation series.

The reference below is the four scalar loops the library used before the
Boas series, the Valiron-derived series, the Bernstein numerator and the
classical-line analogue shared one block sum: one loop each, with its own
compensated (Kahan) addition.  The block sum makes every profile call and
every floating-point operation in the same order, so values and bounds must
equal the reference bitwise (compared through ``float.hex``).
"""

import math

import numpy as np
import pytest

from mellin_polar import (
    DomainError,
    LogGrid,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    bernstein_check,
    boas_derivative,
    convergence_study,
    fourier_valiron_derivative,
    make_mellin_sine,
    make_sine_blend,
    mellin_derivative,
    mellin_dilate,
    mellin_translate,
    power_member,
    theta_oracle,
    theta_shift,
    valiron_derivative,
)
from mellin_polar.sampling import _block_sum, _boas_blocks

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


def _member_point(m, p):
    x0 = math.log(p.r)
    return x0, p.theta, math.exp(-m.c * x0)


def reference_boas(m, p, n):
    """(value, bound) of the former Boas loop."""
    x0, th, unweight = _member_point(m, p)
    T = m.T
    acc = _Kahan()
    for j in range(n):
        rho = (j + 0.5) * math.pi / T
        coef = (-1.0) ** j / (2 * j + 1.0) ** 2
        block = coef * (complex(m.weighted_profile(x0 + rho, th))
                        - complex(m.weighted_profile(x0 - rho, th)))
        acc.add(block)
    scale = 4.0 * T / math.pi ** 2
    value = scale * unweight * acc.total
    bound = 4.0 * m.growth_constant * T * math.exp(T * abs(th)) * unweight \
        / (math.pi ** 2 * (2.0 * n - 1.0))
    return value, bound


def reference_valiron(m, p, n):
    """(value, bound) of the former Valiron-derived loop."""
    x0, th, unweight = _member_point(m, p)
    T = m.T
    rho_half = math.pi / (2.0 * T)
    central = 0.5 * T * (complex(m.weighted_profile(x0 + rho_half, th))
                         - complex(m.weighted_profile(x0 - rho_half, th)))
    acc = _Kahan()
    for k in range(1, n):
        rho = k * math.pi / T
        coef = (-1.0) ** k / (k * (4.0 * k * k - 1.0))
        block = coef * (complex(m.weighted_profile(x0 + rho, th))
                        - complex(m.weighted_profile(x0 - rho, th)))
        acc.add(block)
    value = unweight * (central + (T / math.pi) * acc.total)
    bound = m.growth_constant * T * math.exp(T * abs(th)) * unweight \
        / (math.pi * (4.0 * (n - 1.0) ** 2 - 1.0))
    return value, bound


def reference_fourier(g, w, x, n):
    half = math.pi / (2.0 * w)
    central = 0.5 * w * (complex(g(x + half)) - complex(g(x - half)))
    acc = _Kahan()
    for k in range(1, n + 1):
        step = k * math.pi / w
        coef = (-1.0) ** k / (k * (4.0 * k * k - 1.0))
        acc.add(coef * (complex(g(x + step)) - complex(g(x - step))))
    return central + (w / math.pi) * acc.total


def reference_boas_grid(m, xs, theta, n):
    """r^c * (truncated Boas value) on a log grid, with the inline array Kahan."""
    T = m.T
    total = np.zeros(xs.shape, dtype=complex)
    carry = np.zeros(xs.shape, dtype=complex)
    for j in range(n):
        rho = (j + 0.5) * math.pi / T
        coef = (-1.0) ** j / (2 * j + 1.0) ** 2
        block = coef * (m.weighted_profile(xs + rho, theta)
                        - m.weighted_profile(xs - rho, theta))
        block = block + carry
        new_total = total + block
        carry = block - (new_total - total)
        total = new_total
    return 4.0 * T / math.pi ** 2 * total


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# ---------------------------------------------------------------------------
# bitwise identity
# ---------------------------------------------------------------------------

MEMBERS = [
    ("mellin-sine", lambda: make_mellin_sine(-0.6, 2.2)),
    ("translated-sine", lambda: mellin_translate(make_mellin_sine(0.5, 2.0),
                                                 math.exp(math.pi / 12.0))),
    ("theta-shifted-sine", lambda: theta_shift(make_mellin_sine(0.7, 1.3), 0.35)),
    ("blend", lambda: mellin_translate(make_sine_blend(0.3, 1.4), math.exp(0.25 / 1.4))),
    ("power-member", lambda: power_member(0.45, -1.7)),
    ("dilated-sine", lambda: mellin_dilate(make_mellin_sine(0.4, 2.5))),
]
NS = (1, 2, 3, 7, 64, 257)
POINTS = [PolarPoint(1.0, 0.0), PolarPoint(1.3, 0.0), PolarPoint(0.47, 0.3),
          PolarPoint(2.9, -0.8)]


@pytest.fixture(scope="module", params=MEMBERS, ids=[name for name, _ in MEMBERS])
def member(request):
    return request.param[1]()


def test_boas_bitwise_identical(member):
    for p in POINTS:
        for n in NS:
            value, bound = reference_boas(member, p, n)
            rep = boas_derivative(member, p, n)
            assert type(rep.value) is complex
            assert _hex(rep.value) == _hex(value), (p, n)
            assert rep.apriori_bound.hex() == bound.hex(), (p, n)


def test_valiron_bitwise_identical(member):
    for p in POINTS:
        for n in NS[1:]:
            value, bound = reference_valiron(member, p, n)
            rep = valiron_derivative(member, p, n)
            assert type(rep.value) is complex
            assert _hex(rep.value) == _hex(value), (p, n)
            assert rep.apriori_bound.hex() == bound.hex(), (p, n)


def test_bernstein_grid_bitwise_identical(member):
    xs = LogGrid(-3.0, 3.0, 401).xs()
    for theta in (0.0, 0.4):
        for n in (1, 2, 50):
            want = reference_boas_grid(member, xs, theta, n)
            total = _block_sum(lambda x: member.weighted_profile(x, theta), xs,
                               *_boas_blocks(member.T, n))
            got = 4.0 * member.T / math.pi ** 2 * total
            assert got.shape == xs.shape
            assert [_hex(z) for z in got] == [_hex(z) for z in want], (theta, n)
    grid = LogGrid(-3.0, 3.0, 401)
    den = float(np.max(np.abs(member.weighted_profile(grid.xs(), 0.0))))
    want = float(np.max(np.abs(reference_boas_grid(member, grid.xs(), 0.0, 50)))) / den
    assert bernstein_check(member, 0.0, 50, grid).hex() == want.hex()


@pytest.mark.parametrize("kind, g", [
    ("complex", lambda t: complex(math.cos(1.7 * t), math.sin(1.7 * t))),
    ("float", lambda t: math.sin(0.9 * t) + 0.25 * math.cos(2.3 * t)),
    ("constant", lambda t: 3.0),
])
def test_fourier_bitwise_identical(kind, g):
    for w in (1.0, 2.5):
        for x in (0.0, 0.7, -3.1):
            for n in NS:
                got = fourier_valiron_derivative(g, w, x, n)
                assert type(got) is complex
                assert _hex(got) == _hex(reference_fourier(g, w, x, n)), (w, x, n)


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ns", [[1, 4], [2, 0, 8]])
def test_convergence_study_rejects_n_below_two(ns):
    with pytest.raises(PreconditionError):
        convergence_study(make_mellin_sine(0.5, 2.0), PolarPoint(1.0, 0.0), ns)


@pytest.mark.parametrize("series, theta", [(boas_derivative, 400.0),
                                           (valiron_derivative, 355.0)])
def test_overflowing_bound_is_a_domain_error(series, theta):
    with pytest.raises(DomainError, match="bound"):
        series(make_mellin_sine(0.5, 2.0), PolarPoint(1.0, theta), 4)


def test_theta_oracle_is_the_closed_form():
    # the oracle is the Theta-chain, bitwise; the finite-difference Theta_c of
    # a chainless copy checks it independently
    m = make_sine_blend(0.5, 2.0)
    fd_copy = PolarFunction(m.f.log_fn, m.f.domain)
    for r, theta in ((1.0, 0.0), (1.3, 0.4), (0.2, -1.1)):
        p = PolarPoint(r, theta)
        got = theta_oracle(m, p)
        assert _hex(got) == _hex(mellin_derivative(m.f, p, m.c))
        fd = mellin_derivative(fd_copy, p, m.c)
        assert abs(got - fd) <= 1e-8 * abs(fd)


def test_overflowing_oracle_is_a_domain_error():
    with pytest.raises(DomainError, match="oracle"):
        convergence_study(make_mellin_sine(3.0, 1.0), PolarPoint(1e-300, 0.0), [2])
