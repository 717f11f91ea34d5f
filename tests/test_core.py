"""Core calculus: derivatives, Stirling tables, Taylor expansions."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mellin_polar import (
    ConditioningWarning,
    Domain,
    DomainError,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    cauchy_riemann_residual,
    higher_mellin_derivative,
    make_lin,
    make_mellin_sine,
    make_power,
    make_sine_blend,
    mellin_derivative,
    polar_derivative_fd,
    stirling_table,
    taylor_expand,
)
from mellin_polar.core import constant

from util import brute_force_stirling, lattice_points


def log_function():
    """L(r, theta) = log r + i theta, the canonical non-periodic example."""
    return PolarFunction(lambda x, th: np.asarray(x, dtype=float)
                         + 1j * np.asarray(th, dtype=float), name="L")


def conjugate_witness():
    """r e^{-i theta}: smooth but NOT polar-analytic."""
    return PolarFunction(lambda x, th: np.exp(np.asarray(x, dtype=float)
                                              - 1j * np.asarray(th, dtype=float)),
                         name="conj")


# ---------------------------------------------------------------------------
# polar_derivative_fd
# ---------------------------------------------------------------------------

class TestPolarDerivativeFD:
    def test_log_function_at_unit(self):
        # D_pol (log r + i theta) = e^{-i theta}/r: at (1, 0) the value is 1
        got = polar_derivative_fd(log_function(), PolarPoint(1.0, 0.0), 1e-3)
        assert abs(got - 1.0) < 1e-10

    def test_constant_derivative_vanishes(self):
        got = polar_derivative_fd(constant(5.0), PolarPoint(2.7, -1.3), 1e-3)
        assert abs(got) < 1e-12

    def test_square_against_analytic_derivative(self):
        # z^2 has derivative 2z; compare FD against the closed form
        f = make_power(2.0)
        p = PolarPoint(2.0, math.pi / 3.0)
        expected = 2.0 * 2.0 * cmath.exp(1j * math.pi / 3.0)
        got = polar_derivative_fd(f, p, 1e-3)
        assert abs(got - expected) < 1e-9 * (1.0 + abs(expected))
        assert abs(f.dpol(p) - expected) < 1e-12 * abs(expected)

    def test_domain_margin_enforced(self):
        dom = Domain(excluded=(PolarPoint(1.0, 0.0),))
        f = PolarFunction(lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th)),
                          domain=dom)
        with pytest.raises(DomainError):
            polar_derivative_fd(f, PolarPoint(1.0000001, 0.0), 1e-3)

    @pytest.mark.parametrize("builder", [
        lambda: make_power(2.0),
        lambda: make_power(-1.5 + 0.5j),
        lambda: make_mellin_sine(0.5, 2.0).f,
        lambda: make_mellin_sine(-1.0, math.pi).f,
        lambda: make_lin(0.7),
        lambda: make_sine_blend(0.3, 1.5).f,
    ])
    def test_fd_matches_closed_form_on_lattice(self, builder):
        # gradient check: 100 quasi-random points, relative tolerance 1e-6
        f = builder()
        for x, th in lattice_points(100):
            p = PolarPoint(math.exp(x), th)
            closed = f.dpol(p)
            fd = polar_derivative_fd(f, p, 1e-3)
            assert abs(fd - closed) <= 1e-6 * (1.0 + abs(closed))


# ---------------------------------------------------------------------------
# mellin_derivative
# ---------------------------------------------------------------------------

class TestMellinDerivative:
    def test_power_eigenfunction_law(self):
        # Theta_c z^a = (a + c) z^a, 20 deterministic (a, c, point) triples
        for i, (x, th) in enumerate(lattice_points(20)):
            a = complex(0.3 * i - 2.0, 0.7 * ((i * 5) % 7) - 2.0)
            c = 0.25 * i - 2.5
            p = PolarPoint(math.exp(x), th)
            f = make_power(a)
            expected = (a + c) * f(p)
            got = mellin_derivative(f, p, c)
            assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_mellin_sine_center_value(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0), (-1.0, math.pi)]:
            m = make_mellin_sine(c, T)
            got = mellin_derivative(m.f, PolarPoint(1.0, 0.0), c)
            assert abs(got - T) < 1e-12 * (1.0 + T)

    def test_constant_with_zero_weight(self):
        got = mellin_derivative(constant(7.0 - 2.0j), PolarPoint(0.4, 2.0), 0.0)
        assert abs(got) < 1e-12

    def test_fd_fallback_without_closed_form(self):
        bare = PolarFunction(lambda x, th: np.exp(2.0 * (np.asarray(x) + 1j * np.asarray(th))))
        got = mellin_derivative(bare, PolarPoint(1.3, 0.2), 1.0)
        expected = 3.0 * cmath.exp(2.0 * complex(math.log(1.3), 0.2))
        assert abs(got - expected) < 1e-8 * abs(expected)


# ---------------------------------------------------------------------------
# Stirling tables
# ---------------------------------------------------------------------------

class TestStirlingTable:
    def test_classical_second_kind_values(self):
        t = stirling_table(0.0, 4)
        assert t.value(3, 1) == 1.0
        assert t.value(3, 2) == 3.0
        assert t.value(3, 3) == 1.0
        assert t.value(4, 2) == 7.0
        assert t.value(4, 3) == 6.0

    def test_first_order_row(self):
        for c in (0.0, 2.0, -3.75):
            t = stirling_table(c, 1)
            assert t.value(1, 0) == c
            assert t.value(1, 1) == 1.0

    def test_leading_coefficient_is_one(self):
        t = stirling_table(1.25, 12)
        for k in range(13):
            assert t.exact(k, k) == 1

    def test_recurrence_exact_to_order_12(self):
        for c in (0.0, 0.5, -2.5, 3.0):
            t = stirling_table(c, 12)
            cf = Fraction(c)
            for k in range(12):
                for j in range(k + 2):
                    left = t.exact(k, j - 1)
                    assert t.exact(k + 1, j) == left + (cf + j) * t.exact(k, j)

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    def test_matches_brute_force_operator_expansion(self, c):
        t = stirling_table(c, 5)
        for k in range(6):
            oracle = brute_force_stirling(c, k)
            for j in range(k + 1):
                assert t.exact(k, j) == oracle[j]

    def test_out_of_range_entries_are_zero(self):
        t = stirling_table(0.5, 3)
        assert t.exact(2, -1) == 0
        assert t.exact(2, 3) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(PreconditionError):
            stirling_table(0.0, -1)


# ---------------------------------------------------------------------------
# higher_mellin_derivative
# ---------------------------------------------------------------------------

class TestHigherMellinDerivative:
    def test_power_eigen_iteration(self):
        a, c = 2.0 + 1.0j, 1.5
        f = make_power(a)
        p = PolarPoint(1.3, 0.4)
        for k in range(6):
            expected = (a + c) ** k * f(p)
            got = higher_mellin_derivative(f, p, c, k)
            assert abs(got - expected) <= 1e-10 * (1.0 + abs(expected))

    def test_order_zero_returns_value(self):
        m = make_mellin_sine(0.5, 2.0)
        p = PolarPoint(1.7, -0.3)
        assert higher_mellin_derivative(m.f, p, 0.5, 0) == m.f(p)

    def test_weight_recursion_identity(self):
        # Theta_c f = Theta_{c-1} f + f at deterministic points
        m = make_mellin_sine(0.3, 1.7)
        for x, th in lattice_points(10):
            p = PolarPoint(math.exp(x), th)
            lhs = higher_mellin_derivative(m.f, p, 1.2, 1)
            rhs = higher_mellin_derivative(m.f, p, 0.2, 1) + m.f(p)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_matches_iterated_first_order_operator(self):
        # Theta_c = d/dzeta + c on e^{-c0 zeta} sin(T zeta), iterated k times:
        # e^{-c0 zeta} [(c-c0+iT)^k e^{iT zeta} - (c-c0-iT)^k e^{-iT zeta}]/(2i)
        c0, T, c = 0.5, 2.0, 0.8
        m = make_mellin_sine(c0, T)
        for k in (1, 2, 3):
            for x, th in lattice_points(5, (-1.0, 1.0), (-1.0, 1.0)):
                p = PolarPoint(math.exp(x), th)
                zeta = complex(x, th)
                closed = cmath.exp(-c0 * zeta) * (
                    (c - c0 + 1j * T) ** k * cmath.exp(1j * T * zeta)
                    - (c - c0 - 1j * T) ** k * cmath.exp(-1j * T * zeta)) / 2j
                got = higher_mellin_derivative(m.f, p, c, k)
                assert abs(got - closed) <= 1e-12 * (1.0 + abs(closed))

    def test_stirling_expansion_matches_structural_route(self):
        # Theta_c^k z^a = sum_j S_c(k, j) z^j D_pol^j z^a with the falling
        # factorial D_pol^j z^a = a(a-1)...(a-j+1) z^{a-j}
        a, c = 1.0 + 0.5j, 0.7
        f = make_power(a)
        p = PolarPoint(0.8, 0.6)
        zeta = p.log_z
        table = stirling_table(c, 6)
        for k in range(7):
            expansion = 0.0
            for j in range(k + 1):
                falling = 1.0
                for i in range(j):
                    falling *= a - i
                expansion += (table.value(k, j) * cmath.exp(j * zeta) * falling
                              * cmath.exp((a - j) * zeta))
            structural = higher_mellin_derivative(f, p, c, k)
            assert abs(structural - expansion) <= 1e-12 * (1.0 + abs(expansion))

    @pytest.mark.parametrize("k", [2, 3])
    def test_lin_beyond_its_chain(self, k):
        # lin's chain ends after first order; the missing orders come from
        # finite differences.  Oracle: (d/dzeta + c)^k [e^{-c zeta} sinc zeta]
        # by mpmath at 30 digits, expanded binomially.
        c, p = 0.4, PolarPoint(1.2, 0.1)
        with mpmath.workdps(30):
            z0 = mpmath.mpc(math.log(p.r), p.theta)
            lin = lambda z: mpmath.exp(-c * z) * mpmath.sinc(mpmath.pi * z)
            oracle = complex(sum(mpmath.binomial(k, j) * mpmath.mpf(c) ** (k - j)
                                 * mpmath.diff(lin, z0, j) for j in range(k + 1)))
        got = higher_mellin_derivative(make_lin(c), p, c, k)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)

    @pytest.mark.parametrize("route", ["chain", "fd"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_puncture_refused_at_every_order(self, route, k):
        power = make_power(1.0)
        punctured = PolarFunction(power.log_fn, domain=Domain(excluded=(PolarPoint(1.0, 0.0),)),
                                  theta_chain=power.theta_chain if route == "chain" else None)
        with pytest.raises(DomainError):
            higher_mellin_derivative(punctured, PolarPoint(1.0, 0.0), 0.5, k)
        if k == 1:
            with pytest.raises(DomainError):
                mellin_derivative(punctured, PolarPoint(1.0, 0.0), 0.5)

    def test_fd_route_needs_the_margin_its_nested_steps_reach(self):
        # steps 1e-3 then 3e-3: order 1 reaches 1e-3 from the point, order 2 4e-3
        power = make_power(1.0)
        dom = Domain(excluded=(PolarPoint(1.0, 0.0),))
        p = PolarPoint(math.exp(2e-3), 0.0)
        bare = PolarFunction(power.log_fn, domain=dom)
        assert abs(higher_mellin_derivative(bare, p, 0.5, 1) - 1.5 * p.z) < 1e-8
        with pytest.raises(DomainError, match="margin 0.004"):
            higher_mellin_derivative(bare, p, 0.5, 2)
        chained = PolarFunction(power.log_fn, domain=dom, theta_chain=power.theta_chain)
        assert higher_mellin_derivative(chained, p, 0.5, 2) == pytest.approx(2.25 * p.z)

    def test_first_order_fd_route_is_the_one_step_formula(self):
        bare = PolarFunction(lambda x, th: np.exp(2.0 * (np.asarray(x) + 1j * np.asarray(th))))
        for x, th in lattice_points(5):
            p = PolarPoint(math.exp(x), th)
            one_step = p.z * polar_derivative_fd(bare, p) + 0.7 * bare(p)
            assert mellin_derivative(bare, p, 0.7) == one_step  # bitwise

    def test_nested_fd_route_and_conditioning_warning(self):
        bare = PolarFunction(lambda x, th: np.exp(1.5 * (np.asarray(x) + 1j * np.asarray(th))))
        p = PolarPoint(1.0, 0.0)
        got = higher_mellin_derivative(bare, p, 0.5, 2)
        assert abs(got - 4.0) < 1e-5  # (1.5 + 0.5)^2
        with pytest.warns(ConditioningWarning):
            higher_mellin_derivative(bare, p, 0.5, 5)


# ---------------------------------------------------------------------------
# Cauchy-Riemann residual
# ---------------------------------------------------------------------------

class TestCauchyRiemannResidual:
    def test_log_function_is_polar_analytic(self):
        assert cauchy_riemann_residual(log_function(), PolarPoint(math.e, 1.0)) < 1e-10

    def test_conjugate_witness_fails_loudly(self):
        res = cauchy_riemann_residual(conjugate_witness(), PolarPoint(1.0, 0.0))
        assert abs(res - 2.0) < 1e-6
        assert res >= 0.1

    def test_constant_residual_zero(self):
        assert cauchy_riemann_residual(constant(3.0 + 4.0j), PolarPoint(0.5, 2.0)) < 1e-14

    @pytest.mark.parametrize("builder", [
        lambda: make_power(2.0 + 1.0j),
        lambda: make_mellin_sine(0.5, 2.0).f,
        lambda: make_lin(1.0),
        lambda: make_sine_blend(0.0, 1.0).f,
    ])
    def test_library_functions_are_polar_analytic(self, builder):
        f = builder()
        for x, th in lattice_points(25):
            assert cauchy_riemann_residual(f, PolarPoint(math.exp(x), th)) < 1e-6


# ---------------------------------------------------------------------------
# Taylor expansion
# ---------------------------------------------------------------------------

class TestTaylorExpansion:
    def test_power_coefficients_are_exponential_series(self):
        a = 1.0 + 0.5j
        exp = taylor_expand(make_power(a), PolarPoint(1.0, 0.0), 0.0, 12)
        fact = 1.0
        for k in range(13):
            if k > 0:
                fact *= k
            assert abs(exp.coefficients[k] - a ** k / fact) <= 1e-12 * (1.0 + abs(a) ** k / fact)

    def test_order_zero_reproduces_weighted_center(self):
        f = make_mellin_sine(0.5, 2.0).f
        p0 = PolarPoint(1.4, 0.3)
        exp = taylor_expand(f, p0, 0.5, 0)
        expected = cmath.exp(0.5 * p0.log_z) * f(p0)
        for x, th in lattice_points(5):
            p = PolarPoint(math.exp(x), th)
            assert exp.partial_sum(p, 0) == pytest.approx(expected)

    def test_sine_partial_sum_on_log_disk(self):
        m = make_mellin_sine(0.5, 1.0)
        p0 = PolarPoint(1.0, 0.0)
        exp = taylor_expand(m.f, p0, 0.5, 20)
        for i, (x, th) in enumerate(lattice_points(30, (-0.4, 0.4), (-0.4, 0.4))):
            if x * x + th * th > 0.25:
                continue
            p = PolarPoint(math.exp(x), th)
            target = exp.weighted_target(m.f, p)
            assert abs(exp.partial_sum(p) - target) <= 1e-10

    def test_remainder_decreases_monotonically(self):
        # exponential-series example on half the analyticity radius
        a = 1.0 + 0.5j
        f = make_power(a)
        p0 = PolarPoint(1.0, 0.0)
        exp = taylor_expand(f, p0, 0.0, 16)
        p = PolarPoint(math.exp(0.35), 0.35)
        target = exp.weighted_target(f, p)
        errs = [abs(exp.partial_sum(p, K) - target) for K in range(17)]
        for K in range(2, 16):
            assert errs[K + 1] <= errs[K] + 1e-15

    def test_invalid_orders_rejected(self):
        f = make_power(1.0)
        with pytest.raises(PreconditionError):
            taylor_expand(f, PolarPoint(1.0, 0.0), 0.0, -1)
        exp = taylor_expand(f, PolarPoint(1.0, 0.0), 0.0, 3)
        with pytest.raises(PreconditionError):
            exp.partial_sum(PolarPoint(1.0, 0.0), 7)


# ---------------------------------------------------------------------------
# points and domains
# ---------------------------------------------------------------------------

class TestPointsAndDomains:
    def test_polar_point_requires_positive_radius(self):
        with pytest.raises(DomainError):
            PolarPoint(0.0, 0.0)
        with pytest.raises(DomainError):
            PolarPoint(-1.0, 0.5)

    def test_theta_is_not_reduced(self):
        p = PolarPoint(1.0, 7.0 * math.pi)
        assert p.theta == 7.0 * math.pi
        # the associated complex value IS periodic; the point is not
        assert abs(p.z - PolarPoint(1.0, math.pi).z) < 1e-12

    def test_strip_domain_margin(self):
        dom = Domain(theta_min=-1.0, theta_max=1.0)
        assert dom.contains(PolarPoint(5.0, 0.0))
        assert not dom.contains(PolarPoint(5.0, 0.9995), margin=1e-3)
        with pytest.raises(DomainError):
            dom.require(PolarPoint(1.0, 2.0))
