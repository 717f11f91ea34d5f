"""Contour quadrature, Cauchy formulas, logarithmic-pole residues."""

import cmath
import math

import numpy as np
import pytest

from mellin_polar import (
    ArcSegment,
    Curve,
    DomainError,
    LineSegment,
    LogPoleSpec,
    LogRectangle,
    PolarPoint,
    PolarFunction,
    PreconditionError,
    QuadratureSpec,
    ToleranceNotMetError,
    boas_kernel,
    cauchy_derivative,
    cauchy_value,
    extract_derivative,
    line_integral,
    log_circle,
    make_mellin_sine,
    make_power,
    residue_from_factor,
    residue_numeric,
    residue_theorem_check,
)
from mellin_polar import contours
from mellin_polar.core import Domain, constant

from util import lattice_points

UNIT_RECT = LogRectangle(-1.0, 1.0, -1.0, 1.0)


def simple_log_pole(r0: float, theta0: float = 0.0) -> PolarFunction:
    """1/(log(r/r0) + i(theta - theta0)): simple logarithmic pole, g == 1."""
    zeta0 = complex(math.log(r0), theta0)
    return PolarFunction(
        lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th) - zeta0),
        domain=Domain(excluded=(PolarPoint(r0, theta0),)),
        name=f"pole({r0},{theta0})")


# ---------------------------------------------------------------------------
# line_integral
# ---------------------------------------------------------------------------

class TestLineIntegral:
    def test_closed_integral_of_analytic_function_vanishes(self):
        gamma = LogRectangle(-0.5, 0.5, -0.5, 0.5).boundary()
        got = line_integral(make_power(2.0), gamma)
        assert abs(got) < 1e-12

    def test_unit_integrand_over_closed_curves(self):
        # g == 1 integrates the exact differential of z: zero on any loop
        for gamma in (UNIT_RECT.boundary(), log_circle(PolarPoint(1.5, 0.3), 0.7)):
            assert abs(line_integral(constant(1.0), gamma)) < 1e-12

    def test_canonical_weighted_pole_integral(self):
        # (1/2 pi i) oint (re^{i th})^{-1} e^{i th}/(log r + i th) (dr + ir dth) = 1
        g = PolarFunction(lambda x, th: np.exp(-(np.asarray(x) + 1j * np.asarray(th)))
                          / (np.asarray(x) + 1j * np.asarray(th)))
        got = line_integral(g, UNIT_RECT.boundary()) / (2j * math.pi)
        assert abs(got - 1.0) < 1e-9

    def test_orientation_antisymmetry_exact_single_pass(self):
        gamma = LogRectangle(-0.7, 0.4, -0.6, 0.8).boundary()
        q = QuadratureSpec(nodes_per_segment=24, tol=1.0)
        f = make_mellin_sine(0.5, 2.0).f
        forward = line_integral(f, gamma, q)
        backward = line_integral(f, gamma.reversed(), q)
        assert backward == -forward  # bitwise: same nodes, negated velocity

    def test_orientation_antisymmetry_at_default_tolerance(self):
        gamma = log_circle(PolarPoint(1.0, 0.0), 0.9)
        f = make_power(2.0 + 1.0j)
        forward = line_integral(f, gamma)
        backward = line_integral(f, gamma.reversed())
        assert abs(forward + backward) < 1e-12

    def test_additivity_under_segment_split(self):
        a, b = complex(-0.5, -0.5), complex(0.8, -0.5)
        mid = a + (b - a) * 0.3
        rest = [LineSegment(b, complex(0.8, 0.6)),
                LineSegment(complex(0.8, 0.6), complex(-0.5, 0.6)),
                LineSegment(complex(-0.5, 0.6), a)]
        whole = Curve([LineSegment(a, b)] + rest)
        split = Curve([LineSegment(a, mid), LineSegment(mid, b)] + rest)
        f = make_mellin_sine(0.0, 1.0).f
        assert abs(line_integral(f, whole) - line_integral(f, split)) < 1e-12

    def test_spectral_convergence_in_node_count(self):
        # doubling the Gauss-Legendre order shrinks the zero-integral defect
        # by far more than 4x until the rounding floor
        gamma = LogRectangle(-0.8, 0.8, -0.8, 0.8).boundary()
        f = make_mellin_sine(0.0, 2.0).f
        defects = []
        for nodes in (6, 12, 24):
            q = QuadratureSpec(nodes_per_segment=nodes, tol=1.0)
            defects.append(abs(line_integral(f, gamma, q)))
        for lo, hi in zip(defects[1:], defects[:-1]):
            assert lo <= hi / 4.0 or lo < 1e-13

    def test_tolerance_failure_carries_best_estimate(self):
        # integrand with a near-singularity and a tolerance no pass can meet
        g = PolarFunction(lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th)
                                               - complex(0.0, 1.0 + 1e-6)))
        gamma = UNIT_RECT.boundary()
        with pytest.raises(ToleranceNotMetError) as info:
            line_integral(g, gamma, QuadratureSpec(tol=1e-300))
        assert info.value.gap > 0.0
        assert isinstance(info.value.best_estimate, complex)

    def test_nan_integrand_raises_at_the_first_pass(self):
        # a NaN gap never meets the tolerance; without the check bisection
        # would run to the pass cap
        calls = []

        def log_fn(x, th):
            calls.append(1)
            return np.full(np.broadcast(x, th).shape, complex(math.nan, 0.0))

        with pytest.raises(DomainError, match="not finite"):
            line_integral(PolarFunction(log_fn), UNIT_RECT.boundary())
        assert len(calls) == 1

    def test_bisection_passes_never_repeat_an_interval(self):
        # a pole just outside the top edge forces bisection; each pass hands
        # the integrand the nodes of one interval, so a repeat means the same
        # interval was integrated twice
        seen = []

        def log_fn(x, th):
            x, th = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(th, dtype=float))
            seen.append((x.tobytes(), th.tobytes()))
            return 1.0 / (x + 1j * th - complex(0.0, 1.05))

        line_integral(PolarFunction(log_fn), UNIT_RECT.boundary())
        assert len(seen) > 4 * 3  # more than one bisection level on some segment
        assert len(set(seen)) == len(seen)

    def test_unmeetable_tolerance_stops_at_the_pass_cap(self):
        # each pass is one integrand call on the 16 nodes of one interval;
        # the counter raises long before an uncapped bisection would stop
        calls = []

        def log_fn(x, th):
            x, th = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(th, dtype=float))
            assert x.shape == (16,)
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("no pass cap")
            return 1.0 / (x + 1j * th - complex(0.0, 1.05))

        with pytest.raises(ToleranceNotMetError, match="missed tolerance"):
            line_integral(PolarFunction(log_fn), UNIT_RECT.boundary(), QuadratureSpec(tol=1e-300))
        assert len(calls) <= contours._MAX_PASSES

    def test_orientation_antisymmetry_exact_after_bisection(self):
        calls = []

        def log_fn(x, th):
            calls.append(1)
            return 1.0 / (np.asarray(x) + 1j * np.asarray(th) - complex(0.0, 1.05))

        g = PolarFunction(log_fn)
        forward = line_integral(g, UNIT_RECT.boundary())
        assert len(calls) > 4 * 3  # some piece was split
        assert line_integral(g, UNIT_RECT.boundary().reversed()) == -forward


# ---------------------------------------------------------------------------
# cauchy_value
# ---------------------------------------------------------------------------

class TestCauchyValue:
    def test_power_reproduced_at_ten_interior_points(self):
        f = make_power(3.0)
        gamma = UNIT_RECT.boundary()
        for x, th in lattice_points(10, (-0.8, 0.8), (-0.8, 0.8)):
            p0 = PolarPoint(math.exp(x), th)
            got = cauchy_value(f, gamma, p0)
            assert abs(got - f(p0)) <= 1e-8

    def test_sine_reproduced_off_axis(self):
        f = make_mellin_sine(0.0, 1.0).f
        p0 = PolarPoint(math.exp(0.3), 0.2)
        got = cauchy_value(f, UNIT_RECT.boundary(), p0)
        assert abs(got - cmath.sin(complex(0.3, 0.2))) <= 1e-10

    def test_constant_reproduced(self):
        got = cauchy_value(constant(2.5 - 1.0j), UNIT_RECT.boundary(),
                           PolarPoint(1.2, -0.4))
        assert abs(got - (2.5 - 1.0j)) < 1e-10

    def test_wide_strip_rejected(self):
        tall = LogRectangle(-1.0, 1.0, -3.2, 3.2).boundary()
        with pytest.raises(PreconditionError, match="2 pi"):
            cauchy_value(make_power(1.0), tall, PolarPoint(1.0, 0.0))

    def test_exterior_point_rejected(self):
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_value(make_power(1.0), UNIT_RECT.boundary(), PolarPoint(math.e ** 2, 0.0))

    def test_open_curve_rejected(self):
        open_curve = Curve([LineSegment(0.0, 1.0 + 1.0j)])
        with pytest.raises(PreconditionError, match="closed"):
            cauchy_value(make_power(1.0), open_curve, PolarPoint(1.0, 0.0))


# ---------------------------------------------------------------------------
# cauchy_derivative / extract_derivative
# ---------------------------------------------------------------------------

class TestCauchyDerivative:
    def test_unit_function_yields_weighted_one(self):
        f = constant(1.0)
        gamma = UNIT_RECT.boundary()
        for c in (0.0, 1.0, -0.7):
            for r0 in (0.6, 1.0, 1.9):
                got = cauchy_derivative(f, gamma, PolarPoint(r0, 0.0), c, 0)
                assert abs(got - r0 ** c) <= 1e-9 * (1.0 + r0 ** c)

    @pytest.mark.parametrize("a", [1.0, 2.0 + 1.0j])
    @pytest.mark.parametrize("c", [0.0, 1.5])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_power_weighted_derivatives(self, a, c, k):
        f = make_power(a)
        gamma = UNIT_RECT.boundary()
        p0 = PolarPoint(math.exp(0.2), 0.3)
        got = cauchy_derivative(f, gamma, p0, c, k)
        z0 = p0.log_z
        expected = cmath.exp(c * z0) * (a + c) ** k * cmath.exp(a * z0) / math.factorial(k)
        assert abs(got - expected) <= 1e-6 * abs(expected)

    def test_extract_derivative_reduces_to_value_at_order_zero(self):
        f = make_mellin_sine(0.0, 1.0).f
        p0 = PolarPoint(1.4, 0.25)
        got = extract_derivative(f, UNIT_RECT.boundary(), p0, 1.0, 0)
        assert abs(got - f(p0)) <= 1e-9

    def test_consistency_with_cauchy_value(self):
        f = make_mellin_sine(0.0, 1.0).f
        gamma = UNIT_RECT.boundary()
        q = QuadratureSpec()
        for x, th in lattice_points(10, (-0.7, 0.7), (-0.7, 0.7)):
            p0 = PolarPoint(math.exp(x), th)
            via_kernel = extract_derivative(f, gamma, p0, 0.0, 0, q)
            via_value = cauchy_value(f, gamma, p0, q)
            assert abs(via_kernel - via_value) <= 2.0 * q.tol


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

class TestResidues:
    def test_simple_pole_unit_factor(self):
        for c in (0.0, 1.0, -0.5):
            for r0 in (0.7, 1.0, 2.2):
                spec = LogPoleSpec(PolarPoint(r0, 0.0), 1, constant(1.0))
                assert residue_from_factor(spec, c) == pytest.approx(r0 ** c)

    def test_order_two_pole_unit_factor(self):
        # Theta_c 1 = c, so the residue of 1/L^2 at (1, 0) is c
        for c in (0.0, 2.0, -1.3):
            spec = LogPoleSpec(PolarPoint(1.0, 0.0), 2, constant(1.0))
            assert residue_from_factor(spec, c) == pytest.approx(c)

    def test_boas_kernel_residues_match_closed_forms(self):
        sine = make_mellin_sine(0.0, 1.0)
        _, _, poles = boas_kernel(sine.f, T=1.0, n_rect=2)
        c = 0.0
        # order-2 pole at (1, 0): residue equals (Theta_c f)(1, 0) = T = 1
        assert residue_from_factor(poles[0], c) == pytest.approx(1.0, abs=1e-10)
        # simple poles: (4/pi^2) (-1)^{k+1} (2k+1)^{-2} r_k^c f(r_k, 0)
        for spec, k in zip(poles[1:], range(-2, 2)):
            r_k = math.exp((k + 0.5) * math.pi)
            expected = 4.0 / math.pi ** 2 * (-1.0) ** (k + 1) / (2 * k + 1) ** 2 \
                * r_k ** c * sine.value(PolarPoint(r_k, 0.0))
            assert residue_from_factor(spec, c) == pytest.approx(expected, abs=1e-10)

    def test_numeric_residue_matches_factor_route(self):
        for c in (0.0, 1.2):
            for r0 in (1.0, 1.8):
                F = simple_log_pole(r0)
                want = r0 ** c
                got = residue_numeric(F, PolarPoint(r0, 0.0), c)
                assert abs(got - want) <= 1e-9 * (1.0 + want)

    def test_numeric_residue_radius_independence(self):
        F = simple_log_pole(1.3)
        c = 0.8
        vals = [residue_numeric(F, PolarPoint(1.3, 0.0), c, radius=rho)
                for rho in (0.1, 0.2, 0.4)]
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-9

    def test_numeric_residue_of_analytic_function_vanishes(self):
        got = residue_numeric(make_power(2.0), PolarPoint(1.0, 0.0), 0.5, radius=0.3)
        assert abs(got) < 1e-10

    def test_numeric_residue_order_two(self):
        zeta0 = 0.0
        F = PolarFunction(lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th)) ** 2,
                          domain=Domain(excluded=(PolarPoint(1.0, 0.0),)))
        for c in (0.4, -1.1):
            got = residue_numeric(F, PolarPoint(1.0, 0.0), c, radius=0.25)
            assert abs(got - c) <= 1e-9 * (1.0 + abs(c))

    def test_default_radius_respects_nearest_singularity(self):
        dom = Domain(excluded=(PolarPoint(1.0, 0.0), PolarPoint(math.exp(0.2), 0.0)))
        F = PolarFunction(lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th)),
                          domain=dom)
        got = residue_numeric(F, PolarPoint(1.0, 0.0), 0.0)
        assert abs(got - 1.0) <= 1e-9  # radius 0.1 avoids the neighbor

    def test_missing_factor_rejected(self):
        spec = LogPoleSpec(PolarPoint(1.0, 0.0), 1, None)
        with pytest.raises(PreconditionError):
            residue_from_factor(spec, 0.0)

    def test_vanishing_factor_warns(self):
        zero_at_pole = make_mellin_sine(0.0, 1.0).f  # sin(log r + i th) = 0 at (1,0)
        with pytest.warns(UserWarning, match="overstates"):
            LogPoleSpec(PolarPoint(1.0, 0.0), 2, zero_at_pole)


# ---------------------------------------------------------------------------
# residue theorem
# ---------------------------------------------------------------------------

class TestResidueTheorem:
    def test_single_simple_pole(self):
        for c in (0.0, 1.5):
            F = simple_log_pole(1.0)
            poles = (LogPoleSpec(PolarPoint(1.0, 0.0), 1, constant(1.0)),)
            defect = residue_theorem_check(F, UNIT_RECT.boundary(), poles, c)
            assert defect <= 1e-9

    def test_no_poles_reduces_to_zero_integral(self):
        defect = residue_theorem_check(make_power(2.0), UNIT_RECT.boundary(), (), 0.7)
        assert defect <= 1e-10

    def test_boas_kernel_rectangle(self):
        sine = make_mellin_sine(0.0, 1.0)
        F, gamma, poles = boas_kernel(sine.f, T=1.0, n_rect=1)
        defect = residue_theorem_check(F, gamma, poles, 0.0)
        assert defect <= 1e-9

    def test_wide_rectangle_collects_branch_copies(self):
        # tall curve around (r0, theta0) also encloses (r0, theta0 +/- 2 pi);
        # the weighted integral with c = 1 must pick up all three values
        a = 0.25 + 0.5j
        f = make_power(a)
        z0_value = 1.0  # r0 = 1, theta0 = 0 -> r0 e^{i theta0} = 1

        def kernel_fn(x, th):
            zeta = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
            return f.values_log(x, th) / (np.exp(zeta) - z0_value)

        branch_points = tuple(PolarPoint(1.0, 2.0 * math.pi * j) for j in (-1, 0, 1))
        F = PolarFunction(kernel_fn, domain=Domain(excluded=branch_points))

        def branch_factor(j: int) -> PolarFunction:
            zeta_j = complex(0.0, 2.0 * math.pi * j)

            def log_fn(x, th):
                zeta = np.asarray(x, dtype=float) + 1j * np.asarray(th, dtype=float)
                u = zeta - zeta_j
                small = np.abs(u) < 1e-6
                safe = np.where(small, 1.0, np.expm1(np.where(small, 1.0, u)))
                series = 1.0 - u / 2.0 + u * u / 12.0  # u/(e^u - 1)
                ratio = np.where(small, series, np.where(small, 1.0, u) / safe)
                return f.values_log(x, th) * ratio / z0_value

            return PolarFunction(log_fn, name=f"branch_factor({j})")

        poles = tuple(LogPoleSpec(PolarPoint(1.0, 2.0 * math.pi * j), 1, branch_factor(j))
                      for j in (-1, 0, 1))
        tall = LogRectangle(-0.5, 0.5, -7.0, 7.0).boundary()
        defect = residue_theorem_check(F, tall, poles, 1.0)
        assert defect <= 1e-8
        # and the residue total is sum_j f(r0, theta_j), the multi-branch sum
        total = sum(residue_from_factor(s, 1.0) for s in poles)
        expected = sum(f(PolarPoint(1.0, 2.0 * math.pi * j)) for j in (-1, 0, 1))
        assert abs(total - expected) <= 1e-9 * (1.0 + abs(expected))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

class TestGeometry:
    def test_rectangle_boundary_is_closed(self):
        assert UNIT_RECT.boundary().closed

    def test_circle_is_closed(self):
        assert log_circle(PolarPoint(2.0, 1.0), 0.5).closed

    def test_discontiguous_segments_rejected(self):
        with pytest.raises(PreconditionError, match="contiguous"):
            Curve([LineSegment(0.0, 1.0), LineSegment(2.0, 3.0)])

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(PreconditionError):
            LogRectangle(1.0, 1.0, 0.0, 1.0)

    def test_quadrature_spec_validation(self):
        with pytest.raises(PreconditionError):
            QuadratureSpec(nodes_per_segment=2)
        with pytest.raises(PreconditionError):
            QuadratureSpec(tol=0.0)

    def test_theta_span(self):
        lo, hi = LogRectangle(-1.0, 1.0, -0.25, 0.75).boundary().theta_span()
        assert lo == pytest.approx(-0.25)
        assert hi == pytest.approx(0.75)
