"""Contour quadrature, Cauchy formulas, logarithmic-pole residues."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, special

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
        q = QuadratureSpec(tol=1.0)
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

    def test_radius_around_another_singularity_is_refused(self):
        # the kernel's simple poles sit at chart distance pi/2 from (1, 0)
        F, _, _ = boas_kernel(make_mellin_sine(0.0, 1.0).f, T=1.0, n_rect=1)
        with pytest.raises(PreconditionError, match="another declared singularity"):
            residue_numeric(F, PolarPoint(1.0, 0.0), 0.0, radius=2.0)

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

    @pytest.mark.parametrize("n_rect, T", [(300, 1.0), (226, 1.0), (3, 1e-3)])
    def test_kernel_poles_outside_the_double_range_are_refused(self, n_rect, T):
        # the pole radii e^{(k+1/2) pi/T}, k = -n_rect..n_rect-1, leave the double range
        with pytest.raises(PreconditionError, match=f"n_rect = {n_rect} at T = {T!r}"):
            boas_kernel(make_mellin_sine(0.0, 1.0).f, T=T, n_rect=n_rect)

    @pytest.mark.parametrize("T, last", [(1.0, 221), (3.0, 222), (10.0, 223), (100.0, 224)])
    def test_kernel_denominator_overflow_is_refused(self, T, last):
        # |L^2 cos(T L)| at the rectangle's corners is about half^2 e^{n_rect pi},
        # half = n_rect pi/T: the last n_rect below the double range still integrates
        sine = make_mellin_sine(0.0, T).f
        F, gamma, poles = boas_kernel(sine, T=T, n_rect=last)
        assert math.isfinite(residue_theorem_check(F, gamma, poles, 0.0))
        with pytest.raises(PreconditionError, match=f"n_rect = {last + 1} at T = {T!r}"):
            boas_kernel(sine, T=T, n_rect=last + 1)

    @pytest.mark.parametrize("case, message", [
        ("reversed", "interior"),
        ("poles-of-a-wider-square", "interior"),  # two of them lie outside the curve
        ("pole-dropped", "declared singularity"),
    ])
    def test_misuse_is_refused(self, case, message):
        sine = make_mellin_sine(0.0, 1.0).f
        F, gamma, poles = boas_kernel(sine, T=1.0, n_rect=1)
        if case == "reversed":
            gamma = gamma.reversed()
        elif case == "poles-of-a-wider-square":
            poles = boas_kernel(sine, T=1.0, n_rect=2)[2]
        else:
            poles = poles[:-1]
        with pytest.raises(PreconditionError, match=message):
            residue_theorem_check(F, gamma, poles, 0.0)

    def test_declared_singularity_on_the_curve_is_refused(self):
        F, _, poles = boas_kernel(make_mellin_sine(0.0, 1.0).f, T=1.0, n_rect=1)
        # the right edge runs through the simple pole at log r = pi/2; the one
        # at -pi/2 lies outside, so only the order-2 pole at (1, 0) is listed
        edge = poles[2].location.log_z.real
        gamma = LogRectangle(-1.0, edge, -1.0, 1.0).boundary()
        with pytest.raises(PreconditionError, match="declared singularity"):
            residue_theorem_check(F, gamma, poles[:1], 0.0)

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
            QuadratureSpec(tol=0.0)

    def test_theta_span(self):
        lo, hi = LogRectangle(-1.0, 1.0, -0.25, 0.75).boundary().theta_span()
        assert lo == pytest.approx(-0.25)
        assert hi == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# the one Gauss-Legendre rule
# ---------------------------------------------------------------------------

class TestGaussLegendreRule:
    def test_rule_is_scipys_16_point_rule_symmetrized(self):
        x, w = special.roots_legendre(16)
        assert np.array_equal(contours._GL_NODES, 0.5 * (x - x[::-1]))
        assert np.array_equal(contours._GL_WEIGHTS, 0.5 * (w + w[::-1]))
        assert np.allclose(contours._GL_NODES, x, rtol=0.0, atol=1e-15)
        assert np.array_equal(contours._GL_NODES, -contours._GL_NODES[::-1])
        assert np.array_equal(contours._GL_WEIGHTS, contours._GL_WEIGHTS[::-1])

    def test_import_does_not_load_scipy_linalg(self):
        # roots_legendre pulls in scipy.linalg, about 7 MB of resident memory
        code = "import sys, mellin_polar; print('scipy.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("k", range(33))
    def test_one_pass_integrates_monomials_to_rounding(self, k):
        # exact through degree 2*16 - 1 = 31 up to the rounding of the tabulated
        # nodes and weights (about 4e-15 here); degree 32 is the first miss
        got = contours._gl_pass(lambda u: u ** k, -1.0, 1.0)
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        if k <= 31:
            assert abs(got - want) <= 1e-14
        else:
            assert abs(got - want) > 1e-12


# ---------------------------------------------------------------------------
# enclosure: the exact winding number
# ---------------------------------------------------------------------------

def _winding(gamma, zeta0):
    return math.fsum(seg.turning(zeta0) for seg in gamma.segments) / (2.0 * math.pi)


def _encloses(gamma, p0):
    try:
        contours._require_interior(gamma, p0)
    except PreconditionError as exc:
        assert "interior" in str(exc)
        return False
    return True


def _quadrature_winding(gamma, zeta0):
    """(1/2 pi i) oint dzeta/(zeta - zeta0) by scipy's adaptive quadrature."""
    total = 0.0
    for seg in gamma.segments:
        def integrand(u, seg=seg):
            return complex(seg.velocity(u) / (seg.chart(u) - zeta0))
        total += integrate.quad(lambda u: integrand(u).imag, -0.5, 0.5, limit=200)[0]
    return total / (2.0 * math.pi)


_coord = st.floats(-3.0, 3.0)
_size = st.floats(0.01, 3.0)


class TestEnclosure:
    @settings(max_examples=200, deadline=None, database=None)
    @given(x0=_coord, y0=_coord, width=_size, height=_size, x=_coord, y=_coord,
           forward=st.booleans())
    def test_rectangles_against_membership(self, x0, y0, width, height, x, y, forward):
        rect = LogRectangle(x0, x0 + width, y0, y0 + height)
        p0 = PolarPoint(math.exp(x), y)
        zeta = p0.log_z
        gaps = (zeta.real - rect.log_r_min, rect.log_r_max - zeta.real,
                zeta.imag - rect.theta_min, rect.theta_max - zeta.imag)
        assume(min(abs(g) for g in gaps) > 1e-9 or 0.0 in gaps)  # no rounding ties
        inside = min(gaps) > 0.0
        gamma = rect.boundary() if forward else rect.boundary().reversed()
        assert _encloses(gamma, p0) == (inside and forward)

    @settings(max_examples=200, deadline=None, database=None)
    @given(cx=_coord, cy=_coord, radius=_size, x=_coord, y=_coord, forward=st.booleans())
    def test_circles_against_membership(self, cx, cy, radius, x, y, forward):
        center = PolarPoint(math.exp(cx), cy)
        p0 = PolarPoint(math.exp(x), y)
        dist = abs(p0.log_z - center.log_z)
        assume(abs(dist - radius) > 1e-9 * radius)  # no rounding ties
        gamma = log_circle(center, radius)
        gamma = gamma if forward else gamma.reversed()
        assert _encloses(gamma, p0) == (dist < radius and forward)

    @pytest.mark.parametrize("span", [3.7, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi,
                                      7.0 * math.pi, -5.0])
    def test_long_arcs_against_quadrature_winding(self, span):
        center, radius, phi0 = complex(0.3, -0.2), 1.0, 0.4
        arc = ArcSegment(center, radius, phi0, phi0 + span)
        chord = LineSegment(arc.end, arc.start)
        gamma = Curve([arc, chord]) if abs(arc.end - arc.start) > 1e-12 else Curve([arc])
        checked = 0
        for x, th in lattice_points(60, (-1.4, 1.4), (-1.4, 1.4)):
            zeta0 = center + complex(x, th)
            dist = abs(abs(zeta0 - center) - radius)
            if len(gamma.segments) == 2:
                a, b = chord.zeta0 - zeta0, chord.zeta1 - zeta0
                dist = min(dist, abs((a.conjugate() * b).imag) / abs(b - a))
            if dist < 0.05:
                continue
            want = _quadrature_winding(gamma, zeta0)
            got = _winding(gamma, zeta0)
            assert abs(got - round(want)) < 1e-9 and abs(want - round(want)) < 1e-6
            p0 = PolarPoint(math.exp(zeta0.real), zeta0.imag)
            assert _encloses(gamma, p0) == (round(want) == 1)
            checked += 1
        assert checked > 30

    @pytest.mark.parametrize("gamma", [
        UNIT_RECT.boundary().reversed(),
        log_circle(PolarPoint(1.0, 0.0), 0.5).reversed(),
    ])
    def test_reversed_curves_are_refused(self, gamma):
        f = make_power(1.0)
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_value(f, gamma, PolarPoint(1.0, 0.0))
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_derivative(f, gamma, PolarPoint(1.0, 0.0), 0.5, 1)

    _TRIANGLE = Curve([LineSegment(complex(-1.0, -1.0), complex(1.0, -1.0)),
                       LineSegment(complex(1.0, -1.0), complex(-1.0, 1.0)),
                       LineSegment(complex(-1.0, 1.0), complex(-1.0, -1.0))])
    _TWO_HALVES = Curve([ArcSegment(0.0, 0.5, 0.0, math.pi),
                         ArcSegment(0.0, 0.5, math.pi, 2.0 * math.pi)])

    @pytest.mark.parametrize("gamma, p0", [
        (UNIT_RECT.boundary(), PolarPoint(1.0, 1.0)),                 # on an edge
        (UNIT_RECT.boundary(), PolarPoint(math.e, -1.0)),             # on a corner
        (log_circle(PolarPoint(2.0, 0.0), 0.5), PolarPoint(2.0, 0.5)),  # where arcs meet
        (log_circle(PolarPoint(1.0, 0.0), 0.5), PolarPoint(1.0, -0.5)),
        (_TRIANGLE, PolarPoint(1.0, -1.0)),                           # hand-built: edge
        (_TRIANGLE, PolarPoint(1.0, 0.0)),                            # slanted edge
        (_TRIANGLE, PolarPoint(math.e, -1.0)),                        # corner
        (_TWO_HALVES, PolarPoint(1.0, 0.5)),                          # inside an arc
        (_TWO_HALVES, PolarPoint(1.0, -0.5)),
    ])
    def test_points_on_the_curve_are_refused_without_warning(self, gamma, p0):
        # pytest turns any warning into an error, so none escapes here
        assert math.isnan(_winding(gamma, p0.log_z))
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_value(make_power(1.0), gamma, p0)
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_derivative(make_power(1.0), gamma, p0, 0.0, 2)

    def test_center_on_the_chord_of_a_half_circle_is_enclosed(self):
        assert _winding(self._TWO_HALVES, 0j) == pytest.approx(1.0, abs=1e-15)
        assert _encloses(self._TWO_HALVES, PolarPoint(1.0, 0.0))

    def test_hand_built_curve_decides_without_quadrature(self, monkeypatch):
        calls, passes = [], []
        gl_pass = contours._gl_pass

        def counted_pass(*args):
            passes.append(1)
            return gl_pass(*args)

        def log_fn(x, th):
            calls.append(1)
            return make_power(1.0).log_fn(x, th)

        monkeypatch.setattr(contours, "_gl_pass", counted_pass)
        f = PolarFunction(log_fn)
        hand_built = Curve(list(UNIT_RECT.boundary().segments))
        with pytest.raises(PreconditionError, match="interior"):
            cauchy_value(f, hand_built, PolarPoint(math.e ** 2, 0.0))
        assert calls == [] and passes == []
        p0 = PolarPoint(1.2, 0.3)
        got = cauchy_value(f, hand_built, p0)
        n_calls, n_passes = len(calls), len(passes)
        assert n_calls == n_passes > 0  # every pass is one integrand call
        assert cauchy_value(f, UNIT_RECT.boundary(), p0) == got
        assert len(passes) == 2 * n_passes
