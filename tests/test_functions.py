"""Function library: closed forms, class metadata, transformations, norms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mellin_polar import (
    DegenerateInputError,
    Domain,
    DomainError,
    LogGrid,
    MellinBernsteinMember,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    central_mellin_difference,
    higher_mellin_derivative,
    make_lin,
    make_mellin_sine,
    make_power,
    make_sine_blend,
    mellin_derivative,
    mellin_dilate,
    mellin_translate,
    power_member,
    sup_norm,
    theta_oracle,
    theta_shift,
    verify_growth_bound,
)
from mellin_polar.functions import SineBlendProfile, lin_value, function_registry, sinc

from util import lattice_points


def all_members():
    return [
        make_mellin_sine(0.0, 1.0),
        make_mellin_sine(0.5, 2.0),
        make_mellin_sine(-1.0, math.pi),
        mellin_translate(make_mellin_sine(0.5, 2.0), math.exp(math.pi / 12.0)),
        theta_shift(make_mellin_sine(0.3, 1.5), 0.8),
        mellin_dilate(make_mellin_sine(0.5, 2.0)),
        make_sine_blend(0.5, 2.0),
        power_member(0.5, 2.0),
    ]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

class TestPower:
    def test_exponent_zero_is_constant_one(self):
        f = make_power(0.0)
        for x, th in lattice_points(5):
            assert f(PolarPoint(math.exp(x), th)) == pytest.approx(1.0)

    def test_identity_at_angle_pi(self):
        assert make_power(1.0)(PolarPoint(2.0, math.pi)) == pytest.approx(-2.0)

    def test_imaginary_exponent_is_unimodular(self):
        got = make_power(1j)(PolarPoint(math.e, 0.0))
        assert got == pytest.approx(cmath.exp(1j))
        assert abs(abs(got) - 1.0) < 1e-12


class TestMellinSine:
    def test_vanishes_at_unit(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0), (-1.0, math.pi)]:
            assert abs(make_mellin_sine(c, T).value(PolarPoint(1.0, 0.0))) < 1e-15

    def test_quarter_lattice_value(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0), (2.0, 0.7)]:
            r = math.exp(math.pi / (2.0 * T))
            got = make_mellin_sine(c, T).value(PolarPoint(r, 0.0))
            assert got == pytest.approx(math.exp(-math.pi * c / (2.0 * T)))

    def test_growth_along_imaginary_direction(self):
        # r^c |f| at theta = 2 equals sinh(2T) <= e^{2T}
        for T in (0.5, 1.0, 2.0):
            m = make_mellin_sine(0.7, T)
            p = PolarPoint(1.0, 2.0)
            weighted = p.r ** m.c * abs(m.value(p))
            assert weighted == pytest.approx(math.sinh(2.0 * T))
            assert weighted <= math.exp(2.0 * T)

    def test_invalid_type_rejected(self):
        with pytest.raises(PreconditionError):
            make_mellin_sine(0.0, -1.0)


class TestLin:
    def test_continuous_extension_at_one(self):
        for c in (0.0, 1.0, -0.5):
            assert make_lin(c)(PolarPoint(1.0, 0.0)) == pytest.approx(1.0)
            assert float(lin_value(c, 1.0)) == pytest.approx(1.0)

    def test_vanishes_on_integer_lattice(self):
        f = make_lin(0.7)
        for k in (-3, -1, 1, 2, 5):
            assert abs(f(PolarPoint(math.exp(float(k)), 0.0))) < 1e-13

    def test_half_lattice_value(self):
        got = make_lin(0.0)(PolarPoint(math.exp(0.5), 0.0))
        assert got == pytest.approx(2.0 / math.pi)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            lin_value(0.0, -1.0)


class TestSineBlend:
    def test_closed_form_matches_defining_integral(self):
        # independent oracle: numeric quadrature of the frequency blend
        prof = SineBlendProfile(10.0, 1e-4)
        for w in (0.3, 2.0, 17.7, 60.0):
            direct = quad(lambda e: math.sin((1.0 - e) * w) / e, 1e-4, 0.5,
                          limit=4000)[0] + 10.0 * math.sin(w)
            assert complex(prof.value(w)).real == pytest.approx(direct, abs=1e-10)
            assert abs(complex(prof.value(w)).imag) < 1e-12

    def test_derivative_against_finite_difference(self):
        prof = SineBlendProfile(10.0, 1e-4)
        dprof = prof.deriv()
        for w in (0.7, 9.3, -4.0):
            fd = (complex(prof.value(w + 1e-5)) - complex(prof.value(w - 1e-5))) / 2e-5
            assert complex(dprof.value(w)) == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# growth-bound certification and weighted profiles
# ---------------------------------------------------------------------------

class TestClassMetadata:
    def test_growth_bound_on_verification_grid(self):
        for m in all_members():
            assert verify_growth_bound(m) >= 0.0, m.name

    def test_weighted_profile_consistency(self):
        # wp(x, theta) == e^{c x} f(e^x, theta) wherever direct evaluation is safe
        for m in all_members():
            for x, th in lattice_points(20):
                direct = math.exp(m.c * x) * m.f(PolarPoint(math.exp(x), th))
                assert complex(m.weighted_profile(x, th)) == pytest.approx(direct, rel=1e-12)

    def test_theta_profile_consistency(self):
        # the chain oracle against the finite-difference Theta_c of a chainless copy
        for m in all_members():
            fd_copy = PolarFunction(m.f.log_fn, m.f.domain)
            for x, th in lattice_points(10):
                p = PolarPoint(math.exp(x), th)
                fd = math.exp(m.c * x) * mellin_derivative(fd_copy, p, m.c)
                assert math.exp(m.c * x) * theta_oracle(m, p) == pytest.approx(
                    fd, rel=1e-7, abs=1e-9)

    def test_as_class_widens_only(self):
        m = make_mellin_sine(0.0, 1.0)
        wide = m.as_class(2.0)
        assert wide.T == 2.0
        with pytest.raises(PreconditionError):
            m.as_class(0.5)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

class TestTransformations:
    def test_translate_identity(self):
        m = make_mellin_sine(0.5, 2.0)
        g = mellin_translate(m, 1.0)
        for x, th in lattice_points(10):
            p = PolarPoint(math.exp(x), th)
            assert g.value(p) == pytest.approx(m.value(p))

    def test_translate_moves_lattice_zero_to_one(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0)]:
            g = mellin_translate(make_mellin_sine(c, T), math.exp(math.pi / (2.0 * T)))
            assert g.value(PolarPoint(1.0, 0.0)) == pytest.approx(1.0)

    def test_translate_keeps_class(self):
        m = make_mellin_sine(0.5, 2.0)
        for t in (0.3, 1.7, math.exp(1.0)):
            g = mellin_translate(m, t)
            assert (g.c, g.T, g.growth_constant) == (m.c, m.T, m.growth_constant)
            assert verify_growth_bound(g) >= 0.0

    def test_dilate_identity_when_type_one(self):
        m = make_mellin_sine(0.7, 1.0)
        h = mellin_dilate(m)
        for x, th in lattice_points(10):
            p = PolarPoint(math.exp(x), th)
            assert h.value(p) == pytest.approx(m.value(p))

    def test_dilate_matches_unit_type_sine(self):
        c, T = 0.5, 2.0
        h = mellin_dilate(make_mellin_sine(c, T))
        ref = make_mellin_sine(c / T, 1.0)
        assert h.c == pytest.approx(c / T)
        assert h.T == 1.0
        for x, th in lattice_points(20):
            p = PolarPoint(math.exp(x), th)
            assert h.value(p) == pytest.approx(ref.value(p))

    def test_theta_shift_identity(self):
        m = make_mellin_sine(0.5, 2.0)
        phi = theta_shift(m, 0.0)
        for x, th in lattice_points(5):
            p = PolarPoint(math.exp(x), th)
            assert phi.value(p) == pytest.approx(m.value(p))

    def test_theta_shift_by_pi(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0)]:
            phi = theta_shift(make_mellin_sine(c, T), math.pi)
            got = phi.value(PolarPoint(1.0, 0.0))
            expected = cmath.exp(-1j * c * math.pi) * cmath.sin(1j * T * math.pi)
            assert got == pytest.approx(expected)
            assert phi.growth_constant == pytest.approx(math.exp(T * math.pi))

    @pytest.mark.parametrize("transform", [
        lambda m: mellin_translate(m, 1.37),
        lambda m: mellin_dilate(m),
        lambda m: theta_shift(m, -0.61),
    ])
    def test_derivative_law_matches_operator(self, transform):
        # the pulled-back chain must equal the finite-difference Theta_c of
        # the transformed function, 50 points, 1e-7 relative
        g = transform(make_mellin_sine(0.5, 2.0))
        fd_copy = PolarFunction(g.f.log_fn, g.f.domain)
        for x, th in lattice_points(50, (-1.5, 1.5), (-1.5, 1.5)):
            p = PolarPoint(math.exp(x), th)
            closed = mellin_derivative(fd_copy, p, g.c)
            operator = mellin_derivative(g.f, p, g.c)
            assert abs(closed - operator) <= 1e-7 * (1.0 + abs(closed))

    def test_domain_is_the_preimage_under_the_chart_map(self):
        # a strip (-1, 2) punctured at zeta = 1 + 0.5i, pulled back through
        # zeta -> zeta + 0.25i (shift) and zeta -> zeta/2 (dilate, T = 2)
        base = make_mellin_sine(0.5, 2.0).f
        f = PolarFunction(base.log_fn, domain=Domain(-1.0, 2.0, (PolarPoint(math.e, 0.5),)),
                          theta_chain=base.theta_chain)
        m = MellinBernsteinMember(f, 0.5, 2.0, 1.0)
        for g, (lo, hi), zeta in [(theta_shift(m, 0.25).f, (-1.25, 1.75), 1.0 + 0.25j),
                                  (mellin_dilate(m).f, (-2.0, 4.0), 2.0 + 1.0j)]:
            assert (g.domain.theta_min, g.domain.theta_max) == (lo, hi)
            (q,) = g.domain.excluded
            assert q.log_z == pytest.approx(zeta, abs=1e-15)

    @pytest.mark.parametrize("kind", ["translate", "dilate", "theta_shift"])
    @settings(max_examples=30, deadline=None, database=None)
    @given(c=st.floats(-1.5, 1.5), T=st.floats(0.3, 3.0), param=st.floats(-1.0, 1.0),
           x=st.floats(-1.5, 1.5), th=st.floats(-1.5, 1.5), c_new=st.floats(-2.0, 2.0))
    def test_chart_affine_derivative_law(self, kind, c, T, param, x, th, c_new):
        # g(zeta) = s f(a zeta + b): Theta^k_{c'} g = a^k s (Theta^k_{c'/a} f)(a zeta + b),
        # the right side evaluated on the base member
        m = make_mellin_sine(c, T)
        if kind == "translate":
            t = math.exp(param)
            g, a, b, s = mellin_translate(m, t), 1.0, complex(math.log(t), 0.0), t ** c
        elif kind == "dilate":
            g, a, b, s = mellin_dilate(m), 1.0 / T, 0j, 1.0
        else:
            g, a, b, s = theta_shift(m, param), 1.0, complex(0.0, param), 1.0
        p = PolarPoint(math.exp(x), th)
        image = a * complex(x, th) + b
        q = PolarPoint(math.exp(image.real), image.imag)
        for k in (1, 2, 3):
            got = higher_mellin_derivative(g.f, p, c_new, k)
            law = a ** k * s * higher_mellin_derivative(m.f, q, c_new / a, k)
            assert abs(got - law) <= 1e-10 * (1.0 + abs(law))


# ---------------------------------------------------------------------------
# central Mellin differences
# ---------------------------------------------------------------------------

class TestCentralDifference:
    def test_unit_increment_vanishes(self):
        f = make_mellin_sine(0.5, 2.0).f
        assert central_mellin_difference(f, PolarPoint(1.3, 0.4), 0.5, 1.0) == 0.0

    def test_power_closed_form(self):
        a, c = 1.5 + 0.5j, 0.7
        f = make_power(a)
        for h in (0.5, 2.0, math.e):
            for x, th in lattice_points(5):
                p = PolarPoint(math.exp(x), th)
                expected = (h ** (a + c) - h ** (-(a + c))) * f(p)
                got = central_mellin_difference(f, p, c, h)
                assert abs(got - expected) <= 1e-11 * (1.0 + abs(expected))

    def test_antisymmetry_in_increment(self):
        f = make_mellin_sine(0.3, 1.2).f
        p = PolarPoint(0.8, -0.4)
        for h in (0.25, 1.9, 4.0):
            plus = central_mellin_difference(f, p, 0.3, h)
            minus = central_mellin_difference(f, p, 0.3, 1.0 / h)
            assert plus == pytest.approx(-minus, rel=1e-12, abs=1e-15)

    def test_member_bound(self):
        # |delta_{c,h} f| <= 2 C_f r^{-c} e^{T |theta|}
        m = make_mellin_sine(0.5, 2.0)
        for h in (0.5, 1.5, 3.0):
            for x, th in lattice_points(10):
                p = PolarPoint(math.exp(x), th)
                got = abs(central_mellin_difference(m.f, p, m.c, h))
                assert got <= 2.0 * m.growth_constant * p.r ** (-m.c) \
                    * math.exp(m.T * abs(th)) * (1.0 + 1e-12)

    def test_rejects_nonpositive_increment(self):
        with pytest.raises(PreconditionError):
            central_mellin_difference(make_power(1.0), PolarPoint(1.0, 0.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# weighted sup norm
# ---------------------------------------------------------------------------

class TestSupNorm:
    def test_sine_norm_is_one(self):
        for c, T in [(0.0, 1.0), (0.5, 2.0)]:
            est = sup_norm(make_mellin_sine(c, T).f, c)
            assert 0.999 <= est.value <= 1.0 + 1e-12

    def test_unimodular_power_norm(self):
        c, b = 0.8, 3.0
        est = sup_norm(make_power(complex(-c, b)), c)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        from mellin_polar.core import constant
        assert sup_norm(constant(0.0), 1.0).value == 0.0

    def test_norm_invariant_under_translation(self):
        m = make_mellin_sine(0.5, 2.0)
        base = sup_norm(m.f, m.c).value
        for i in range(10):
            t = math.exp(-1.0 + 2.0 * ((0.5 + (i + 1) * 0.618033988749) % 1.0))
            g = mellin_translate(m, t)
            assert sup_norm(g.f, g.c).value == pytest.approx(base, abs=2e-3)

    def test_grid_metadata_reported(self):
        est = sup_norm(make_mellin_sine(0.0, 1.0).f, 0.0, grid=LogGrid(-2.0, 2.0, 101))
        assert "101 points" in est.grid_spec
        assert "lower bound" in est.truncation_note


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_contains_expected_ids_in_stable_order(self):
        ids = [e.ident for e in function_registry()]
        assert ids == [e.ident for e in function_registry()]  # deterministic
        assert "mellin-sine" in ids
        assert "lin" in ids

    def test_sine_entry_documents_unit_constant(self):
        entry = next(e for e in function_registry() if e.ident == "mellin-sine")
        assert "C_f = 1" in entry.summary
        built = entry.build(c=0.5, T=2.0, a=None, t_shift=None, alpha=None)
        assert built.growth_constant == 1.0

    def test_lin_entry_documents_sinc_convention(self):
        entry = next(e for e in function_registry() if e.ident == "lin")
        assert "sin(pi t)/(pi t)" in entry.note
