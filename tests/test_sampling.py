"""Sampling series: differentiation, reconstruction, Bernstein, bounds."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mellin_polar import (
    DegenerateInputError,
    DomainError,
    MellinBernsteinMember,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    SampleSet,
    bernstein_check,
    boas_derivative,
    central_mellin_difference,
    convergence_study,
    fit_loglog_slope,
    fourier_valiron_derivative,
    make_mellin_sine,
    make_sine_blend,
    mellin_translate,
    power_member,
    theta_oracle,
    theta_shift,
    valiron_derivative,
    valiron_lin_form,
    valiron_reconstruct,
)
from mellin_polar.core import constant

from util import lattice_points

CONFIGS = [(0.0, 1.0), (0.5, 2.0), (-1.0, math.pi)]


def translated_sine(c, T):
    # ring samples sit at magnitude |sin(pi/6)| = 1/2, never on the lattice
    return mellin_translate(make_mellin_sine(c, T), math.exp(math.pi / (6.0 * T)))


def zero_member():
    return MellinBernsteinMember(constant(0.0), c=0.5, T=1.0, growth_constant=1.0,
                                 name="zero")


# ---------------------------------------------------------------------------
# Boas-type differentiation
# ---------------------------------------------------------------------------

class TestBoasDerivative:
    def test_sine_partial_sums_are_normalization_partials(self):
        # at (1, 0) every weighted sample of the sine is (-1)^k, so the
        # truncated series is exactly (4T/pi^2) * sum_{|2k+1|<=2n-1} (2k+1)^{-2}
        for c, T in CONFIGS:
            m = make_mellin_sine(c, T)
            for n in (1, 4, 16):
                ks = np.arange(-n, n)
                expected = 4.0 * T / math.pi ** 2 * np.sum(1.0 / (2.0 * ks + 1.0) ** 2)
                rep = boas_derivative(m, PolarPoint(1.0, 0.0), n)
                assert rep.value == pytest.approx(expected, rel=1e-13)
                assert rep.n_terms == 2 * n

    def test_sine_converges_to_type(self):
        for c, T in CONFIGS:
            m = make_mellin_sine(c, T)
            rep = boas_derivative(m, PolarPoint(1.0, 0.0), 64)
            err = abs(rep.value - T)
            assert err <= rep.apriori_bound
            assert err <= 5e-3 * T

    def test_normalization_identity(self):
        # (4/pi^2) sum_{k in Z} (2k+1)^{-2} = 1, checked through the partial
        # sum plus its integral-comparison tail bound
        n = 1_000_000
        ks = np.arange(-n, n, dtype=float)
        partial = 4.0 / math.pi ** 2 * float(np.sum(1.0 / (2.0 * ks + 1.0) ** 2))
        tail_bound = 4.0 / math.pi ** 2 / (2.0 * n - 1.0)
        assert abs(partial - 1.0) <= tail_bound

    def test_zero_member_reports_zero_with_positive_bound(self):
        rep = boas_derivative(zero_member(), PolarPoint(1.5, 0.2), 8)
        assert rep.value == 0.0
        assert rep.apriori_bound > 0.0

    def test_translation_covariance_term_by_term(self):
        # Boas series of the translate at (r, th) = t^c * series of m at (tr, th)
        m, t = make_mellin_sine(0.5, 2.0), 1.37
        g = mellin_translate(m, t)
        for n in (3, 17):
            for x, th in lattice_points(5):
                left = boas_derivative(g, PolarPoint(math.exp(x), th), n).value
                right = t ** m.c * boas_derivative(
                    m, PolarPoint(t * math.exp(x), th), n).value
                assert left == pytest.approx(right, rel=1e-12)

    def test_requires_at_least_one_block(self):
        with pytest.raises(PreconditionError):
            boas_derivative(make_mellin_sine(0.0, 1.0), PolarPoint(1.0, 0.0), 0)


# ---------------------------------------------------------------------------
# Valiron-derived differentiation
# ---------------------------------------------------------------------------

class TestValironDerivative:
    def test_sine_is_exact_at_minimal_truncation(self):
        # ring samples vanish on the lattice; the central difference alone
        # gives (T/2)(1 - (-1)) = T exactly
        for c, T in CONFIGS:
            m = make_mellin_sine(c, T)
            rep = valiron_derivative(m, PolarPoint(1.0, 0.0), 2)
            assert abs(rep.value - T) <= 1e-13 * T

    def test_delta_form_equivalence(self):
        # the sample form regrouped through central Mellin differences
        m = translated_sine(0.5, 2.0)
        p = PolarPoint(1.3, 0.4)
        n = 8
        h = math.exp(math.pi / m.T)
        delta = central_mellin_difference(m.f, p, m.c, math.sqrt(h)) / 2.0
        acc = delta
        for k in range(1, n):
            coef = (-1.0) ** k / (k * (4.0 * k * k - 1.0))
            acc += coef / math.pi * central_mellin_difference(m.f, p, m.c, h ** k)
        expected = m.T * acc
        got = valiron_derivative(m, p, n).value
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_zero_member(self):
        rep = valiron_derivative(zero_member(), PolarPoint(0.7, -0.1), 4)
        assert rep.value == 0.0

    def test_requires_two_blocks(self):
        with pytest.raises(PreconditionError):
            valiron_derivative(make_mellin_sine(0.0, 1.0), PolarPoint(1.0, 0.0), 1)

    def test_agrees_with_boas_at_deep_truncation(self):
        m = mellin_translate(make_sine_blend(0.5, 2.0), math.exp(0.2))
        p = PolarPoint(1.0, 0.0)
        b = boas_derivative(m, p, 200)
        v = valiron_derivative(m, p, 200)
        assert abs(b.value - v.value) <= b.apriori_bound + v.apriori_bound


# ---------------------------------------------------------------------------
# a-priori bounds and decay rates
# ---------------------------------------------------------------------------

class TestTruncationBounds:
    def test_bound_soundness_on_point_grid(self):
        # three members x 5x5 points x truncations: zero violations
        members = [make_mellin_sine(0.5, 2.0), translated_sine(0.0, 1.0),
                   make_sine_blend(0.3, 1.5)]
        xs = np.linspace(-0.8, 0.8, 5)
        ths = np.linspace(-0.6, 0.6, 5)
        for m in members:
            for x in xs:
                for th in ths:
                    p = PolarPoint(math.exp(x), th)
                    oracle = theta_oracle(m, p)
                    for n in (2, 4, 8):
                        b = boas_derivative(m, p, n)
                        v = valiron_derivative(m, p, n)
                        assert abs(b.value - oracle) <= b.apriori_bound
                        assert abs(v.value - oracle) <= v.apriori_bound

    def test_bounds_decay_monotonically(self):
        m = make_sine_blend(0.5, 2.0)
        rows = convergence_study(m, PolarPoint(1.0, 0.0), [2, 4, 8, 16, 32, 64, 128])
        for earlier, later in zip(rows, rows[1:]):
            assert later.boas_bound < earlier.boas_bound
            assert later.valiron_bound < earlier.valiron_bound

    def test_decay_rate_separation_on_blend(self):
        # the blend family exposes the worst-case rates: about n^{-1} for the
        # Boas route and n^{-2} for the Valiron-derived route
        m = mellin_translate(make_sine_blend(0.5, 2.0), math.exp(0.2))
        rows = convergence_study(m, PolarPoint(1.3, 0.0), [8, 16, 32, 64, 128, 256, 512])
        boas_slope = fit_loglog_slope([r.n for r in rows], [r.boas_error for r in rows])
        valiron_slope = fit_loglog_slope([r.n for r in rows], [r.valiron_error for r in rows])
        assert -1.3 <= boas_slope <= -0.7
        assert -2.3 <= valiron_slope <= -1.7

    def test_overflowing_boas_scale_is_refused(self):
        # C_f T e^{T|theta|} r^{-c} is finite at T = 1e308, 4T/pi^2 is not
        with pytest.raises(DomainError, match="bound overflows"):
            boas_derivative(make_mellin_sine(0.0, 1e308), PolarPoint(1.0, 0.0), 4)

    @pytest.mark.parametrize("call", [
        lambda: boas_derivative(make_mellin_sine(0.0, 1e-320), PolarPoint(1.0, 0.0), 4),
        lambda: valiron_derivative(make_mellin_sine(0.0, 1e-320), PolarPoint(1.0, 0.0), 4),
        lambda: valiron_derivative(make_mellin_sine(0.0, 1e308), PolarPoint(2.0, 0.0), 4),
        lambda: SampleSet.from_member(make_mellin_sine(0.0, 1e-320), 4),
        lambda: bernstein_check(make_mellin_sine(0.0, 1e20), n=4),
        lambda: bernstein_check(make_mellin_sine(0.0, 1e308), n=4),
        lambda: fourier_valiron_derivative(lambda t: 1.0, 1.0, 1e300, 4),
    ])
    def test_shifts_that_are_infinite_or_do_not_move_x_are_refused(self, call):
        with pytest.raises(DomainError, match="sampling shift"):
            call()

    def test_study_requires_oracle(self):
        one = constant(1.0)
        bare = MellinBernsteinMember(PolarFunction(one.log_fn, one.domain),
                                     c=0.0, T=1.0, growth_constant=1.0)
        with pytest.raises(PreconditionError):
            convergence_study(bare, PolarPoint(1.0, 0.0), [2, 4])


# ---------------------------------------------------------------------------
# Valiron reconstruction
# ---------------------------------------------------------------------------

class TestValironReconstruction:
    def test_pure_sine_reconstructs_exactly(self):
        # all ring samples and the center value vanish; only the derivative
        # term survives and the reconstruction is sin(T log r) for every n
        for c, T in CONFIGS:
            s = SampleSet.from_member(make_mellin_sine(c, T), 8)
            for r in (0.6, 1.17, 2.5):
                for n in (1, 3, 8):
                    rep = valiron_reconstruct(s, r, n)
                    assert rep.value == pytest.approx(math.sin(T * math.log(r)),
                                                      abs=1e-12)

    def test_center_limit(self):
        m = translated_sine(0.5, 2.0)
        s = SampleSet.from_member(m, 4)
        rep = valiron_reconstruct(s, 1.0, 4)
        assert rep.value == pytest.approx(s.center_value, abs=1e-12)

    def test_exact_interpolation_on_the_lattice(self):
        m = translated_sine(0.5, 2.0)
        s = SampleSet.from_member(m, 6)
        for k in (1, -2, 3):
            r = math.exp(k * math.pi / m.T)
            rep = valiron_reconstruct(s, r, 6)
            assert rep.value == pytest.approx(s.weighted_ring[k], abs=1e-12)

    def test_translated_sine_converges_off_grid(self):
        for c, T in CONFIGS:
            m = translated_sine(c, T)
            radii = np.exp(np.linspace(math.log(0.5), math.log(2.0), 20))
            errs = {}
            for n in (64, 128, 256):
                s = SampleSet.from_member(m, n)
                errs[n] = max(
                    abs(valiron_reconstruct(s, float(r), n).value
                        - complex(m.weighted_profile(math.log(r), 0.0)))
                    for r in radii)
            assert errs[256] < errs[128] < errs[64]
            assert errs[256] <= 1e-3
            # O(1/n) empirical envelope
            assert errs[128] <= 2.5 * errs[256]

    def test_truncation_bound_dominates_true_error(self):
        m = translated_sine(0.5, 2.0)
        n = 64
        s = SampleSet.from_member(m, n)
        assert s.growth_constant == m.growth_constant
        for r in (0.7, 1.3, 1.9):
            rep = valiron_reconstruct(s, r, n)
            oracle = complex(m.weighted_profile(math.log(r), 0.0))
            assert 0.0 < rep.apriori_bound < math.inf
            assert abs(rep.value - oracle) <= rep.apriori_bound + 1e-12 * m.growth_constant

    @settings(max_examples=150, deadline=None, database=None)
    @given(kind=st.sampled_from(["sine", "translated", "theta-shifted", "blend"]),
           c=st.floats(-1.0, 1.0), T=st.floats(0.25, 4.0), log_r=st.floats(-8.0, 8.0),
           n=st.integers(1, 40))
    def test_truncation_bound_is_sound(self, kind, c, T, log_r, n):
        m = {"sine": lambda: make_mellin_sine(c, T),
             "translated": lambda: translated_sine(c, T),
             "theta-shifted": lambda: theta_shift(make_mellin_sine(c, T), 0.35),
             "blend": lambda: mellin_translate(make_sine_blend(c, T), math.exp(0.4 / T)),
             }[kind]()
        s = SampleSet.from_member(m, n)
        r = math.exp(log_r)
        if abs(T * math.log(r)) / math.pi >= n:
            with pytest.raises(PreconditionError, match="truncation bound"):
                valiron_reconstruct(s, r, n)
            return
        rep = valiron_reconstruct(s, r, n)
        oracle = complex(m.weighted_profile(math.log(r), 0.0))
        assert abs(rep.value - oracle) <= rep.apriori_bound + 1e-12 * m.growth_constant

    def test_sample_set_validation(self):
        with pytest.raises(PreconditionError, match="symmetric"):
            SampleSet(c=0.0, T=1.0, growth_constant=1.0, center_value=0.0,
                      center_derivative=1.0, ring_samples={1: 0.1}, weighted_ring={1: 0.1})
        with pytest.raises(PreconditionError):
            SampleSet.from_member(make_mellin_sine(0.0, 1.0), 0)

    @pytest.mark.parametrize("growth", [0.0, -1.0, math.inf, math.nan])
    def test_sample_set_refuses_growth_constant(self, growth):
        with pytest.raises(PreconditionError, match="growth_constant"):
            SampleSet(c=0.0, T=1.0, growth_constant=growth, center_value=0.0,
                      center_derivative=1.0, ring_samples={1: 0.1, -1: 0.1},
                      weighted_ring={1: 0.1, -1: 0.1})

    def test_truncation_beyond_samples_rejected(self):
        s = SampleSet.from_member(make_mellin_sine(0.0, 1.0), 4)
        with pytest.raises(PreconditionError):
            valiron_reconstruct(s, 1.3, 5)


# ---------------------------------------------------------------------------
# lin-kernel forms
# ---------------------------------------------------------------------------

class TestLinForms:
    def test_agreement_with_reconstruction(self):
        m = translated_sine(0.5, 2.0)
        s = SampleSet.from_member(m, 50)
        for i, (x, _) in enumerate(lattice_points(20, (-0.6, 0.6), (0, 1))):
            r = math.exp(x)
            recon = valiron_reconstruct(s, r, 50).value
            lin = valiron_lin_form(s, r, 50)
            assert abs(lin - recon * r ** (-m.c)) <= 1e-10

    def test_both_variants_agree(self):
        m = translated_sine(-1.0, math.pi)
        s = SampleSet.from_member(m, 50)
        for x, _ in lattice_points(20, (-0.6, 0.6), (0, 1)):
            r = math.exp(x)
            weighted = valiron_lin_form(s, r, 50, variant="weighted")
            plain = valiron_lin_form(s, r, 50, variant="plain")
            assert abs(weighted - plain) <= 1e-10

    def test_center_value_recovered(self):
        m = translated_sine(0.5, 2.0)
        s = SampleSet.from_member(m, 8)
        got = valiron_lin_form(s, 1.0, 8)
        assert got == pytest.approx(s.center_value, abs=1e-12)

    def test_unknown_variant_rejected(self):
        s = SampleSet.from_member(make_mellin_sine(0.0, 1.0), 2)
        with pytest.raises(PreconditionError):
            valiron_lin_form(s, 1.0, 2, variant="other")


# ---------------------------------------------------------------------------
# classical-line analogue
# ---------------------------------------------------------------------------

class TestFourierValiron:
    def test_sine_exact_at_first_truncation(self):
        for w in (1.0, 2.0, math.pi):
            got = fourier_valiron_derivative(lambda t: math.sin(w * t), w, 0.0, 1)
            assert abs(got - w) <= 1e-14 * w

    def test_constant_derivative_vanishes(self):
        got = fourier_valiron_derivative(lambda t: 3.5, 2.0, 0.7, 16)
        assert abs(got) < 1e-15

    def test_subtype_exponential_converges_quadratically(self):
        w, w0 = 2.0, 1.4
        g = lambda t: cmath.exp(1j * w0 * t)
        x = 0.3
        oracle = 1j * w0 * g(x)
        errs = []
        for n in (8, 16, 32, 64, 128):
            errs.append(abs(fourier_valiron_derivative(g, w, x, n) - oracle))
            # O(n^{-2}) envelope from the coefficient tail with |g| <= 1
            assert errs[-1] <= 2.0 * w / (math.pi * (8.0 * n * n - 2.0))
        assert errs[-1] <= 1e-4 * w

    def test_mellin_correspondence_through_weighted_profile(self):
        # x -> e^{c x} f(e^x, 0) is bandlimited of type T on the line, and the
        # classical formula on it reproduces r^c Theta_c f(r, 0) sample for sample
        m = translated_sine(0.5, 2.0)
        g = lambda t: complex(m.weighted_profile(t, 0.0))
        for r in (0.8, 1.6):
            x = math.log(r)
            line = fourier_valiron_derivative(g, m.T, x, 32)
            mellin = valiron_derivative(m, PolarPoint(r, 0.0), 33).value
            assert abs(line - r ** m.c * mellin) <= 1e-12 * (1.0 + abs(line))

    def test_validation(self):
        with pytest.raises(PreconditionError):
            fourier_valiron_derivative(lambda t: 0.0, 1.0, 0.0, 0)
        with pytest.raises(PreconditionError):
            fourier_valiron_derivative(lambda t: 0.0, -1.0, 0.0, 4)


# ---------------------------------------------------------------------------
# Bernstein inequality
# ---------------------------------------------------------------------------

class TestBernsteinCheck:
    def test_sine_attains_the_type(self):
        for c, T in CONFIGS:
            ratio = bernstein_check(make_mellin_sine(c, T))
            assert 0.99 * T <= ratio <= T * (1.0 + 1e-3)

    def test_subtype_member_in_wider_class(self):
        # mellin_sine(c, T/2) viewed in class (c, T): the ratio stays near T/2
        c, T = 0.5, 2.0
        m = make_mellin_sine(c, T / 2.0).as_class(T)
        ratio = bernstein_check(m)
        assert ratio <= T * (1.0 + 1e-3)
        assert ratio == pytest.approx(T / 2.0, rel=2e-3)

    def test_iterated_derivative_stays_in_class(self):
        # Theta_c maps the class to itself with constant T C_f, so the ratio
        # check applies to the derivative member as well: ratio^2 <= T^2
        c, T = 0.5, 2.0
        m = make_mellin_sine(c, T)
        ratio1 = bernstein_check(m)
        dm = MellinBernsteinMember(
            m.f.theta_chain(c), c=c, T=T, growth_constant=T * m.growth_constant,
            name="theta_sine")
        ratio2 = bernstein_check(dm)
        assert ratio1 * ratio2 <= T ** 2 * (1.0 + 5e-3)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            bernstein_check(zero_member())

    @pytest.mark.parametrize("n", [0, -3])
    def test_requires_at_least_one_block(self, n):
        # an empty block table would give the vacuous ratio 0
        with pytest.raises(PreconditionError):
            bernstein_check(make_mellin_sine(0.0, 1.0), n=n)

    def test_other_members_respect_type(self):
        for m in (translated_sine(0.5, 2.0),
                  theta_shift(make_mellin_sine(0.3, 1.5), 0.4),
                  make_sine_blend(0.5, 2.0),
                  power_member(0.5, 2.0)):
            ratio = bernstein_check(m, n=200)
            assert ratio <= m.T * (1.0 + 1e-3), m.name
