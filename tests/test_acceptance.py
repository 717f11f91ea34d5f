"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Each test prints its verdict line only after every assertion
in it has held.
"""

import cmath
import math

import numpy as np
import pytest

from mellin_polar import (
    LogRectangle,
    LogPoleSpec,
    PolarPoint,
    SampleSet,
    bernstein_check,
    boas_derivative,
    boas_kernel,
    cauchy_derivative,
    cauchy_riemann_residual,
    cauchy_value,
    convergence_study,
    fit_loglog_slope,
    fourier_valiron_derivative,
    make_lin,
    make_mellin_sine,
    make_power,
    make_sine_blend,
    mellin_translate,
    polar_derivative_fd,
    power_member,
    residue_from_factor,
    residue_theorem_check,
    stirling_table,
    taylor_expand,
    theta_oracle,
    theta_shift,
    valiron_derivative,
    valiron_lin_form,
    valiron_reconstruct,
)
from mellin_polar.core import PolarFunction, constant
from mellin_polar.contours import Curve

from util import brute_force_stirling, lattice_points

CONFIGS = [(0.0, 1.0), (0.5, 2.0), (-1.0, math.pi)]


def _ok(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def translated_sine(c, T):
    return mellin_translate(make_mellin_sine(c, T), math.exp(math.pi / (6.0 * T)))


def test_01_boas_exactness():
    for c, T in CONFIGS:
        m = make_mellin_sine(c, T)
        p = PolarPoint(1.0, 0.0)
        errs = [abs(boas_derivative(m, p, n).value - T) for n in (8, 16, 32, 64)]
        assert all(b <= a * 1.0001 for a, b in zip(errs, errs[1:]))  # converging
        err64 = errs[-1]
        assert err64 <= 4.0 * T / (math.pi ** 2 * (2 * 64 - 1))
        assert err64 <= 5e-3 * T
    _ok(1, "Boas series converges to T; n=64 error under the a-priori bound "
           "and under 5e-3 T for all three (c, T)")


def test_02_bound_soundness_900_checks():
    members = [make_mellin_sine(0.5, 2.0), translated_sine(0.0, 1.0),
               make_sine_blend(-1.0, math.pi)]
    checks = 0
    violations = 0
    for m in members:
        xs = np.linspace(-0.8, 0.8, 5)
        ths = np.linspace(-0.5, 0.5, 5)
        for x in xs:
            for th in ths:
                p = PolarPoint(math.exp(x), th)
                oracle = theta_oracle(m, p)
                for n in (2, 4, 8, 16, 32, 64):
                    b = boas_derivative(m, p, n)
                    v = valiron_derivative(m, p, n)
                    checks += 2
                    if abs(b.value - oracle) > b.apriori_bound:
                        violations += 1
                    if abs(v.value - oracle) > v.apriori_bound:
                        violations += 1
    assert checks == 900
    assert violations == 0
    _ok(2, "zero violations of the two truncation bounds over 900 checks "
           "(3 members x 25 points x 6 truncations x 2 formulas)")


def test_03_decay_rate_separation():
    m = mellin_translate(make_sine_blend(0.5, 2.0), math.exp(0.2))
    ns = [8, 16, 32, 64, 128, 256, 512]
    rows = convergence_study(m, PolarPoint(1.3, 0.0), ns)
    boas_slope = fit_loglog_slope(ns, [r.boas_error for r in rows])
    valiron_slope = fit_loglog_slope(ns, [r.valiron_error for r in rows])
    assert -1.3 <= boas_slope <= -0.7
    assert -2.3 <= valiron_slope <= -1.7
    _ok(3, f"log-log error slopes separate the two series: "
           f"Boas {boas_slope:.3f} in -1 +/- 0.3, "
           f"Valiron-derived {valiron_slope:.3f} in -2 +/- 0.3")


def test_04_strip_cauchy_formula():
    rect = LogRectangle(-1.0, 1.0, -1.0, 1.0)  # theta-width 2 < 2 pi
    gamma = rect.boundary()
    for f in (make_power(3.0), make_mellin_sine(0.0, 1.0).f):
        for x, th in lattice_points(10, (-0.8, 0.8), (-0.8, 0.8)):
            p0 = PolarPoint(math.exp(x), th)
            got = cauchy_value(f, gamma, p0)
            assert abs(got - f(p0)) <= 1e-8
    _ok(4, "boundary integral reproduces interior values to 1e-8 for the "
           "cube and the sine on a strip of width 2")


def test_05_general_cauchy_formula():
    gamma = LogRectangle(-1.0, 1.0, -1.0, 1.0).boundary()
    p0 = PolarPoint(math.exp(0.2), 0.3)
    z0 = p0.log_z
    for a in (1.0 + 0j, 2.0 + 1.0j):
        f = make_power(a)
        for c in (0.0, 1.5):
            for k in (0, 1, 2):
                got = cauchy_derivative(f, gamma, p0, c, k)
                expected = (cmath.exp(c * z0) * (a + c) ** k * cmath.exp(a * z0)
                            / math.factorial(k))
                assert abs(got - expected) <= 1e-6 * abs(expected)
    _ok(5, "weighted boundary integral matches the eigenfunction closed form "
           "to 1e-6 relative for k in {0,1,2}, c in {0,1.5}, a in {1, 2+i}")


def test_06_residue_theorem():
    # (a) single simple logarithmic pole with unit factor
    pole = PolarFunction(
        lambda x, th: 1.0 / (np.asarray(x) + 1j * np.asarray(th)),
        name="unit_pole")
    gamma = LogRectangle(-1.0, 1.0, -1.0, 1.0).boundary()
    specs = (LogPoleSpec(PolarPoint(1.0, 0.0), 1, constant(1.0)),)
    for c in (0.0, 1.5):
        assert residue_theorem_check(pole, gamma, specs, c) <= 1e-7

    # (b) the differentiation kernel over its first rectangle
    sine = make_mellin_sine(0.0, 1.0)
    F, rect_gamma, poles = boas_kernel(sine.f, T=1.0, n_rect=1)
    assert residue_theorem_check(F, rect_gamma, poles, 0.0) <= 1e-7
    # residues match their closed forms to 1e-8
    assert abs(residue_from_factor(poles[0], 0.0) - 1.0) <= 1e-8
    for spec, k in zip(poles[1:], (-1, 0)):
        r_k = math.exp((k + 0.5) * math.pi)
        closed = (4.0 / math.pi ** 2 * (-1.0) ** (k + 1) / (2 * k + 1) ** 2
                  * sine.value(PolarPoint(r_k, 0.0)))
        assert abs(residue_from_factor(spec, 0.0) - closed) <= 1e-8
    _ok(6, "residue-theorem defect under 1e-7 for the unit pole and for the "
           "differentiation kernel over its rectangle; residues match closed "
           "forms to 1e-8")


def test_07_valiron_reconstruction():
    radii = np.exp(np.linspace(math.log(0.5), math.log(2.0), 16))
    for c, T in CONFIGS:
        m = translated_sine(c, T)
        max_err = {}
        for n in (128, 256):
            s = SampleSet.from_member(m, n)
            errs = []
            for r in radii:
                rep = valiron_reconstruct(s, float(r), n)
                errs.append(abs(rep.value - complex(m.weighted_profile(math.log(r), 0.0))))
                assert errs[-1] <= rep.apriori_bound + 1e-12 * m.growth_constant
            max_err[n] = max(errs)
        assert max_err[256] <= 1e-3
        assert max_err[256] < max_err[128]
    _ok(7, "reconstruction from translated-sine samples: every error within its "
           "truncation bound, max error over 16 off-lattice radii under 1e-3 at "
           "n=256 and shrinking when n doubles, for all three (c, T)")


def test_08_lin_form_equivalence():
    radii = np.exp(np.linspace(math.log(0.5), math.log(2.0), 16))
    for c, T in CONFIGS:
        m = translated_sine(c, T)
        s = SampleSet.from_member(m, 256)
        for r in radii:
            r = float(r)
            recon = valiron_reconstruct(s, r, 256).value
            weighted = valiron_lin_form(s, r, 256, variant="weighted")
            plain = valiron_lin_form(s, r, 256, variant="plain")
            assert abs(weighted - recon * r ** (-c)) <= 1e-10
            assert abs(weighted - plain) <= 1e-10
    _ok(8, "lin-kernel form agrees with the reconstruction to 1e-10 across "
           "the sweep, and its two weightings agree to 1e-10")


def test_09_bernstein_inequality():
    members = [
        make_mellin_sine(0.0, 1.0),
        make_mellin_sine(0.5, 2.0),
        translated_sine(-1.0, math.pi),
        theta_shift(make_mellin_sine(0.3, 1.5), 0.6),
        power_member(0.5, 2.0),
    ]
    for m in members:
        ratio = bernstein_check(m)
        assert ratio <= m.T * (1.0 + 1e-3), m.name
    witness = bernstein_check(make_mellin_sine(0.5, 2.0))
    assert witness >= 0.99 * 2.0
    _ok(9, "derivative-to-function norm ratio under T(1+1e-3) for five "
           "members; the sine witness attains at least 0.99 T")


def test_10_stirling_table():
    for c in (0.0, 1.0, -2.5):
        table = stirling_table(c, 5)
        for k in range(6):
            oracle = brute_force_stirling(c, k)
            for j in range(k + 1):
                assert table.exact(k, j) == oracle[j]
    t0 = stirling_table(0.0, 4)
    assert t0.value(4, 2) == 7.0
    assert t0.value(4, 3) == 6.0
    _ok(10, "generalized Stirling rows k <= 5 match the brute-force operator "
            "expansion exactly for c in {0, 1, -2.5}; classical values 7 and 6 "
            "reproduced")


def test_11_gradient_checks():
    library = [
        ("power(2)", make_power(2.0)),
        ("power(-1.5+0.5j)", make_power(-1.5 + 0.5j)),
        ("sine(0.5,2)", make_mellin_sine(0.5, 2.0).f),
        ("sine(-1,pi)", make_mellin_sine(-1.0, math.pi).f),
        ("lin(0.7)", make_lin(0.7)),
        ("blend(0.3,1.5)", make_sine_blend(0.3, 1.5).f),
    ]
    for name, f in library:
        for x, th in lattice_points(100):
            p = PolarPoint(math.exp(x), th)
            closed = f.dpol(p)
            fd = polar_derivative_fd(f, p, 1e-3)
            assert abs(fd - closed) <= 1e-6 * (1.0 + abs(closed)), name
        for x, th in lattice_points(25):
            assert cauchy_riemann_residual(f, PolarPoint(math.exp(x), th)) <= 1e-6, name
    witness = PolarFunction(lambda x, th: np.exp(np.asarray(x) - 1j * np.asarray(th)))
    assert cauchy_riemann_residual(witness, PolarPoint(1.0, 0.0)) >= 0.1
    _ok(11, "finite differences track every closed-form derivative to 1e-6 "
            "relative at 100 points per function; analyticity residual under "
            "1e-6 for the library, at least 0.1 for the conjugate witness")


def test_12_taylor_expansion():
    a = 1.0 + 0.5j
    f = make_power(a)
    p0 = PolarPoint(1.0, 0.0)
    expansion = taylor_expand(f, p0, 0.0, 20)
    count = 0
    for x, th in lattice_points(80, (-0.5, 0.5), (-0.5, 0.5)):
        if x * x + th * th >= 0.25:
            continue
        p = PolarPoint(math.exp(x), th)
        target = expansion.weighted_target(f, p)
        assert abs(expansion.partial_sum(p) - target) <= 1e-10
        count += 1
        if count == 50:
            break
    assert count == 50
    _ok(12, "order-20 expansion of the power function matches direct "
            "evaluation to 1e-10 at 50 points of the half-unit chart disk")


def test_13_fourier_analogue():
    for w in (1.0, 2.0):
        got = fourier_valiron_derivative(lambda t: math.sin(w * t), w, 0.0, 1)
        assert abs(got - w) <= 1e-14
    w = 2.0
    w0 = 0.7 * w
    g = lambda t: cmath.exp(1j * w0 * t)
    err = abs(fourier_valiron_derivative(g, w, 0.0, 128) - 1j * w0)
    assert err <= 1e-4 * w
    _ok(13, "line analogue: exact bandwidth recovery for the sine at n=1; "
            "sub-bandwidth exponential differentiated to 1e-4 w at n=128")
