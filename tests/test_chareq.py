import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaywave.chareq import (
    DelayGains,
    DelaySystem,
    ExpSum,
    NearSpectrum,
    NotACharRoot,
    QuadratureTooCoarse,
    Rational,
    char_expsum,
    direct_feedback_system,
    eigenfunction,
    equal_gain_system,
    eval_char,
    eval_g,
    fd_apply_shifted_generator,
    g_expsum,
    rational_from_float,
    resolvent_apply,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-3, max_value=3)


# ---------------------------------------------------------------- types


class TestRational:
    def test_from_string(self):
        assert Rational.from_string("41/20") == Rational(41, 20)
        assert Rational.from_string("3") == Rational(3, 1)
        assert Rational.from_string("6/4") == Rational(3, 2)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Rational(2, 4)
        with pytest.raises(ValueError):
            Rational(1, 0)
        with pytest.raises(ValueError):
            Rational(1, -2)

    def test_from_float(self):
        assert rational_from_float(2.05) == Rational(41, 20)
        assert rational_from_float(0.1) == Rational(1, 10)
        assert rational_from_float(np.pi) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(-6, 6))
    def test_recovered_rational_is_accepted(self, num, den, ulps):
        # every fraction rational_from_float returns stands for x in DelaySystem
        x = num / den
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        rat = rational_from_float(x)
        if rat is not None:
            assert equal_gain_system(-0.3, x).tau_rational == rat
            assert direct_feedback_system(0.3, x, rat).tau == x

    def test_ulp_off_decimal(self):
        s = equal_gain_system(-0.3, 0.30000000000000004)
        assert s.tau_rational == Rational(3, 10) and s.tau == 0.30000000000000004

    def test_tiny_positive_decimal_has_no_fraction(self):
        # 0/1 lies within 4 ulp of 1 of every x below about 8.9e-16, but stands for 0 only
        for x in (1e-16, 5e-324, 8.8e-16, -1e-16):
            assert rational_from_float(x) is None
        assert rational_from_float(0.0) == Rational(0, 1)
        assert equal_gain_system(0.5, 1e-16).tau_rational is None

    def test_tiny_delay_is_not_classified_as_delay_free(self):
        # a positive delay near 0 destabilises c > 0; the rational analysis of 0/1 said STABLE
        from delaywave.regions import classify

        with pytest.warns(UserWarning), pytest.raises(ValueError):
            classify(equal_gain_system(0.5, 1e-16))


class TestDelaySystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            DelaySystem(DelayGains(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            DelaySystem(DelayGains(0.0, 0.0), 2.0, tau_rational=Rational(3, 1))

    @pytest.mark.parametrize("tau", [math.inf, math.nan, -math.inf])
    def test_non_finite_delay(self, tau):
        with pytest.raises(ValueError):
            DelaySystem(DelayGains(0.2, 0.2), tau)

    @pytest.mark.parametrize("rat", [Rational(0, 1), Rational(-1, 10**6)])
    def test_fraction_must_be_positive(self, rat):
        with pytest.raises(ValueError):
            DelaySystem(DelayGains(0.5, 0.5), 1e-16, rat)

    def test_helpers(self):
        s = equal_gain_system(-0.3, 2.05)
        assert s.tau_rational == Rational(41, 20)
        d = direct_feedback_system(0.4, 4.0)
        assert d.c1 == 0.0 and d.c2 == 0.4


# ---------------------------------------------------------------- eval_char


class TestEvalChar:
    def test_full_at_origin(self):
        # cosh 0 = 1, sinh 0 = 0: value is -(1 + c1) whatever c2, tau
        for c1 in (-1.0, -0.25, 0.0, 2.0):
            s = DelaySystem(DelayGains(c1, 0.7), 1.3)
            assert eval_char(s, 0.0) == pytest.approx(-(1 + c1), abs=1e-15)

    def test_equal_zero_gain_axis_roots(self):
        s = equal_gain_system(0.0, 2.5)
        for k in range(-3, 4):
            lam = 1j * (k + 0.5) * np.pi
            assert abs(eval_char(s, lam)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(finite, finite, st.floats(min_value=0.1, max_value=5), finite, finite)
    def test_conjugate_symmetry(self, c1, c2, tau, re, im):
        lam = complex(re, im)
        for family in _GAINS:
            s = _system(family, c1, c2, tau)
            assert eval_char(s, np.conj(lam)) == pytest.approx(
                np.conj(eval_char(s, lam)), abs=1e-9, rel=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(finite, finite, st.floats(min_value=0.2, max_value=4), finite, st.floats(min_value=-8, max_value=8))
    def test_variant_identity(self, c, k, tau, re, im):
        # the helpers build points of the cascade loop: the same ExpSum as
        # the gains, valued as -cosh(lam)(1 + c1 e^{-tau lam}) - c2 sinh(lam) e^{-tau lam}
        lam = complex(re, im)
        for helper, c1, c2 in ((equal_gain_system(c, tau), c, c), (direct_feedback_system(k, tau), 0.0, k)):
            f = char_expsum(helper)
            assert f == char_expsum(DelaySystem(DelayGains(c1, c2), tau))
            delayed = cmath.exp(-tau * lam)
            paper = -cmath.cosh(lam) * (1 + c1 * delayed) - c2 * cmath.sinh(lam) * delayed
            assert abs(f(lam) - paper) <= 1e-12 * float(f.magnitude(lam))

    def test_overflow_guard(self):
        s = equal_gain_system(-0.25, 2.0)
        with np.errstate(over="raise"):
            v = eval_char(s, 500.0 + 3.0j)
        assert np.isfinite(v)
        # rescaling is by a positive real factor: argument unchanged
        w = eval_char(s, np.array([400.0 + 1.0j]))[0]
        assert np.isfinite(w)

    def test_vectorized(self):
        s = equal_gain_system(-0.25, 2.0)
        lams = np.array([0.0, 1j, 1 + 1j])
        vals = eval_char(s, lams)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(eval_char(s, 0.0))


# the cascade loop and its two one-gain families, built from a drawn (c1, c2)
_GAINS = {
    "two gains": lambda c1, c2: DelayGains(c1, c2),
    "equal gains": lambda c1, c2: DelayGains(c1, c1),
    "direct feedback": lambda c1, c2: DelayGains(0.0, c2),
}


def _system(family, c1, c2, tau):
    return DelaySystem(_GAINS[family](c1, c2), tau)


def _vector_reference(f, lam):
    """The array evaluation with the per-point shift always computed over
    every rate (the form before the guard-free path)."""
    lam = np.asarray(lam, dtype=complex)
    top = np.max(np.array(f.rates) * lam.real[..., None], axis=-1)
    shift = np.where(np.abs(top) > 600.0, top, 0.0)
    out = np.zeros(lam.shape, dtype=complex)
    for c, a in zip(f.coefs, f.rates):
        out += c * np.exp(a * lam - shift)
    return out


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# real parts near the origin and beyond the overflow guard on both sides
_re_parts = st.one_of(finite, st.floats(100, 400), st.floats(-400, -100))


class TestExpSumPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(_GAINS)),
        finite,
        finite,
        st.floats(min_value=0.1, max_value=5),
        st.lists(st.tuples(_re_parts, st.floats(-60, 60)), min_size=1, max_size=6),
    )
    def test_scalar_and_vector_agree(self, family, c1, c2, tau, points):
        f = char_expsum(_system(family, c1, c2, tau))
        lams = np.array([complex(re, im) for re, im in points])
        vec = f(lams)
        for lam, v in zip(lams, vec):
            for arg in (lam, complex(lam)):
                sc = f(arg)
                assert isinstance(sc, np.complex128)
                assert abs(sc - v) <= 1e-14 * float(f.magnitude(arg))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(_GAINS)),
        finite,
        finite,
        st.floats(min_value=0.1, max_value=5),
        st.lists(st.tuples(_re_parts, st.floats(-60, 60)), min_size=0, max_size=6),
    )
    def test_vector_path_matches_reference(self, family, c1, c2, tau, points):
        # the guard is skipped only where the shift would be 0 everywhere,
        # so the output is bit-identical to always computing it
        f = char_expsum(_system(family, c1, c2, tau))
        lams = np.array([complex(re, im) for re, im in points], dtype=complex)
        assert np.array_equal(f(lams), _vector_reference(f, lams))

    def test_vector_path_matches_reference_with_complex_coefficients(self):
        # numpy's complex products round differently with their factors
        # swapped once a coefficient is not real; 1000 points, some rescaled
        rng = np.random.default_rng(5)
        f = ExpSum.of([(complex(*rng.standard_normal(2)), a) for a in (-3.0, -1.0, 0.5, 2.0)])
        lams = rng.uniform(-400, 400, 1000) + 1j * rng.uniform(-60, 60, 1000)
        assert np.array_equal(f(lams), _vector_reference(f, lams))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(_GAINS)),
        finite,
        finite,
        st.floats(min_value=0.1, max_value=5),
        st.tuples(_re_parts, st.floats(-60, 60)),
    )
    # g - c at tau = 4 has rates 0, 2, 4: the derivative keeps the rate-0 end, at coefficient 0
    @example("equal gains", 0.3, 0.3, 4.0, (-400.0, 1.0))
    def test_with_slope_is_both_evaluations_bit_for_bit(self, family, c1, c2, tau, point):
        # one set of exponentials at one rescaling serves f and f', also with
        # a rate-0 end term far left or right
        f = char_expsum(_system(family, c1, c2, tau))
        lam = complex(*point)
        for g in (f, f.derivative(), g_expsum(tau, c1)):
            got, want = g.with_slope(lam), (g(lam), g.derivative()(lam))
            assert [_bits(z) for z in got] == [_bits(z) for z in want]

    def test_derivative_keeps_the_rates_and_the_rescaling(self):
        # g - 0.3 at tau = 4: rates 0, 2, 4; the rate-0 term keeps coefficient 0j
        f = g_expsum(4.0, 0.3)
        d = f.derivative()
        assert d.rates == f.rates == (0.0, 2.0, 4.0)
        assert [_bits(z) for z in d.coefs] == [_bits(0j + c * a) for c, a in zip(f.coefs, f.rates)]
        assert d._shift(-400.0) == f._shift(-400.0) == 0.0

    def test_scalar_path_under_overflow_trap(self):
        for family in _GAINS:
            f = char_expsum(_system(family, 0.7, -0.4, 1.3))
            with np.errstate(over="raise", invalid="raise"):
                for lam in (800.0 + 3.0j, -800.0 + 1.0j, np.complex128(650.0 - 2.0j), np.float64(-700.0), 900):
                    v = f(lam)
                    assert np.isfinite(v) and abs(v) <= float(f.magnitude(lam)) * (1 + 1e-12)


class TestEvalG:
    def test_at_zero(self):
        s = equal_gain_system(0.3, 1.7)
        assert eval_g(s, 0.0) == pytest.approx(-1.0)

    def test_quarter_circle_tau_two(self):
        s = equal_gain_system(0.3, 2.0)
        assert abs(eval_g(s, 1j * np.pi / 2)) < 1e-15

    def test_real_axis_tau_two(self):
        s = equal_gain_system(0.0, 2.0)
        for sig in (0.1, 1.0, 3.0):
            assert eval_g(s, sig).real < -0.5

    @settings(max_examples=40, deadline=None)
    @given(finite, st.floats(min_value=0.2, max_value=4), finite, st.floats(min_value=-6, max_value=6))
    def test_g_equals_c_iff_char_zero(self, c, tau, re, im):
        # g(lam) - c = e^{(tau-1) lam} * char(lam)
        lam = complex(re, im)
        s = equal_gain_system(c, tau)
        lhs = eval_g(s, lam) - c
        rhs = np.exp((tau - 1) * lam) * eval_char(s, lam)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_kind_guard(self):
        with pytest.raises(ValueError):
            eval_g(DelaySystem(DelayGains(0.1, 0.2), 2.0), 1j)

    def test_any_tag_with_equal_gains(self):
        lam = np.array([0.3 + 2.0j, -1.0 + 0.5j, 4.0j])
        s, twin = DelaySystem(DelayGains(0.4, 0.4), 1.7), equal_gain_system(0.4, 1.7)
        assert np.array_equal(eval_g(s, lam), eval_g(twin, lam))


# ---------------------------------------------------------------- eigenfunctions


class TestEigenfunction:
    def test_zero_eigenvalue(self):
        s = DelaySystem(DelayGains(-1.0, 0.5), 2.0)
        x, f, g, h = eigenfunction(s, 0.0, 8)
        assert np.allclose(f, x)
        assert np.all(g == 1.0) and np.all(h == 1.0)

    def test_zero_rejected_without_unit_gain(self):
        s = DelaySystem(DelayGains(-0.5, 0.5), 2.0)
        with pytest.raises(NotACharRoot):
            eigenfunction(s, 0.0, 8)

    def test_boundary_residuals_at_root(self):
        s = equal_gain_system(-0.25, 2.0)
        lam = np.log(0.5) / 2 + 1j * np.pi / 2
        n = 4000
        x, f, g, h = eigenfunction(s, lam, n)
        assert f[0] == 0.0
        dx = 1.0 / n
        fp1 = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * dx)
        assert abs(fp1 - h[-1]) < 1e-10
        assert abs(h[0] + s.c1 * h[-1] + s.c2 * g[-1]) < 1e-10

    def test_rejects_non_root(self):
        s = equal_gain_system(-0.25, 2.0)
        with pytest.raises(NotACharRoot):
            eigenfunction(s, 0.3 + 0.4j, 16)


# ---------------------------------------------------------------- resolvent


def _grid(n):
    return np.linspace(0.0, 1.0, n + 1)


def _smooth_y(x, rng, scale=1.0):
    f1 = scale * (rng.uniform(-1, 1) * np.sin(np.pi * x / 2) + rng.uniform(-1, 1) * np.sin(np.pi * x))
    g1 = scale * (rng.uniform(-1, 1) * np.cos(np.pi * x) + rng.uniform(-1, 1) * np.sin(np.pi * x / 2))
    h1 = scale * (rng.uniform(-1, 1) * np.cos(np.pi * x / 2) + rng.uniform(-1, 1))
    return f1, g1, h1


class TestResolvent:
    def test_linearity_zero(self):
        s = equal_gain_system(-0.25, 2.0)
        x = _grid(64)
        zero = np.zeros_like(x)
        f, g, h = resolvent_apply(s, 1 + 1j, (zero, zero, zero))
        assert np.abs(f).max() == 0.0 and np.abs(g).max() == 0.0 and np.abs(h).max() == 0.0

    def test_fd_residual_smooth(self):
        # plain trapezoid quadrature: ~1e-6 accuracy on a 2000-cell grid
        s = equal_gain_system(-0.25, 2.0)
        x = _grid(2000)
        rng = np.random.default_rng(3)
        y = _smooth_y(x, rng)
        X = resolvent_apply(s, 1 + 1j, y)
        R = fd_apply_shifted_generator(s, 1 + 1j, x, X)
        err = max(np.abs(r - yy[2:-2]).max() for r, yy in zip(R, y))
        assert err < 1e-5

    def test_domain_boundary_conditions(self):
        # the discriminating check for the boundary datum: h(0) = -c1 h(1) - c2 g(1)
        for c1, c2 in [(-0.25, -0.25), (0.4, -0.6)]:
            s = DelaySystem(DelayGains(c1, c2), 2.0, Rational(2, 1))
            x = _grid(2000)
            rng = np.random.default_rng(11)
            y = _smooth_y(x, rng)
            f, g, h = resolvent_apply(s, 0.7 - 1.3j, y)
            assert abs(f[0]) == 0.0 or abs(f[0]) < 1e-14
            assert abs(g[0]) < 1e-12
            assert abs(h[0] + c1 * h[-1] + c2 * g[-1]) < 1e-12
            dx = x[1] - x[0]
            fp1 = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
            assert abs(fp1 - h[-1]) < 1e-5

    def test_neumann_leading_order(self):
        # for large real lam, X ~ Y/lam to leading order; the datum must sit
        # in the generator's domain or the truncation stalls at O(1) in the
        # boundary layer.  (e^10 intermediates: loosen the quadrature check.)
        s = equal_gain_system(-0.25, 2.0)
        x = _grid(1000)
        f1 = x.copy()                      # f1(0) = 0, f1'(1) = 1
        g1 = 0.5 * np.sin(np.pi * x)       # g1(0) = g1(1) = 0
        h1 = 0.25 + 0.75 * x               # h1(1) = f1'(1), h1(0) = -c1 h1(1) - c2 g1(1)
        X = resolvent_apply(s, 10.0, (f1, g1, h1), quad_tol=1e-3)
        num = max(np.abs(c - d / 10.0).max() for c, d in zip(X, (f1, g1, h1)))
        den = max(np.abs(d / 10.0).max() for d in (f1, g1, h1))
        assert num / den < 0.2

    def test_near_spectrum(self):
        s = equal_gain_system(-0.25, 2.0)
        x = _grid(64)
        y = (x, x, x)
        root = np.log(0.5) / 2 + 1j * np.pi / 2
        with pytest.raises(NearSpectrum):
            resolvent_apply(s, root, y)
        with pytest.raises(NearSpectrum):
            resolvent_apply(s, 1e-9, y)

    def test_quadrature_too_coarse(self):
        s = equal_gain_system(-0.25, 2.0)
        x = _grid(16)
        wiggly = (np.sin(6 * np.pi * x) * x, np.cos(7 * np.pi * x), np.sin(5 * np.pi * x))
        with pytest.raises(QuadratureTooCoarse):
            resolvent_apply(s, 1 + 1j, wiggly, quad_tol=1e-9)


# ---------------------------------------------------------------- cross-variant roots


def test_variant_consistency_at_roots():
    # equal-gain cleared form and the two-gain determinant vanish together
    from delaywave.polyform import disk_roots, reduce_to_polynomial

    for m, n, c in [(2, 1, -0.25), (3, 1, 0.4), (3, 2, 1.1)]:
        eq = equal_gain_system(c, m / n, Rational(m, n))
        full = DelaySystem(DelayGains(c, c), m / n, Rational(m, n))
        for z in disk_roots(reduce_to_polynomial(eq)).roots:
            lam = -n * np.log(z)
            assert abs(eval_char(eq, lam)) < 1e-9
            assert abs(eval_char(full, lam)) < 1e-9
