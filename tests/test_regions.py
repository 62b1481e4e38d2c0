import collections
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from delaywave import contour, regions
from delaywave.chareq import (
    CharKind,
    DelayGains,
    DelaySystem,
    Rational,
    char_expsum,
    direct_feedback_system,
    equal_gain_system,
    eval_char,
)
from delaywave.contour import count_in_disk, min_unstable_imag, re_bound, spectral_abscissa
from delaywave.polyform import StabilityState, disk_roots, disk_terms, reduce_to_polynomial, stability_from_poly
from delaywave.regions import (
    RegionSpec,
    SearchExhausted,
    branch_sign_at_zero,
    branch_sign_r,
    branch_sign_strip,
    classify,
    clearance_height,
    critical_set_E,
    critical_set_strip,
    find_pos_neg_cos,
    hale_two_delay,
    nearest_boundary,
    boundary_side,
    exclusion_constant,
    region_boundaries_bisect,
    second_order_at_zero,
    stability_region,
    strip_continuation,
    unit_circle_continuation,
)


# ---------------------------------------------------------------- critical sets


class TestCriticalSetE:
    def test_two_one(self):
        assert critical_set_E(2, 1).values == (-1.0, 0.0)

    def test_four_one(self):
        vals = critical_set_E(4, 1).values
        assert any(abs(v - 0.5) < 1e-12 for v in vals)       # smallest positive element
        assert not any(abs(v + 0.5) < 1e-9 for v in vals)    # no mirror on the negative side
        assert vals[0] == -1.0

    def test_six_one_negative_endpoint(self):
        vals = critical_set_E(6, 1).values
        assert any(abs(v + math.sin(math.pi / 10)) < 1e-12 for v in vals)

    def test_values_in_unit_interval(self):
        for m, n in [(2, 1), (3, 2), (5, 2), (7, 3), (8, 3)]:
            vals = critical_set_E(m, n).values
            assert all(-1.0 <= v <= 1.0 for v in vals)
            assert 0.0 in vals

    def test_validated(self):
        for m, n in [(2, 1), (4, 1), (3, 2), (5, 2), (6, 1)]:
            critical_set_E(m, n, validate=True)

    def test_validation_rejects_a_wrong_value(self, monkeypatch):
        crossings = regions._equal_gain_crossings
        monkeypatch.setattr(regions, "_equal_gain_crossings", lambda m, n: crossings(m, n) + 1e-6)
        with pytest.raises(ValueError, match="admits no unit-circle root"):
            critical_set_E(4, 1, validate=True)

    def test_validation_is_fast_at_high_degree(self):
        # degree 4001: one vectorised pass over the 2004 (value, angle) pairs
        t0 = time.perf_counter()
        cs = critical_set_E(2001, 1000, validate=True)
        assert time.perf_counter() - t0 < 1.0
        assert len(cs.values) == 1003

    def test_rejects_tau_one_and_noncoprime(self):
        with pytest.raises(ValueError):
            critical_set_E(1, 1)
        with pytest.raises(ValueError):
            critical_set_E(4, 2)

    def test_each_value_admits_circle_root(self):
        # defining property, checked at the generating angles theta = k pi/|m-n|
        for m, n in [(4, 1), (5, 2)]:
            d = abs(m - n)
            for k in range(2 * d):
                theta = k * math.pi / d
                v = -math.cos(m * theta)
                z = np.exp(1j * theta)
                assert abs(1 + 2 * v * z**m + z ** (2 * n)) < 1e-12


def test_critical_set_strip_contains_known_value():
    # tau = 2.5: g(i 2pi/3) = -0.5
    cs = critical_set_strip(2.5, -2, 2)
    assert cs.source == "C_ab"
    assert any(abs(v + 0.5) < 1e-9 for v in cs.values)


@st.composite
def _clean_strip_cases(draw):
    """``(tau, a, b, nodes)`` for a uniform search of [a pi, b pi] on which
    every zero of Im g(i beta) = -sin(d beta) cos(beta), d = tau - 1, is a
    simple sign change, alone in its grid cell and off the nodes.

    The space is tau in [0.05, 6] with |d| > 0.05, a in -4..3, b - a in
    1..4 and nodes = 64 (b - a) ceil|d| + 1 + extra with extra in 0..40.
    Drawn by construction: a and b are never 0, where beta = 0 is a zero on
    an end, and extra is drawn among the values that leave the grid clean;
    only a delay that no extra cleans is rejected.
    """
    tau = draw(st.floats(0.05, 0.95, exclude_max=True) | st.floats(1.05, 6.0, exclude_min=True))
    a = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3]))
    b = a + draw(st.sampled_from([w for w in range(1, 5) if a + w != 0]))
    d = tau - 1.0
    k0, k1 = sorted((a * d, b * d))
    zeros = [k * math.pi / d for k in range(math.ceil(k0), math.floor(k1) + 1)]
    zeros = sorted(zeros + [(j + 0.5) * math.pi for j in range(a, b)])

    def clean(nodes):
        h = (b - a) * math.pi / (nodes - 1)
        cells = [(z - a * math.pi) / h for z in zeros]
        return (
            all(a * math.pi + h < z < b * math.pi - h for z in zeros)
            and all(z2 - z1 > 2 * h for z1, z2 in zip(zeros, zeros[1:]))
            and all(abs(x - round(x)) > 1e-6 for x in cells)
        )

    base = 64 * (b - a) * max(1, math.ceil(abs(d))) + 1
    extras = [e for e in range(41) if clean(base + e)]
    assume(extras)
    return tau, a, b, base + draw(st.sampled_from(extras))


class TestCriticalSetStrip:
    def test_exact_values(self):
        # g(0) = -1 and g(+-2 pi i) = 1 sit on grid nodes of a uniform search
        values = critical_set_strip(2.5, -2, 2).values
        assert len(values) == 5
        assert np.allclose(values, (-1.0, -0.5, 0.0, 0.5, 1.0), rtol=0, atol=1e-12)

    def test_tau_one_raises(self):
        # g(i beta) = -cos(beta)^2 is real along the whole axis
        with pytest.raises(ValueError):
            critical_set_strip(1.0, -2, 2)

    @staticmethod
    def _sign_change_values(tau, a, b, nodes):
        """Re g(i beta) at the sign changes of Im g on a uniform grid of
        [a pi, b pi], each bisected 80 times."""

        def im_g(x):
            return -0.5 * (np.sin(tau * x) + np.sin((tau - 2.0) * x))

        beta = np.linspace(a * math.pi, b * math.pi, nodes)
        s = np.sign(im_g(beta))
        out = []
        for i in np.flatnonzero(s[:-1] * s[1:] < 0):
            lo, hi = beta[i], beta[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if np.sign(im_g(mid)) == s[i]:
                    lo = mid
                else:
                    hi = mid
            x = 0.5 * (lo + hi)
            out.append(-0.5 * (math.cos(tau * x) + math.cos((tau - 2.0) * x)))
        return out

    @settings(max_examples=100, deadline=None)
    @given(_clean_strip_cases())
    def test_matches_sign_change_search(self, case):
        tau, a, b, nodes = case
        found = self._sign_change_values(tau, a, b, nodes)
        closed = critical_set_strip(tau, a, b).values
        assert all(min(abs(v - c) for c in closed) < 1e-9 for v in found)
        assert all(min(abs(v - c) for v in found) < 1e-9 for c in closed)


class TestNearestBoundary:
    def test_values(self):
        assert nearest_boundary(2) == pytest.approx(1.0)
        assert nearest_boundary(4) == pytest.approx(0.5)
        assert nearest_boundary(6) == pytest.approx(math.sin(math.pi / 10))

    def test_sides(self):
        assert boundary_side(2) == -1 and boundary_side(6) == -1
        assert boundary_side(4) == 1 and boundary_side(8) == 1

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            nearest_boundary(3)


# ---------------------------------------------------------------- branch signs


class TestBranchSigns:
    def test_formula_signs(self):
        assert branch_sign_r(0.5, 4, 1) == -1
        assert branch_sign_r(-1.0, 4, 1) == 1
        assert branch_sign_r(1.0, 3, 2) == -1

    def test_rejects_noncritical(self):
        with pytest.raises(ValueError):
            branch_sign_r(0.37, 4, 1)
        with pytest.raises(ValueError):
            branch_sign_r(0.0, 4, 1)

    def test_continuation_agreement(self):
        lo, hi = unit_circle_continuation(4, 1, 0.5, 1e-5)
        # sign -1: modulus decreasing in c across the critical value
        assert lo > 1.0 > hi

    def test_continuation_sweep_random_critical_points(self):
        # formula sign vs numerical continuation over ~50 critical points
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 5))
            if m == n or math.gcd(m, n) != 1:
                continue
            values = [v for v in critical_set_E(m, n).values if abs(v) > 1e-9 and abs(abs(v) - 1.0) > 1e-9]
            if not values:
                continue
            c_star = float(values[int(rng.integers(0, len(values)))])
            lo, hi = unit_circle_continuation(m, n, c_star, 1e-5)
            drift = hi - lo
            if abs(drift) < 1e-12:   # tangential branch, continuation inconclusive
                continue
            assert branch_sign_r(c_star, m, n) == (1 if drift > 0 else -1), (m, n, c_star)
            checked += 1

    def test_continuation_needs_no_companion_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", refuse)
        for m, n in ((4, 1), (3, 2), (7, 3), (8, 3)):
            for c_star in critical_set_E(m, n).values:
                if abs(c_star) > 1e-9 and abs(abs(c_star) - 1.0) > 1e-9:
                    lo, hi = unit_circle_continuation(m, n, c_star, 1e-5)
                    assert branch_sign_r(c_star, m, n) == (1 if hi > lo else -1), (m, n, c_star)
                    assert (lo - 1.0) * (hi - 1.0) < 0, (m, n, c_star)
        lo, hi = unit_circle_continuation(3, 1, 0.0, 1e-4)
        assert lo < 1.0 + 1e-12 and hi < 1.0 + 1e-12

    def test_continuation_refuses_a_gain_with_no_circle_zero(self):
        with pytest.raises(ValueError):
            unit_circle_continuation(4, 1, 0.37)

    def test_at_zero_even(self):
        assert branch_sign_at_zero(0, 4, 1) == 1
        assert branch_sign_at_zero(1, 4, 1) == 1
        assert branch_sign_at_zero(0, 2, 1) == -1
        assert branch_sign_at_zero(1, 2, 1) == -1

    def test_at_zero_odd_m_defers(self):
        for k in (0, 1):
            assert branch_sign_at_zero(k, 3, 1) == 0
        assert second_order_at_zero(0, 3) == -4.0
        assert second_order_at_zero(0, 5) < 0

    def test_second_order_continuation(self):
        # n = 1, m = 3: both branches dip inside for either sign of c
        for dc in (1e-4, -1e-4):
            lo, hi = unit_circle_continuation(3, 1, 0.0, abs(dc))
            assert lo < 1.0 + 1e-12 and hi < 1.0 + 1e-12

    def test_at_zero_mixed_signs_n2(self):
        signs = {branch_sign_at_zero(k, 3, 2) for k in range(4)}
        assert 1 in signs and -1 in signs

    def test_strip_formula_table(self):
        assert branch_sign_strip(0.6, 2.0) == 1
        assert branch_sign_strip(-0.6, 2.0) == -1
        assert branch_sign_strip(0.6, 0.5) == -1
        with pytest.raises(ValueError):
            branch_sign_strip(0.0, 2.0)

    def test_strip_continuation(self):
        # tau = 2.5, c* = -0.5 at beta0 = 2pi/3: formula sign is -1
        re_lo, re_hi = strip_continuation(2.5, -0.5, 2 * np.pi / 3, 1e-5)
        assert branch_sign_strip(-0.5, 2.5) == -1
        assert re_lo > 0 > re_hi


class TestFindPosNegCos:
    def test_known_values(self):
        j, l = find_pos_neg_cos(2.5, 5)
        assert math.cos(2.5 * (j + 0.5) * math.pi) > 0
        assert math.cos(2.5 * (l + 0.5) * math.pi) < 0
        assert j == 1  # cos(3.75 pi) > 0 is the smallest-|index| hit

    def test_both_signs_within_ten(self):
        j, l = find_pos_neg_cos(4.2, 10)
        assert math.cos(4.2 * (j + 0.5) * math.pi) > 0
        assert math.cos(4.2 * (l + 0.5) * math.pi) < 0

    def test_even_integer_degenerate(self):
        # tau = 2: cos(2(k+1/2)pi) = -1 for every k; the positive sign
        # genuinely does not exist and the bounded search must say so
        with pytest.raises(SearchExhausted):
            find_pos_neg_cos(2.0, 50)


# ---------------------------------------------------------------- regions


class TestStabilityRegion:
    def test_cascade_windows(self):
        r2 = stability_region(2.0, CharKind.CASCADE_EQUAL_GAINS)
        assert (r2.lower, r2.upper, r2.empty) == (-1.0, 0.0, False)
        r4 = stability_region(4.0, CharKind.CASCADE_EQUAL_GAINS)
        assert r4.lower == 0.0 and r4.upper == pytest.approx(0.5)
        r6 = stability_region(6.0, CharKind.CASCADE_EQUAL_GAINS)
        assert r6.lower == pytest.approx(-math.sin(math.pi / 10)) and r6.upper == 0.0

    def test_direct_windows(self):
        r2 = stability_region(2.0, CharKind.DIRECT_DELAY_FEEDBACK)
        assert r2.lower == pytest.approx(-1.0) and r2.upper == 0.0
        r4 = stability_region(4.0, CharKind.DIRECT_DELAY_FEEDBACK)
        assert r4.upper == pytest.approx(math.tan(math.pi / 8))

    def test_everything_else_empty(self):
        for tau in (0.5, 1.0, 1.5, 2.5, 3.0, 5.0, math.pi, math.sqrt(2)):
            assert stability_region(tau, CharKind.CASCADE_EQUAL_GAINS).empty
            assert stability_region(tau, CharKind.DIRECT_DELAY_FEEDBACK).empty

    def test_region_spec_invariant(self):
        with pytest.raises(ValueError):
            RegionSpec.interval(1.0, 1.0)


class TestHale:
    def test_unit_wave_coefficient_kills_stability(self):
        assert not hale_two_delay(-1.0, 0.3, 0.2)
        assert not hale_two_delay(-1.0, 0.0, 0.0)

    def test_generic(self):
        assert hale_two_delay(0.0, 0.3, 0.2)
        assert not hale_two_delay(0.5, 1.0, 1.0)


# ---------------------------------------------------------------- classifier


def _near_stabilising_systems(seed, count):
    """Equal-gain loops at tau = b + eps, b in {0, 2, 4, 6}, |eps| log-uniform
    in [1e-3, 0.2] (both signs at even b), c inside the window of b."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        base = int(rng.choice([0, 2, 4, 6]))
        eps = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
        if base:
            region = stability_region(float(base), CharKind.CASCADE_EQUAL_GAINS)
            c = region.lower + (region.upper - region.lower) * rng.uniform(0.05, 0.95)
            eps *= rng.choice([-1.0, 1.0])
        else:
            c = rng.uniform(0.05, 2.0)
        out.append((base, float(eps), equal_gain_system(float(c), base + float(eps))))
    return out


def _near_stabilising_rationals(seed, count):
    """Equal-gain loops at tau = m/n = b + k/n, b in {2, 4, 6}, n log-uniform
    in [40, 3000], 1 <= |k| <= 3 prime to n, c inside the window of b: every
    one of reduced degree above the witness crossover."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = int(rng.choice([2, 4, 6]))
        n = int(round(10.0 ** rng.uniform(math.log10(40), math.log10(3000))))
        k = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        if math.gcd(k, n) != 1:
            continue
        region = stability_region(float(base), CharKind.CASCADE_EQUAL_GAINS)
        c = region.lower + (region.upper - region.lower) * rng.uniform(0.05, 0.95)
        m = base * n + k
        out.append(equal_gain_system(float(c), m / n, Rational(m, n)))
    return out


class TestClearanceHeight:
    def test_no_certificate(self):
        # unequal gains, and a gain outside the window of the nearest even delay
        assert clearance_height(DelaySystem(DelayGains(-0.3, -0.5), 2.01), 1.0) == 0.0
        assert clearance_height(equal_gain_system(0.3, 2.01), 1.0) == 0.0
        assert clearance_height(equal_gain_system(-0.3, 0.01), 1.0) == 0.0
        assert clearance_height(equal_gain_system(-0.5, 2.0), 1.0) == math.inf

    @pytest.mark.parametrize("base, c", [(2, -0.5), (2, -0.9), (4, 0.3), (6, -0.1), (8, 0.2)])
    def test_exclusion_bound_at_positive_eps(self, base, c):
        # at eps > 0 the moduli are at most 1, and the curve's argument at
        # |c| |phi| = 1 is -C1 (mod 2 pi) for the sign of c that b's window
        # takes; the other moduli only move it away from 0
        C1 = exclusion_constant(base, c)
        for eps in (0.2, 1e-2, 1e-3, 1e-6):
            s = equal_gain_system(c, base + eps)
            assert clearance_height(s, re_bound(s)) == pytest.approx(C1 / (s.tau - base), rel=1e-12)

    def test_base_zero_above_exclusion_bound(self):
        # with c > 1 the roots move to Re lam ~ ln(2c)/eps, and the moduli to
        # e^{-eps x}: the certificate covers them down to C1/eps = pi/(2 eps)
        for c in (0.3, 1.0, 1.5):
            s = equal_gain_system(c, 0.01)
            assert clearance_height(s, re_bound(s)) >= (math.pi / 2) / 0.01

    @pytest.mark.parametrize("seed", [1, 2])
    def test_at_most_the_lowest_unstable_root(self, seed, monkeypatch):
        # the scan from 0 is the reference the certificate is checked against
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        for base, eps, s in _near_stabilising_systems(seed, 30):
            lam = min_unstable_imag(s, 4 * math.pi / abs(eps) + 64 * math.pi)
            assert lam is not None and clearance_height(s, re_bound(s)) <= lam, (base, eps, s.c2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_irrational_witness_same_as_scan_from_zero(self, seed, monkeypatch):
        systems = _near_stabilising_systems(seed, 30)
        started = [classify(s, treat_as_irrational=True) for _, _, s in systems]
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        for (base, eps, s), v in zip(systems, started):
            assert classify(s, treat_as_irrational=True) == v, (base, eps, s.c2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_rational_witness_same_as_scan_from_zero(self, seed, monkeypatch):
        # above the crossover the UNSTABLE witness comes from the scan too
        systems = _near_stabilising_rationals(seed, 20)
        started = [classify(s) for s in systems]
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        for s, v in zip(systems, started):
            assert v.state is StabilityState.UNSTABLE and classify(s) == v, (s.tau_rational, s.c2)

    @pytest.mark.parametrize("m, n", [(20001, 10000), (2000001, 1000000)])
    def test_deep_rational_witness_in_one_winding(self, m, n, monkeypatch):
        # from 0 the scan took over a second at 2000001/1000000
        s = equal_gain_system(-0.5, m / n, Rational(m, n))
        windings = []
        rect_windings = contour._rect_windings

        def counted(func, box):
            windings.append(len(box))
            return rect_windings(func, box)

        monkeypatch.setattr(contour, "_rect_windings", counted)
        v = classify(s)
        assert v.state is StabilityState.UNSTABLE and len(windings) == 1, windings
        f = char_expsum(s)
        assert abs(complex(f(v.witness))) / float(f.magnitude(v.witness)) < 1e-10
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        assert classify(s) == v


class TestClassify:
    def test_stable(self):
        v = classify(equal_gain_system(-0.25, 2.0))
        assert v.state is StabilityState.STABLE and v.witness is None

    def test_tau_one_witnessed(self):
        v = classify(equal_gain_system(0.7, 1.0))
        assert v.state is not StabilityState.STABLE
        assert v.witness is not None
        s = equal_gain_system(0.7, 1.0)
        assert abs(eval_char(s, v.witness)) < 1e-9

    def test_tau_three_never_stable(self):
        for c in np.linspace(-2, 2, 21):
            v = classify(equal_gain_system(float(c), 3.0))
            assert v.state is not StabilityState.STABLE

    def test_irrational_path(self):
        s = equal_gain_system(0.7, math.sqrt(2))
        v = classify(s, treat_as_irrational=True)
        assert v.state is StabilityState.UNSTABLE
        assert abs(eval_char(s, v.witness)) < 1e-9
        assert v.witness.real >= -1e-8

    def test_two_gain_rational(self):
        from delaywave.chareq import DelayGains, DelaySystem

        s = DelaySystem(DelayGains(0.3, -0.2), 1.5, Rational(3, 2))
        v = classify(s)
        assert v.state is not StabilityState.STABLE
        assert abs(eval_char(s, v.witness)) < 1e-9

    @pytest.mark.parametrize("tau", [2.0 + 1e-3, 2.0 - 1e-3])
    def test_irrational_path_near_stabilising_delay(self, tau):
        # the lowest unstable root sits near |Im| = C1/|eps| = 1047, more
        # than 300 strips of height pi above the real axis
        s = equal_gain_system(-0.5, tau)
        v = classify(s, treat_as_irrational=True)
        assert v.state is StabilityState.UNSTABLE
        assert v.witness.real >= -1e-8 and 1047.0 < v.witness.imag < 1049.0
        f = char_expsum(s)
        assert abs(complex(f(v.witness))) < 1e-10 * max(1.0, float(f.magnitude(v.witness)))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 20.0), st.floats(-1.5, 1.5))
    def test_irrational_path_witness(self, tau, c):
        # at least 1e-3 from 0 and from every even delay
        assume(abs(tau - 2 * round(tau / 2)) >= 1e-3)
        s = equal_gain_system(c, tau)
        lam = classify(s, treat_as_irrational=True).witness
        f = char_expsum(s)
        assert lam.real >= -1e-8
        assert abs(complex(f(lam))) < 1e-10 * max(1.0, float(f.magnitude(lam)))

    def test_irrational_path_reports_height_reached(self):
        # 2/1 with c in its window is stable; the roots repeat every 2 pi, so
        # the scan stops at 3 pi / 2
        with pytest.raises(regions.WitnessSearchExhausted, match="4.71239"):
            classify(equal_gain_system(-0.5, 2.0), treat_as_irrational=True)

    def test_two_gain_irrational(self):
        from delaywave.chareq import DelayGains, DelaySystem

        s = DelaySystem(DelayGains(0.5, 0.2), math.sqrt(2))
        v = classify(s, treat_as_irrational=True)
        assert v.state is StabilityState.UNSTABLE
        assert abs(eval_char(s, v.witness)) < 1e-9

    def test_no_small_rational_raises(self):
        s = equal_gain_system(0.7, math.pi)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                classify(s)

    def test_marginal_endpoints(self):
        for c in (-1.0, 0.0):
            v = classify(equal_gain_system(c, 2.0))
            assert v.state is StabilityState.MARGINAL
            assert abs(v.witness.real) < 1e-9

    def test_region_oracle_agreement(self):
        for tau in (2.0, 4.0, 6.0, 8.0):
            region = stability_region(tau, CharKind.CASCADE_EQUAL_GAINS)
            width = region.upper - region.lower
            mid = 0.5 * (region.lower + region.upper)
            for c in np.linspace(mid - width, mid + width, 401):
                c = float(round(c, 12))
                state = classify(equal_gain_system(c, tau)).state
                if region.contains(c) and abs(c - region.lower) > 1e-9 and abs(c - region.upper) > 1e-9:
                    assert state is StabilityState.STABLE, (tau, c)
                elif not region.contains(c):
                    assert state is not StabilityState.STABLE, (tau, c)

    def test_direct_feedback_region_oracle_agreement(self):
        from delaywave.chareq import direct_feedback_system

        for tau in (2.0, 4.0):
            region = stability_region(tau, CharKind.DIRECT_DELAY_FEEDBACK)
            width = region.upper - region.lower
            mid = 0.5 * (region.lower + region.upper)
            for c in np.linspace(mid - width, mid + width, 201):
                c = float(round(c, 12))
                state = classify(direct_feedback_system(c, tau)).state
                if region.contains(c) and abs(c - region.lower) > 1e-9 and abs(c - region.upper) > 1e-9:
                    assert state is StabilityState.STABLE, (tau, c)
                elif not region.contains(c):
                    assert state is not StabilityState.STABLE, (tau, c)

    def test_region_endpoints_marginal(self):
        for tau in (2.0, 4.0, 6.0, 8.0):
            region = stability_region(tau, CharKind.CASCADE_EQUAL_GAINS)
            for c in (region.lower, region.upper):
                v = classify(equal_gain_system(c, tau))
                assert v.state is StabilityState.MARGINAL, (tau, c)
                assert abs(v.witness.real) < 1e-9


class TestCountingMonotonicity:
    def test_constant_between_critical_values(self):
        # N(c) constant on every interval of R \ E: probe midpoints and
        # near-endpoint values of each bounded interval
        m, n = 4, 1
        vals = critical_set_E(m, n).values
        for lo, hi in zip(vals[:-1], vals[1:]):
            probes = [0.5 * (lo + hi), lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)]
            counts = {
                count_in_disk(reduce_to_polynomial(equal_gain_system(c, 4.0, Rational(4, 1))))
                for c in probes
            }
            assert len(counts) == 1

    def test_monotone_counting_tau_gt_one(self):
        for m, n in [(4, 1), (5, 2)]:
            vals = list(critical_set_E(m, n).values) + [-1.2, 1.2]
            vals = sorted(set(vals))
            mids = [0.5 * (a + b) for a, b in zip(vals[:-1], vals[1:])]
            tau = Rational(m, n)
            for side in (1.0, -1.0):
                probes = sorted([v for v in mids if v * side > 0], key=abs)
                counts = [
                    count_in_disk(reduce_to_polynomial(equal_gain_system(v, tau.value, tau)))
                    for v in probes
                ]
                assert counts == sorted(counts)


class TestBisectedBoundaries:
    def test_cascade_tau_two(self):
        lo, hi = region_boundaries_bisect(2.0, CharKind.CASCADE_EQUAL_GAINS)
        assert lo == pytest.approx(-1.0, abs=1e-6)
        assert hi == pytest.approx(0.0, abs=1e-6)

    def test_empty_region_returns_none(self):
        assert region_boundaries_bisect(3.0, CharKind.CASCADE_EQUAL_GAINS) is None

    def test_equal_gains_at_one_have_no_window(self):
        assert region_boundaries_bisect(1.0, CharKind.CASCADE_EQUAL_GAINS, tau_rational=Rational(1, 1)) is None


def _bisected_edge(kind, m, n, inside, outside):
    """The edge of the stable gains between ``inside`` (stable) and
    ``outside`` (not), by float bisection of :func:`one_gain_state`."""
    while abs(outside - inside) > 1e-9:
        mid = 0.5 * (inside + outside)
        if regions.one_gain_state(kind, m, n, mid) is StabilityState.STABLE:
            inside = mid
        else:
            outside = mid
    return inside


class TestExactEndpoints:
    """The crossing-table read against the closed form and a bisection of the state."""

    def test_every_small_delay(self):
        kinds = (CharKind.CASCADE_EQUAL_GAINS, CharKind.DIRECT_DELAY_FEEDBACK)
        for kind, m, n in itertools.product(kinds, range(1, 41), range(1, 13)):
            if math.gcd(m, n) != 1:
                continue
            got = region_boundaries_bisect(m / n, kind, tau_rational=Rational(m, n))
            w = stability_region(m / n, kind)
            if w.empty:
                assert got is None, (kind, m, n, got)
            else:
                assert abs(got[0] - w.lower) <= 1e-12 and abs(got[1] - w.upper) <= 1e-12, (kind, m, n, got)
            # at most one stable gap: no other gap between table gains has a stable midpoint;
            # tau = 1 with equal gains has no table, and no stable gain
            lo, hi = got or (0.0, 0.0)
            one = m == n and kind is CharKind.CASCADE_EQUAL_GAINS
            table = () if one else regions._crossing_table(kind, m, n).gains
            ends = np.sort(np.concatenate([table, [0.0, -1e3, 1e3]]))
            for a, b in zip(ends[:-1], ends[1:]):
                c = 0.5 * (a + b)
                if b > a and not lo <= c <= hi:
                    assert regions.one_gain_state(kind, m, n, c) is not StabilityState.STABLE, (kind, m, n, c)
            if got is not None:
                mid = 0.5 * (lo + hi)
                assert abs(_bisected_edge(kind, m, n, mid, lo - 1.0) - lo) < 1e-7
                assert abs(_bisected_edge(kind, m, n, mid, hi + 1.0) - hi) < 1e-7


class TestBisectionAtHighDegree:
    """Bisection by the disk count stays within tol of the closed form, fast."""

    def test_tau_400_both_kinds(self):
        t0 = time.perf_counter()
        for kind in (CharKind.CASCADE_EQUAL_GAINS, CharKind.DIRECT_DELAY_FEEDBACK):
            lo, hi = region_boundaries_bisect(400.0, kind)
            w = stability_region(400.0, kind)
            assert abs(lo - w.lower) < 1e-7 and abs(hi - w.upper) < 1e-7
        assert time.perf_counter() - t0 < 3.0

    def test_tau_2000(self):
        t0 = time.perf_counter()
        lo, hi = region_boundaries_bisect(2000.0, CharKind.CASCADE_EQUAL_GAINS)
        w = stability_region(2000.0, CharKind.CASCADE_EQUAL_GAINS)
        assert abs(lo - w.lower) < 1e-7 and abs(hi - w.upper) < 1e-7
        assert time.perf_counter() - t0 < 5.0

    def test_beyond_classify_degree_cap(self):
        # degree 2501, which classify once refused: a certified UNSTABLE verdict
        s = equal_gain_system(0.1, 1251 / 625, Rational(1251, 625))
        v = classify(s)
        f = char_expsum(s)
        assert v.state is StabilityState.UNSTABLE and v.witness.real > 0
        assert abs(complex(f(v.witness))) < 1e-10 * float(f.magnitude(v.witness))
        assert region_boundaries_bisect(1251 / 625, CharKind.CASCADE_EQUAL_GAINS) is None

    def test_no_rational_form_still_refused(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            region_boundaries_bisect(math.pi, CharKind.CASCADE_EQUAL_GAINS)


class TestCrossingState:
    """The exact crossing count against the companion reference."""

    SYSTEM = {CharKind.CASCADE_EQUAL_GAINS: equal_gain_system, CharKind.DIRECT_DELAY_FEEDBACK: direct_feedback_system}
    KINDS = tuple(SYSTEM)

    def poly(self, kind, m, n, c):
        return reduce_to_polynomial(self.SYSTEM[kind](c, m / n, Rational(m, n)))

    @staticmethod
    def crossing_gains(kind, m, n):
        """Every gain with a zero on the circle: the table's and c = 0."""
        return sorted({0.0, *regions._crossing_table(kind, m, n).gains})

    # gains on a 1e-6 grid: below about 1e-18 the companion misplaces the
    # zeros (the leading coefficient of the direct polynomial is -c)
    GAIN = st.integers(-3_000_000, 3_000_000).map(lambda k: k / 1e6)

    # n, then m with m + 2 n <= 200, drawn directly rather than filtered
    NM = st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 200 - 2 * n)))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KINDS), NM, GAIN)
    def test_agrees_with_companion_count(self, kind, nm, c):
        n, m = nm
        assume(math.gcd(m, n) == 1)
        rep = disk_roots(self.poly(kind, m, n, c))
        # away from the circle, where the companion's 1e-9 band decides nothing
        assume(min(abs(abs(z) - 1.0) for z in rep.roots) > 1e-6)
        event(kind.name)
        assert regions.crossing_state(kind, m, n, c) == (rep.count_inside, False)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 30), st.integers(1, 98))
    def test_critical_gains_split_like_the_companion(self, kind, n, m):
        assume(m + 2 * n <= 100 and math.gcd(m, n) == 1 and m != n)
        for c in self.crossing_gains(kind, m, n):
            ps = stability_from_poly(self.poly(kind, m, n, c))
            inside, on = regions.crossing_state(kind, m, n, c)
            assert on, (kind, m, n, c)
            assert inside == ps.report.count_inside, (kind, m, n, c)
            assert regions.one_gain_state(kind, m, n, c) is ps.state, (kind, m, n, c)

    def test_every_crossing_gain_of_small_delays(self):
        # each crossing gain puts one circle zero per table entry; for even m,
        # z and -z share a gain, so a band of two entries meets there
        checked = 0
        for kind, m, n in itertools.product(self.KINDS, range(1, 25), range(1, 9)):
            if m == n or math.gcd(m, n) != 1:
                continue
            for c in self.crossing_gains(kind, m, n):
                rep = stability_from_poly(self.poly(kind, m, n, c)).report
                assert regions.crossing_state(kind, m, n, c) == (rep.count_inside, True), (kind, m, n, c)
                checked += 1
        assert checked == 2419

    @pytest.mark.parametrize(
        "kind, m, n, c",
        [
            (CharKind.DIRECT_DELAY_FEEDBACK, 2, 1, math.inf),
            (CharKind.CASCADE_EQUAL_GAINS, 2, 1, -math.inf),
            (CharKind.DIRECT_DELAY_FEEDBACK, 2, 1, math.nan),
            (CharKind.CASCADE_EQUAL_GAINS, 2, 1, math.nan),
            (CharKind.CASCADE_EQUAL_GAINS, 2, 0, 0.3),
            (CharKind.DIRECT_DELAY_FEEDBACK, 0, 1, 0.3),
            (CharKind.CASCADE_EQUAL_GAINS, -3, 2, 0.3),
            (CharKind.CASCADE_EQUAL_GAINS, 4, 2, 0.3),
            (CharKind.DIRECT_DELAY_FEEDBACK, 4, 2, 0.3),
        ],
    )
    def test_refuses_bad_gain_or_delay(self, kind, m, n, c):
        with pytest.raises(ValueError):
            regions.crossing_state(kind, m, n, c)
        with pytest.raises(ValueError):
            regions.one_gain_state(kind, m, n, c)

    @pytest.mark.parametrize("m, n", [(4, 1), (3, 2), (7, 3), (41, 20), (2000, 1), (1, 7)])
    def test_critical_set_is_the_crossing_gains_bit_for_bit(self, m, n):
        values = set(critical_set_E(m, n).values)
        assert values == set(self.crossing_gains(CharKind.CASCADE_EQUAL_GAINS, m, n))

    def test_window_endpoints_are_crossing_gains(self):
        eta = regions._CROSSING_ETA
        for tau in range(2, 2001, 2):
            for kind in self.KINDS:
                gains = np.array(self.crossing_gains(kind, tau, 1))
                w = stability_region(float(tau), kind)
                for c in (w.lower, w.upper):
                    assert np.min(np.abs(gains - c)) <= eta * max(1.0, abs(c)), (tau, kind, c)
                    assert regions.one_gain_state(kind, tau, 1, c) is StabilityState.MARGINAL, (tau, kind, c)
                    if tau <= 64:
                        v = classify(self.SYSTEM[kind](c, float(tau)))
                        assert v.state is StabilityState.MARGINAL and abs(v.witness.real) < 1e-9

    def test_marginal_witness_is_a_circle_root(self):
        for kind, system in self.SYSTEM.items():
            for m, n in ((4, 1), (7, 3), (41, 20), (64, 1)):
                gains = [c for c in self.crossing_gains(kind, m, n) if regions.crossing_state(kind, m, n, c)[0] == 0]
                assert gains
                for c in gains:
                    s = system(c, m / n, Rational(m, n))
                    v = classify(s)
                    assert v.state is StabilityState.MARGINAL
                    assert abs(v.witness.real) < 1e-9
                    assert abs(eval_char(s, v.witness)) < 1e-9 * max(1.0, abs(c))

    def test_zero_gain_is_marginal(self):
        for kind in self.KINDS:
            for m, n in ((2, 1), (3, 2), (20001, 10000)):
                assert regions.crossing_state(kind, m, n, 0.0) == (0, True)

    def test_tau_one(self):
        # 1 + 2c z + z^2: both zeros on the circle for |c| <= 1, else one inside
        kind = CharKind.CASCADE_EQUAL_GAINS
        assert regions.crossing_state(kind, 1, 1, 0.7) == (0, True)
        assert regions.crossing_state(kind, 1, 1, -1.0) == (0, True)
        assert regions.crossing_state(kind, 1, 1, 1.2) == (1, False)

    def test_no_degree_cap(self):
        # degree 40001: classify states without a companion solve, STABLE and MARGINAL alike
        t0 = time.perf_counter()
        for kind, system in self.SYSTEM.items():
            assert regions.one_gain_state(kind, 20001, 10000, 0.1) is StabilityState.UNSTABLE
            v = classify(system(0.0, 20001 / 10000, Rational(20001, 10000)))
            assert v.state is StabilityState.MARGINAL and abs(v.witness.real) < 1e-9
        assert classify(equal_gain_system(0.5 * stability_region(2000.0, CharKind.CASCADE_EQUAL_GAINS).upper, 2000.0)).state is StabilityState.STABLE
        assert time.perf_counter() - t0 < 2.0


class TestGainsPickTheAnalysis:
    """The gains choose the analysis: c1 = c2 and c1 = 0 are the one-gain
    loops however the system is built, and two gains read the rightmost root."""

    @staticmethod
    def relative_residual(s, lam):
        f = char_expsum(s)
        return abs(complex(f(lam))) / float(f.magnitude(lam))

    def test_tiny_direct_gain_is_marginal(self):
        # P = -1e-20 z^5 + z^4 + 1e-20 z + 1: four zeros within 1e-20 of the
        # circle, which the companion solve would put near |z| = 1e20
        v = classify(DelaySystem(DelayGains(0.0, 1e-20), 0.5, Rational(1, 2)))
        assert v.state is StabilityState.MARGINAL and abs(v.witness.real) < 1e-9

    @staticmethod
    def disk_windings(s, n):
        """(zeros inside, whether one is on the circle) as classify counts two
        gains: the windings of P(r z) at r = e^{-1e-9/n} and at e^{+1e-9/n}."""
        inner, outer = (
            count_in_disk({k: a * r**k for k, a in disk_terms(s).items()})
            for r in (math.exp(-1e-9 / n), math.exp(1e-9 / n))
        )
        return inner, outer > inner

    def test_untagged_one_gain_loops_match_their_twins(self):
        # a one-gain loop built from its gains, (c, c) or (0, c), is counted by
        # its crossing table; its twin count is the one two gains get, from
        # two windings of the disk polynomial, and a zero on the circle lies
        # between their radii
        rng = np.random.default_rng(15)
        checked = on_circle = 0
        for m, n in itertools.product(range(1, 13), range(1, 5)):
            if m == n or math.gcd(m, n) != 1:
                continue
            gains = {0.0, *rng.uniform(-1.5, 1.5, 8).round(6).tolist()}
            for kind in TestCrossingState.KINDS:
                gains.update(regions._crossing_table(kind, m, n).gains)
            for c in sorted(gains):
                for kind, c1 in ((CharKind.CASCADE_EQUAL_GAINS, c), (CharKind.DIRECT_DELAY_FEEDBACK, 0.0)):
                    s = DelaySystem(DelayGains(c1, c), m / n, Rational(m, n))
                    inside, on = regions.crossing_state(kind, m, n, c)
                    assert (inside, on) == self.disk_windings(s, n), (m, n, c, s.gains)
                    v = classify(s)
                    if v.witness is not None:
                        assert self.relative_residual(s, v.witness) < 1e-10, (m, n, c, s.gains)
                    checked += 1
                    on_circle += on
        assert (checked, on_circle) == (1108, 339)

    def test_beyond_the_companion_degree_cap(self):
        t0 = time.perf_counter()
        c = 0.5 * stability_region(20000.0, CharKind.CASCADE_EQUAL_GAINS).upper
        v = classify(DelaySystem(DelayGains(c, c), 20000.0, Rational(20000, 1)))
        assert v.state is StabilityState.STABLE and v.witness is None
        v = classify(DelaySystem(DelayGains(0.0, 0.0), 20001 / 10000, Rational(20001, 10000)))
        assert v.state is StabilityState.MARGINAL and abs(v.witness.real) < 1e-9
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 2), (7, 3), (5, 4)])
    @pytest.mark.parametrize("c1", [-0.9, -0.3, 0.4, 0.7])
    def test_two_gains_with_c2_zero_are_marginal(self, m, n, c1):
        # P = (1 + c1 z^m)(1 + z^(2n)): the first factor's zeros lie outside
        s = DelaySystem(DelayGains(c1, 0.0), m / n, Rational(m, n))
        v = classify(s)
        assert v.state is StabilityState.MARGINAL
        assert abs(v.witness.real) < 1e-9 and self.relative_residual(s, v.witness) < 1e-10

    def test_two_gain_stable(self):
        v = classify(DelaySystem(DelayGains(-0.3, -0.2), 2.0, Rational(2, 1)))
        assert v.state is StabilityState.STABLE and v.witness is None

    def test_two_gain_sweep_agrees_with_the_companion_verdict(self):
        # every other draw at an even delay with small gains, where stable loops are
        rng = np.random.default_rng(2015)
        seen = collections.Counter()
        for i in range(600):
            if i % 2:
                m, n = 2 * int(rng.integers(1, 30)), 1
                c1, c2 = (rng.integers(-500, 501, 2) / 1000).tolist()
            else:
                n = int(rng.integers(1, 30))
                m = int(rng.integers(1, 61 - 2 * n))
                c1, c2 = (rng.integers(-1500, 1501, 2) / 1000).tolist()
            if math.gcd(m, n) != 1 or c1 == c2 or c1 == 0.0:
                continue
            s = DelaySystem(DelayGains(c1, c2), m / n, Rational(m, n))
            ps = stability_from_poly(reduce_to_polynomial(s))
            if min(abs(abs(z) - 1.0) for z in ps.report.roots) <= 1e-6:
                continue
            v = classify(s)
            assert v.state is ps.state, (m, n, c1, c2)
            if v.witness is not None:
                assert v.witness.real > 0 and self.relative_residual(s, v.witness) < 1e-10
            seen[v.state] += 1
        assert seen[StabilityState.STABLE] >= 20 and seen[StabilityState.UNSTABLE] >= 200

    def test_irrational_path_starts_at_the_exclusion_height_for_any_tag(self):
        lam = classify(DelaySystem(DelayGains(-0.5, -0.5), 2.001), treat_as_irrational=True).witness
        twin = classify(equal_gain_system(-0.5, 2.001), treat_as_irrational=True).witness
        assert abs(lam - twin) < 1e-9

    def test_spectral_abscissa_is_the_unstable_witness(self):
        rng = np.random.default_rng(7)
        checked = 0
        for m, n in ((2, 1), (3, 2), (7, 3), (41, 20), (5, 1)):
            rat = Rational(m, n)
            for c1, c2 in rng.uniform(-1.5, 1.5, (12, 2)).tolist():
                for s in (
                    DelaySystem(DelayGains(c1, c2), m / n, rat),
                    equal_gain_system(c1, m / n, rat),
                    direct_feedback_system(c2, m / n, rat),
                ):
                    v = classify(s)
                    if v.state is StabilityState.UNSTABLE:
                        assert spectral_abscissa(s) == v.witness.real, (m, n, s.gains)
                        checked += 1
        assert checked > 50


class TestCountThenWitness:
    """Every rational verdict is a count of the zeros in the disk; the witness
    comes after it, from the companion solve or the strip scan."""

    relative_residual = staticmethod(TestGainsPickTheAnalysis.relative_residual)
    GAIN = st.integers(-1500, 1500).map(lambda k: k / 1000)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 99).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 200 - 2 * n))), GAIN, GAIN)
    def test_two_gain_state_agrees_with_the_companion(self, nm, c1, c2):
        n, m = nm
        assume(math.gcd(m, n) == 1 and c1 != c2 and c1 != 0.0)
        s = DelaySystem(DelayGains(c1, c2), m / n, Rational(m, n))
        ps = stability_from_poly(reduce_to_polynomial(s))
        # away from the circle, where the 1e-9 band decides nothing
        assume(min(abs(abs(z) - 1.0) for z in ps.report.roots) > 1e-6)
        event(ps.state.name)
        v = classify(s)
        assert v.state is ps.state, (m, n, c1, c2)
        if v.witness is not None:
            assert v.witness.real > 0 and self.relative_residual(s, v.witness) < 1e-10

    def test_tiny_two_gains_are_marginal(self):
        # P = -2e-20 z^5 + z^4 + 4e-20 z + 1: four zeros within 1e-20 of the
        # circle, which the companion solve misplaces
        s = DelaySystem(DelayGains(1e-20, 3e-20), 0.5, Rational(1, 2))
        v = classify(s)
        assert v.state is StabilityState.MARGINAL
        assert abs(v.witness.real) < 1e-9 and self.relative_residual(s, v.witness) < 1e-10

    def test_unstable_witness_clears_the_axis_roots(self):
        # P = (1 + 1.5 z^3)(1 + z^140): circle zeros from lam = 1.5708i up lie below
        # the unstable roots, which all have Re lam = 70 log(1.5) / 3
        s = DelaySystem(DelayGains(1.5, 0.0), 3 / 70, Rational(3, 70))
        v = classify(s)
        assert v.state is StabilityState.UNSTABLE
        assert v.witness.real == pytest.approx(70 * math.log(1.5) / 3)
        assert self.relative_residual(s, v.witness) < 1e-10

    @pytest.mark.parametrize("kind", [CharKind.CASCADE_EQUAL_GAINS, CharKind.DIRECT_DELAY_FEEDBACK])
    def test_unstable_witness_just_outside_a_window(self, kind):
        # degree 202 and 402, beyond the crossover: 3e-12 past either edge of the
        # window a zero lies inside the disk by about 1e-12, and no zero on the circle
        tau = Rational(200, 1) if kind is CharKind.CASCADE_EQUAL_GAINS else Rational(400, 1)
        make = equal_gain_system if kind is CharKind.CASCADE_EQUAL_GAINS else direct_feedback_system
        lo, hi = region_boundaries_bisect(tau.value, kind, tau_rational=tau)
        for c in (lo - 3e-12, hi + 3e-12):
            s = make(c, tau.value, tau)
            v = classify(s)
            assert v.state is StabilityState.UNSTABLE
            assert v.witness.real > 0 and self.relative_residual(s, v.witness) < 1e-10

    @pytest.mark.parametrize(
        "gap, state",
        [
            (2e-10, StabilityState.MARGINAL),
            (5e-10, StabilityState.STABLE),
            (-5e-10, StabilityState.UNSTABLE),
            (-2e-10, StabilityState.MARGINAL),
        ],
    )
    def test_the_two_gain_band_is_in_re_lam(self, gap, state):
        # P = 1 + s z + z^6 + 0.8 z^7 at tau = 1/3, with a zero at z = -(1 + gap) and
        # the others beyond |z| = 1.03: its root lam = -3 log z has Re lam = -3 gap,
        # on the axis when within 1e-9 of it
        rho, d = 1 + gap, 0.8
        s_ = (1 + rho**6 - d * rho**7) / rho
        s = DelaySystem(DelayGains((s_ + d) / 2, (s_ - d) / 2), 1 / 3, Rational(1, 3))
        v = classify(s)
        assert v.state is state
        if v.witness is not None:
            assert v.witness.real == pytest.approx(-3 * gap, rel=1e-3)
            assert self.relative_residual(s, v.witness) < 1e-10

    @pytest.mark.parametrize("gains", [(-0.5, -0.5), (0.9, 0.9), (0.0, -0.4), (-0.3, 0.1)])
    def test_every_kind_at_degree_40001(self, gains):
        s = DelaySystem(DelayGains(*gains), 20001 / 10000, Rational(20001, 10000))
        v = classify(s)
        assert v.state is StabilityState.UNSTABLE
        assert v.witness.real > 0 and self.relative_residual(s, v.witness) < 1e-10

    def test_cascade_at_degree_1002_is_fast(self):
        s = DelaySystem(DelayGains(-0.3, 0.1), 1000.0, Rational(1000, 1))
        t0 = time.perf_counter()
        v = classify(s)
        assert time.perf_counter() - t0 < 0.5
        assert v.state is StabilityState.UNSTABLE and self.relative_residual(s, v.witness) < 1e-10

    def test_count_beyond_its_sample_budget_is_refused_at_once(self):
        s = DelaySystem(DelayGains(-0.3, 0.1), 1999999 / 1000000, Rational(1999999, 1000000))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="samples"):
                classify(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        # the dense polynomial alone would take 32 MB
        assert peak < 1e6

    def test_a_zero_the_scan_misses_is_a_fault(self, monkeypatch):
        # degree 121, above the crossover: the witness must come from the scan
        s = DelaySystem(DelayGains(-0.3, 0.1), 61 / 30, Rational(61, 30))
        assert 61 + 60 > regions._WITNESS_CROSSOVER + 61 / 60
        monkeypatch.setattr(regions, "_first_unstable_root", lambda sys, height, floor: (None, height))
        with pytest.raises(regions.WitnessSearchExhausted):
            classify(s)

    def test_delay_without_its_fraction_is_reduced(self):
        gains = DelayGains(-0.3, 0.1)
        v = classify(DelaySystem(gains, 2.0))
        assert v == classify(DelaySystem(gains, 2.0, Rational(2, 1)))
        assert v.state is StabilityState.UNSTABLE
