import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaywave.chareq import DelayGains, DelaySystem, Rational, equal_gain_system, direct_feedback_system, eval_char
from delaywave.polyform import (
    PolyReal,
    StabilityState,
    disk_roots,
    jury_all_inside,
    jury_matrices,
    reduce_to_polynomial,
    stability_from_poly,
)


def equal_poly(m, n, c):
    return reduce_to_polynomial(equal_gain_system(c, m / n, Rational(m, n)))


# ---------------------------------------------------------------- reduction


class TestReduce:
    def test_tau_one(self):
        p = equal_poly(1, 1, 0.7)
        assert p.coeffs == (1.0, 1.4, 1.0)

    def test_tau_two_merge(self):
        p = equal_poly(2, 1, -0.25)
        assert p.coeffs == (1.0, 0.0, 0.5)
        assert p.stripped_leading == 2
        r = disk_roots(p)
        assert all(abs(z) == pytest.approx(math.sqrt(2)) for z in r.roots)
        assert stability_from_poly(p).state is StabilityState.STABLE

    def test_tau_two_degenerate(self):
        p = equal_poly(2, 1, -0.5)
        assert p.coeffs == (1.0,)
        assert p.degree == 0
        assert p.stripped_leading == 4
        assert stability_from_poly(p).state is StabilityState.STABLE

    def test_direct_feedback_form(self):
        # P(z) = -k z^{m+2n} + z^{2n} + k z^m + 1
        s = direct_feedback_system(0.4, 3.0, Rational(3, 1))
        p = reduce_to_polynomial(s)
        assert p.coeffs == (1.0, 0.0, 1.0, 0.4, 0.0, -0.4)

    def test_direct_sign_convention_endpoint(self):
        # tau = 2, k = -0.5 must come out stable
        s = direct_feedback_system(-0.5, 2.0, Rational(2, 1))
        assert stability_from_poly(reduce_to_polynomial(s)).state is StabilityState.STABLE

    def test_two_gain_form(self):
        s = DelaySystem(DelayGains(0.3, -0.2), 1.5, Rational(3, 2))
        p = reduce_to_polynomial(s)
        # (c1-c2) z^7 + z^4 + (c1+c2) z^3 + 1
        assert p.coeffs == (1.0, 0.0, 0.0, pytest.approx(0.1), 1.0, 0.0, 0.0, 0.5)
        # the same coefficients, signed zeros and stripped ones included, as
        # the four terms added into a dense array, on a grid of delays and gains
        gains = (0.0, -0.0, 1e-20, -1e-20, 0.3, -0.5, 1.0)
        for m, n in ((m, n) for m in range(1, 9) for n in range(1, 6) if math.gcd(m, n) == 1):
            for c1 in gains:
                for c2 in gains:
                    a = np.zeros(m + 2 * n + 1)
                    a[0] += 1.0
                    a[m] += c1 + c2
                    a[2 * n] += 1.0
                    a[m + 2 * n] += c1 - c2
                    want = PolyReal.from_coeffs(a)
                    got = reduce_to_polynomial(DelaySystem(DelayGains(c1, c2), m / n, Rational(m, n)))
                    assert got.stripped_leading == want.stripped_leading, (m, n, c1, c2)
                    assert np.array(got.coeffs).tobytes() == np.array(want.coeffs).tobytes(), (m, n, c1, c2)

    def test_requires_rational(self):
        s = DelaySystem(DelayGains(0.1, 0.2), math.pi)
        with pytest.raises(ValueError):
            reduce_to_polynomial(s)

    def test_substitution_correctness(self):
        rng = np.random.default_rng(42)
        pairs = []
        while len(pairs) < 50:
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 5))
            if math.gcd(m, n) != 1:
                continue
            pairs.append((m, n, float(rng.uniform(-2, 2))))
        for m, n, c in pairs:
            sysd = equal_gain_system(c, m / n, Rational(m, n))
            p = reduce_to_polynomial(sysd)
            for z in disk_roots(p).roots:
                lam = -n * np.log(z)
                assert abs(eval_char(sysd, lam)) < 1e-9


# ---------------------------------------------------------------- disk roots


class TestDiskRoots:
    def test_pure_circle_pair(self):
        p = PolyReal.from_coeffs([1.0, 0.0, 1.0])  # z^2 + 1
        r = disk_roots(p)
        assert r.count_on == 2 and r.count_inside == 0 and r.count_outside == 0

    def test_all_outside_quartic(self):
        # tau = 4, c = 0.25: 0.5 z^4 + z^2 + 1, |z| = 2^(1/4)
        p = equal_poly(4, 1, 0.25)
        r = disk_roots(p)
        assert r.count_inside == 0 and r.count_on == 0 and r.count_outside == 4
        assert all(abs(z) == pytest.approx(2 ** 0.25, abs=1e-12) for z in r.roots)

    def test_reciprocal_split(self):
        p = PolyReal.from_coeffs([1.0, 3.0, 1.0])  # z^2 + 2*1.5 z + 1
        r = disk_roots(p)
        assert r.count_inside == 1 and r.count_outside == 1

    def test_degree_zero(self):
        r = disk_roots(PolyReal.from_coeffs([2.0]))
        assert r.roots == () and r.count_inside == 0

    def test_huge_root_polish_stays_quiet(self):
        # tau = 41/20 at c = -1.07e-14: the top coefficient 2c puts one root at
        # |z| = 4.7e13, where the Newton polish overflows; that root keeps its
        # unpolished value and is counted outside
        p = equal_poly(41, 20, -1.0658141036401503e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = disk_roots(p)
        assert np.all(np.isfinite(r.roots))
        assert r.count_inside + r.count_on + r.count_outside == p.degree == 41
        assert r.count_outside == 1 and r.count_inside == 0


# ---------------------------------------------------------------- Jury test


class TestJury:
    def test_small_double_root(self):
        assert jury_all_inside(PolyReal.from_coeffs([0.0625, 0.5, 1.0]))

    def test_unit_product_never_inside(self):
        for c in (-2.0, -0.3, 0.0, 0.3, 2.0):
            assert not jury_all_inside(PolyReal.from_coeffs([1.0, 2 * c, 1.0]))

    def test_linear(self):
        assert jury_all_inside(PolyReal.from_coeffs([-0.5, 1.0]))
        assert not jury_all_inside(PolyReal.from_coeffs([-2.0, 1.0]))

    def test_degree_zero_vacuous(self):
        assert jury_all_inside(PolyReal.from_coeffs([3.0]))

    def test_matrices_layout(self):
        # F = a0 + a1 z + a2 z^2 + a3 z^3: 2x2 matrices
        p = PolyReal.from_coeffs([5.0, 6.0, 7.0, 8.0])
        plus, minus = jury_matrices(p)
        lower = np.array([[8.0, 0.0], [7.0, 8.0]])
        anti = np.array([[0.0, 5.0], [5.0, 6.0]])
        assert np.array_equal(plus, lower + anti)
        assert np.array_equal(minus, lower - anti)

    def test_negative_leader_normalised(self):
        # roots unchanged under global negation
        assert jury_all_inside(PolyReal.from_coeffs([-0.0625, -0.5, -1.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=2.5),
                st.floats(min_value=0.0, max_value=np.pi),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_agrees_with_modulus_oracle(self, polar):
        # clustered roots push the innerwise determinants to resultant-like
        # near-zeros that double precision cannot sign; keep roots separated
        # (the acceptance sweep covers the statistical bulk)
        roots = []
        for r, th in polar:
            if abs(r - 1.0) < 1e-3:
                r = 1.0 + math.copysign(2e-3, r - 1.0)
            if th in (0.0, np.pi):
                roots.append(r * math.cos(th) + 0j)
            else:
                roots.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
        assume(
            all(
                abs(a - b) > 0.05
                for i, a in enumerate(roots)
                for b in roots[i + 1 :]
            )
        )
        coeffs = np.real(np.poly(roots))[::-1]
        p = PolyReal.from_coeffs(coeffs)
        assert jury_all_inside(p) == all(abs(z) < 1 for z in roots)


# ---------------------------------------------------------------- verdicts


class TestStabilityFromPoly:
    def test_examples(self):
        assert stability_from_poly(equal_poly(2, 1, -0.25)).state is StabilityState.STABLE
        assert stability_from_poly(equal_poly(2, 1, -1.0)).state is StabilityState.MARGINAL
        for c in (-2.0, -0.5, 0.3, 2.0):
            assert stability_from_poly(equal_poly(1, 1, c)).state is not StabilityState.STABLE

    def test_jury_route_agrees(self):
        cases = [(2, 1, -0.25), (2, 1, 0.3), (4, 1, 0.25), (4, 1, 0.7), (3, 1, 0.4), (3, 2, -1.5)]
        for m, n, c in cases:
            ps = stability_from_poly(equal_poly(m, n, c))
            if ps.jury_stable is not None and ps.state is not StabilityState.MARGINAL:
                assert ps.jury_stable == (ps.state is StabilityState.STABLE)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=-2, max_value=2),
    )
    def test_reciprocal_product_constraint(self, m, n, c):
        # m < 2n: the polynomial is self-reciprocal-like with root product 1,
        # so a stable configuration is impossible
        if math.gcd(m, n) != 1 or m >= 2 * n:
            return
        p = equal_poly(m, n, c)
        r = disk_roots(p)
        if r.roots:
            prod = np.prod(np.abs(np.asarray(r.roots)))
            assert prod == pytest.approx(1.0, rel=1e-8)
        assert stability_from_poly(p).state is not StabilityState.STABLE
