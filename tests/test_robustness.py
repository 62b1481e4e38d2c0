import math
import time
import tracemalloc

import numpy as np
import pytest

from delaywave.robustness import (
    PerturbationCase,
    WindowEmpty,
    bounds_for,
    check_low_freq_clear,
    find_lambda_eps,
    h_delta_expsum,
    perturbed_system,
    sweep,
    witness_F_epsilon,
)
from delaywave import contour, regions
from delaywave.chareq import ExpSum
from delaywave.contour import min_unstable_imag
from delaywave.polyform import disk_roots, reduce_to_polynomial

PI = math.pi


# ---------------------------------------------------------------- cases & bounds


class TestPerturbationCase:
    def test_base_zero_validation(self):
        PerturbationCase(0.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            PerturbationCase(0.0, 0.05, -0.3)   # c must be positive
        with pytest.raises(ValueError):
            PerturbationCase(0.0, -0.05, 1.0)   # eps must be positive

    def test_even_base_validation(self):
        PerturbationCase(2.0, -0.05, -0.3)
        with pytest.raises(ValueError):
            PerturbationCase(2.0, 0.05, 0.3)    # wrong sign side for tau = 2
        with pytest.raises(ValueError):
            PerturbationCase(3.0, 0.05, -0.3)   # odd base
        with pytest.raises(ValueError):
            PerturbationCase(2.0, -2.5, -0.3)   # perturbed delay nonpositive

    def test_l_derived(self):
        assert PerturbationCase(4.0, 0.01, 0.2).l == 2

    def test_l_is_read_only(self):
        assert PerturbationCase(0.0, 0.05, 1.0).l is None
        with pytest.raises(TypeError):
            PerturbationCase(2.0, 0.05, -0.3, 1)


class TestBounds:
    def test_even_base_constants(self):
        b = bounds_for(PerturbationCase(2.0, 0.05, -0.3))
        c_tilde = (2.0 / PI) * math.asin(0.3)
        assert b.c_tilde == pytest.approx(c_tilde, abs=1e-15)
        assert b.C1 == pytest.approx((1 - c_tilde) * PI / 2, abs=1e-15)
        assert abs(b.C1 - 1.26637) < 1e-3
        assert b.C2 == pytest.approx(PI / 2)
        assert b.s_eps == 9 and b.S_eps == 9
        assert b.C1 < b.C2

    def test_base_zero_constants(self):
        b = bounds_for(PerturbationCase(0.0, 0.1, 1.0))
        assert b.C1 == pytest.approx(PI / 2)
        assert b.C2 == pytest.approx(1.1 * PI)
        assert b.S_eps == 11  # smallest integer > 1/0.1
        assert b.c_tilde is None

    def test_small_gain_limit(self):
        b = bounds_for(PerturbationCase(2.0, 0.05, -1e-6))
        assert b.C1 == pytest.approx(PI / 2, abs=1e-5)

def test_gain_out_of_window_rejected_at_case():
    with pytest.raises(ValueError):
        PerturbationCase(2.0, 0.05, -1.5)


# ---------------------------------------------------------------- clearance & lambda_eps


class TestClearance:
    def test_base_zero_small_delay(self):
        # no unstable roots below pi/(2 eps) ~ 157 for tau = 0.01, c = 1
        assert check_low_freq_clear(PerturbationCase(0.0, 0.01, 1.0))

    def test_even_base(self):
        assert check_low_freq_clear(PerturbationCase(2.0, 0.05, -0.3))

    def test_eps_zero_clear_everywhere(self):
        assert check_low_freq_clear(PerturbationCase(2.0, 0.0, -0.3))

    def test_cap(self):
        # C1/|eps| ~ 1.3e5: the scan's boxes grow within the phase budget of
        # one winding, where a single rectangle of that height exceeds it
        t0 = time.perf_counter()
        assert check_low_freq_clear(PerturbationCase(2.0, 1e-5, -0.3)) is True
        assert time.perf_counter() - t0 < 3.0


class TestLambdaEps:
    def test_even_base_band(self):
        val = find_lambda_eps(PerturbationCase(2.0, 0.05, -0.3))
        b = bounds_for(PerturbationCase(2.0, 0.05, -0.3))
        assert b.C1 / 0.05 <= val <= (b.S_eps + 1) * PI
        assert 25.33 <= val <= 31.42

    def test_negative_eps_side(self):
        # the mirrored perturbation obeys the same sandwich (both signs hold)
        val = find_lambda_eps(PerturbationCase(2.0, -0.05, -0.3))
        b = bounds_for(PerturbationCase(2.0, -0.05, -0.3))
        assert b.C1 / 0.05 - 1e-6 <= val <= (b.S_eps + 1) * PI + 1e-6

    def test_base_four_both_signs(self):
        for eps in (0.05, -0.05):
            case = PerturbationCase(4.0, eps, 0.25)
            val = find_lambda_eps(case)
            b = bounds_for(case)
            assert b.C1 / abs(eps) - 1e-6 <= val <= (b.S_eps + 1) * PI + 1e-6

    def test_base_zero_scaling_window(self):
        for eps in (0.1, 0.05, 0.02):
            val = find_lambda_eps(PerturbationCase(0.0, eps, 1.0))
            assert PI / 2 - 1e-9 <= eps * val <= PI + eps * PI + 1e-9

    def test_scaled_product_bounded(self):
        vals = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            case = PerturbationCase(2.0, eps, -0.3)
            lam = find_lambda_eps(case)
            b = bounds_for(case)
            prod = eps * lam
            assert b.C1 - 1e-9 <= prod <= 4.0
            vals.append(prod)
        # bounded, no trend to 0 or infinity
        assert max(vals) / min(vals) < 3.0

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            find_lambda_eps(PerturbationCase(2.0, 0.0, -0.3))

    def test_far_right_roots_accepted(self):
        # roots near Re = ln(2c)/eps + ... = 49, where |f| ~ 1e-10 is out of
        # reach: a root is accepted on its residual relative to the terms
        case = PerturbationCase(0.0, 0.01 * math.sqrt(2), 1.0)
        t0 = time.perf_counter()
        val = find_lambda_eps(case)
        assert time.perf_counter() - t0 < 2.0
        b = bounds_for(case)
        assert b.C1 / case.epsilon <= val <= (b.S_eps + 1) * PI
        assert val == pytest.approx(222.1441469, abs=1e-6)

    @pytest.mark.parametrize(
        "base, eps, c, expected",
        [
            (2.0, 1e-3, -0.5, 1048.244486817993),
            (2.0, -1e-3, -0.5, 1047.1975511965977),
            (2.0, 1e-4, -0.5, 10473.022683335927),
            (2.0, -1e-4, -0.5, 10471.975511965977),
            (0.0, 1e-3, 1.0, 3141.59265358979),
        ],
    )
    def test_near_stabilising_delay_under_runtime_cap(self, base, eps, c, expected):
        # the paper's regime: the roots come back only at |Im| ~ 1/|eps|, and
        # the disk polynomial of the rational delay has degree 4000 to 40000
        case = PerturbationCase(base, eps, c)
        t0 = time.perf_counter()
        val = find_lambda_eps(case)
        assert time.perf_counter() - t0 < 0.5
        assert val == pytest.approx(expected, rel=1e-12)
        b = bounds_for(case)
        assert b.C1 / abs(eps) - 1e-6 <= val <= (b.S_eps + 1) * PI + 1e-6

    @pytest.mark.parametrize("base, eps, c", [(2.0, 1e-2, -0.5), (2.0, -1e-2, -0.5), (0.0, 1e-2, 1.0)])
    def test_agrees_with_companion_reference(self, base, eps, c):
        # each disk-polynomial root z with |z| <= 1 (Re lam >= 0) gives roots
        # with Im lam = n |Arg z| + 2 pi n k; at base 0 the least, 100 pi,
        # lies on the line Im lam = pi n of a negative real z
        case = PerturbationCase(base, eps, c)
        sysd = perturbed_system(case)
        z = np.asarray(disk_roots(reduce_to_polynomial(sysd)).roots)
        ref = (sysd.tau_rational.den * np.abs(np.angle(z[np.abs(z) <= 1.0 + 1e-9]))).min()
        assert find_lambda_eps(case) == pytest.approx(ref, rel=1e-9)


def near_stabilising_cases(seed, count):
    """Perturbed cases at bases 0, 2, 4 and 6, |eps| log-uniform in [1e-3, 0.2]
    with both signs at even bases, and c drawn inside each window."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        base = float(rng.choice([0, 2, 4, 6]))
        eps = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
        if base:
            w = math.sin(PI / (2 * (base - 1)))
            lo, hi = (-w, 0.0) if base % 4 == 2 else (0.0, w)
            c = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            eps *= rng.choice([-1.0, 1.0])
        else:
            c = rng.uniform(0.05, 2.0)
        cases.append(PerturbationCase(base, float(eps), float(c)))
    return cases


def outcome(f):
    """repr of f(), or the type and message of what it raised."""
    try:
        return repr(f())
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def count_work(monkeypatch):
    """Lists that collect the boxes of each batched rectangle winding and
    the points of each ExpSum evaluation from here on."""
    windings, points = [], []
    rect_windings, plain = contour._rect_windings, ExpSum.__call__

    def counted_windings(func, box):
        windings.append(len(box))
        return rect_windings(func, box)

    def counted_call(self, lam):
        points.append(np.size(lam))
        return plain(self, lam)

    monkeypatch.setattr(contour, "_rect_windings", counted_windings)
    monkeypatch.setattr(ExpSum, "__call__", counted_call)
    return windings, points


class TestClearanceHeightStart:
    """find_lambda_eps and check_low_freq_clear start their strip scan below
    regions.clearance_height; from 0 they give the same outputs."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_outputs_as_the_scan_from_zero(self, seed, monkeypatch):
        cases = near_stabilising_cases(seed, 30)
        fns = (find_lambda_eps, check_low_freq_clear)
        started = [[outcome(lambda: f(case)) for f in fns] for case in cases]
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        for case, got in zip(cases, started):
            assert got == [outcome(lambda: f(case)) for f in fns], case

    @pytest.mark.parametrize("base, c", [(2.0, -0.5), (4.0, 0.3)])
    def test_work_flat_in_eps(self, base, c, monkeypatch):
        # from 0, find_lambda_eps took 8-13 windings of 15,160-195,064 ExpSum
        # points at |eps| = 1e-3 and 1e-4, and more below; from the clearance
        # height one batched winding of about 1,100-1,250 points at every |eps|
        windings, points = count_work(monkeypatch)
        work = {}
        for eps in (1e-3, -1e-3, 1e-4, -1e-4, 1e-5, -1e-5, 1e-6, -1e-6):
            windings.clear()
            points.clear()
            find_lambda_eps(PerturbationCase(base, eps, c))
            work[eps] = (len(windings), sum(points))
        for eps, (calls, total) in work.items():
            assert calls == work[1e-3][0] == 1, work
            assert total <= 1.25 * work[1e-3][1], work

    @pytest.mark.parametrize("base, c", [(2.0, -0.5), (4.0, 0.3)])
    def test_public_scan_starts_at_the_certificate(self, base, c, monkeypatch):
        # min_unstable_imag starts where find_lambda_eps does: from 0 it took
        # over a second and many windings at |eps| = 1e-6
        windings, _ = count_work(monkeypatch)
        for eps in (1e-6, -1e-6):
            case = PerturbationCase(base, eps, c)
            height = 2.0 * (2.0 * bounds_for(case).C2 / abs(eps) + 2.0 * PI)
            lam = find_lambda_eps(case)
            windings.clear()
            assert min_unstable_imag(perturbed_system(case), height) == lam
            assert len(windings) == 1, (eps, windings)


# ---------------------------------------------------------------- witness


class TestWitness:
    def test_l1_reference_case(self):
        w = witness_F_epsilon(1, 0.05, -0.3)
        assert w.residual < 1e-8
        assert 0 < w.delta_star <= 0.05
        assert w.beta_star < 9 * PI
        assert w.k_star == 9

    def test_design_identity(self):
        # 2 d* k* / (2n - 1 + d*) = 1 - c~ holds exactly by construction
        for l, c in [(1, -0.3), (2, 0.25)]:
            w = witness_F_epsilon(l, 0.05, c)
            c_tilde = (2 * (2 * l - 1) / PI) * math.asin(abs(c))
            lhs = 2 * w.delta_star * w.k_star / (2 * l - 1 + w.delta_star)
            assert lhs == pytest.approx(1 - c_tilde, abs=1e-12)

    def test_l2_case(self):
        w = witness_F_epsilon(2, 0.05, 0.25)
        assert w.residual < 1e-8
        assert 0 < w.delta_star <= 0.05
        h = h_delta_expsum(2, w.delta_star)
        assert abs(complex(h(np.array([1j * w.beta_star]))[0]) - 0.25) < 1e-10

    def test_l3_case(self):
        # base tau = 6 (negative gain side), window magnitude sin(pi/10)
        w = witness_F_epsilon(3, 0.04, -0.2)
        assert w.residual < 1e-8
        assert 0 < w.delta_star <= 0.04
        assert w.beta_star < bounds_for(PerturbationCase(6.0, 0.04, -0.2)).S_eps * PI

    def test_window_empty_for_large_eps(self):
        with pytest.raises(WindowEmpty):
            witness_F_epsilon(1, 0.5, -0.3)

    def test_congruence(self):
        # k* = n (mod 2n-1) is what makes the closed form exact
        w = witness_F_epsilon(2, 0.05, 0.25)
        assert w.k_star % 3 == 2
        assert w.l_star == (w.k_star - 2) // 3


# ---------------------------------------------------------------- sweep


class TestSweep:
    def test_rows_ordered_and_complete(self):
        template = PerturbationCase(2.0, 0.05, -0.3)
        rows = sweep(template, [0.1, 0.05, 0.0, -0.05])
        assert [r.eps for r in rows] == [0.1, 0.05, 0.0, -0.05]
        for r in rows:
            assert r.error is None
        assert rows[2].lambda_eps is None          # eps = 0: absent, not infinite
        assert rows[2].low_freq_clear is True
        for r in (rows[0], rows[1], rows[3]):
            assert r.lambda_eps is not None and r.low_freq_clear

    def test_error_capture_keeps_going(self):
        template = PerturbationCase(2.0, 0.05, -0.3)
        rows = sweep(template, [0.05, -2.5, 0.02])
        assert rows[1].error is not None
        assert rows[0].error is None and rows[2].error is None

    def test_clearance_above_1e4(self):
        # C1/|eps| ~ 1.05e4 at c = -0.5: one winding, well within its phase budget
        t0 = time.perf_counter()
        rows = sweep(PerturbationCase(2.0, 1e-4, -0.5), [1e-4, -1e-4])
        assert time.perf_counter() - t0 < 2.0
        for row in rows:
            b = bounds_for(PerturbationCase(2.0, row.eps, -0.5))
            assert row.error is None and row.low_freq_clear is True
            assert b.C1 / abs(row.eps) - 1e-6 <= row.lambda_eps <= (b.S_eps + 1) * PI + 1e-6

    def test_reach_to_1e6(self):
        # the paper's regime down to |eps| = 1e-6, where lambda_eps ~ 1e6
        t0 = time.perf_counter()
        rows = sweep(PerturbationCase(2.0, 1e-5, -0.5), [1e-5, -1e-5, 1e-6, -1e-6])
        assert time.perf_counter() - t0 < 2.0
        assert [r.eps for r in rows] == [1e-5, -1e-5, 1e-6, -1e-6]
        for row in rows:
            b = bounds_for(PerturbationCase(2.0, row.eps, -0.5))
            assert row.error is None and row.low_freq_clear is True
            assert b.C1 / abs(row.eps) - 1e-6 <= row.lambda_eps <= (b.S_eps + 1) * PI + 1e-6
            assert abs(row.lambda_eps - high_frequency_onset(row.eps, -0.5)) < PI

    def test_scan_memory_bounded_by_phase_budget(self, monkeypatch):
        # a batch of the scan is bounded by the phase budget, not by the
        # height scanned: ten times the height takes no more memory.  The
        # scan runs from 0, with the clearance height find_lambda_eps
        # starts from patched to 0, and finds the same root
        cases = [PerturbationCase(2.0, eps, -0.5) for eps in (1e-5, 1e-6)]
        started = [find_lambda_eps(case) for case in cases]
        monkeypatch.setattr(regions, "clearance_height", lambda sys, x: 0.0)
        peaks = []
        for case, lam in zip(cases, started):
            eps = case.epsilon
            tracemalloc.start()
            val = min_unstable_imag(perturbed_system(case), 2.0 * (PI / eps + 2.0 * PI))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert val == lam
        assert peaks[1] <= 1.5 * peaks[0]

    def test_sandwich_invariant(self):
        template = PerturbationCase(0.0, 0.1, 1.0)
        for row in sweep(template, [0.1, 0.05, 0.02]):
            b = bounds_for(PerturbationCase(0.0, row.eps, 1.0))
            assert b.C1 / row.eps - 1e-9 <= row.lambda_eps <= (b.S_eps + 1) * PI + 1e-9
            assert row.low_freq_clear


def high_frequency_onset(eps, c):
    """The first w > 0 with (1/2) log|1 + 2c e^{-i eps w}| > 0.

    At height w on the line Re lam ~ 0, e^{-eps lam} is nearly e^{-i eps w},
    so the roots of e^{2 lam} + 2c e^{-eps lam} + 1 (base 2, tau = 2 + eps)
    there are those of the base delay with the complex gain c e^{-i eps w}:
    Re lam ~ (1/2) log|1 + 2c e^{-i eps w}|.  The first positive value is
    found on a grid of theta = |eps| w over one period, then bisected; the
    log is positive where its argument exceeds 1.
    """
    def grows(theta):
        return np.abs(1.0 + 2.0 * c * np.exp(-1j * theta)) > 1.0

    theta = np.linspace(0.0, 2.0 * PI, 100001)
    i = int(np.argmax(grows(theta)))
    assert i > 0 and grows(theta[i])
    lo, hi = theta[i - 1], theta[i]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (lo, mid) if grows(mid) else (mid, hi)
    return hi / abs(eps)
