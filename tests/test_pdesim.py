import itertools
import tracemalloc

import numpy as np
import pytest

from delaywave import pdesim
from delaywave.chareq import DelayGains, Rational, equal_gain_system
from delaywave.contour import spectral_abscissa
from delaywave.pdesim import (
    EXTINCT,
    InitialCondition,
    SimConfig,
    SimState,
    boundary_trace_recursion,
    decay_rate,
    default_fit_window,
    energy,
    init,
    named_ic,
    simulate,
    state_dict,
    step,
)


def config(m, n, c1, c2, K=40, T=40.0, ic="mixed", sample_every=1.0):
    return SimConfig(Rational(m, n), DelayGains(c1, c2), K, T, named_ic(ic), sample_every)


# ---------------------------------------------------------------- setup


class TestConfigAndInit:
    def test_grid_arithmetic(self):
        cfg = config(3, 2, 0.0, 0.0, K=8)
        assert cfg.wave_cells == 16 and cfg.transport_cells == 24
        assert cfg.dt == pytest.approx(1.0 / 16)

    def test_sample_cadence_must_divide(self):
        with pytest.raises(ValueError):
            config(2, 1, 0.0, 0.0, K=3, sample_every=0.7)

    @pytest.mark.parametrize("T, every", [(np.inf, 1.0), (np.nan, 1.0), (40.0, np.inf), (40.0, 1e308)])
    def test_times_must_be_finite(self, T, every):
        with pytest.raises(ValueError):
            config(2, 1, 0.0, 0.0, T=T, sample_every=every)

    def test_ic_requires_pinned_endpoint(self):
        with pytest.raises(ValueError):
            InitialCondition(
                f=lambda x: x + 1.0,
                df=lambda x: np.ones_like(x),
                g=lambda x: np.zeros_like(x),
                h=lambda x: np.zeros_like(x),
            )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_ic("nope")

    def test_zero_state(self):
        st = init(config(2, 1, 0.0, 0.0, ic="zero"))
        assert energy(st) == 0.0

    def test_halfsine_energy(self):
        st = init(config(2, 1, 0.0, 0.0, ic="halfsine"))
        assert energy(st) == pytest.approx(0.25, abs=1e-12)

    def test_reconstruction_identity(self):
        cfg = config(2, 1, -0.3, -0.3)
        st = init(cfg)
        x = np.linspace(0, 1, cfg.wave_cells + 1)
        assert np.allclose(st.p + st.q, 2 * cfg.ic.g(x), atol=1e-14)

    def test_energy_quadratic_scaling(self):
        base = named_ic("mixed")
        doubled = InitialCondition(
            lambda x: 2 * base.f(x),
            lambda x: 2 * base.df(x),
            lambda x: 2 * base.g(x),
            lambda x: 2 * base.h(x),
        )
        cfg1 = config(2, 1, 0.0, 0.0)
        cfg2 = SimConfig(Rational(2, 1), DelayGains(0.0, 0.0), 40, 40.0, doubled)
        assert energy(init(cfg2)) == pytest.approx(4 * energy(init(cfg1)), rel=1e-13)


# ---------------------------------------------------------------- energy quadrature


def trapezoid_energy(p, q, w):
    """The energy by ``np.trapezoid``, the rule ``energy`` must reproduce."""
    wave = np.trapezoid(0.5 * (p * p + q * q), dx=1.0 / (p.size - 1))
    return 0.5 * (wave + np.trapezoid(w * w, dx=1.0 / (w.size - 1)))


def reversed_view(a):
    """The values of ``a`` as a reversed view of a reversed copy, the layout
    of the q and w that ``simulate`` hands to ``energy``."""
    return a[::-1].copy()[::-1]


SIZES = (2, 3, 401, 4101)


class TestEnergyQuadrature:
    @staticmethod
    def seeded(n_wave, n_delay):
        rng = np.random.default_rng(1000 * n_wave + n_delay)
        return rng.standard_normal(n_wave), rng.standard_normal(n_wave), rng.standard_normal(n_delay)

    @pytest.mark.parametrize("n_delay", SIZES)
    @pytest.mark.parametrize("n_wave", SIZES)
    def test_matches_trapezoid_rule(self, n_wave, n_delay):
        p, q, w = self.seeded(n_wave, n_delay)
        ref = trapezoid_energy(p, q, w)
        # float64 rounding of sums of N + M + 2 nonnegative terms, both sides
        bound = 4 * (n_wave + n_delay) * 2.0 ** -53 * ref
        for layout in (lambda a: a, reversed_view):
            e = energy(SimState(layout(p), layout(q), layout(w), 0, 1.0))
            assert abs(e - ref) <= bound

    @pytest.mark.parametrize("n_wave,n_delay", [(2, 3), (3, 2), (401, 4101), (4101, 401)])
    def test_zero_state_is_exactly_zero(self, n_wave, n_delay):
        for layout in (lambda a: a, reversed_view):
            st = SimState(layout(np.zeros(n_wave)), layout(np.zeros(n_wave)), layout(np.zeros(n_delay)), 0, 1.0)
            assert energy(st) == 0.0

    @pytest.mark.parametrize("n_delay", SIZES)
    @pytest.mark.parametrize("n_wave", SIZES)
    def test_layout_invariance(self, n_wave, n_delay):
        # what lets the block recursion match the stepper bit for bit
        p, q, w = self.seeded(n_wave, n_delay)
        contiguous = SimState(p, q, w, 0, 1.0)
        as_traced = SimState(p, reversed_view(q), reversed_view(w), 0, 1.0)
        assert energy(contiguous) == energy(as_traced)

    def test_one_energy_call_per_sample(self, monkeypatch):
        kernel, calls = pdesim._energies, []

        def counting(P, Q, W, i0, count, stride, N, M):
            calls.append(count)
            return kernel(P, Q, W, i0, count, stride, N, M)

        def per_state(state):
            raise AssertionError("simulate samples through _energies alone")

        monkeypatch.setattr(pdesim, "_energies", counting)
        monkeypatch.setattr(pdesim, "energy", per_state)
        trace = simulate(config(3, 2, -0.3, 0.2, K=6, T=10.0, sample_every=0.5))
        assert calls == [len(trace.samples)] == [21]
        # 24000 steps: three spans, each sample's energy computed exactly once
        calls.clear()
        cfg = config(3, 2, -0.3, 0.2, K=6, T=2000.0, sample_every=0.5)
        trace = simulate(cfg)
        spans = list(pdesim._trace_blocks(cfg, 24000))
        assert len(calls) == len(spans) == 3
        assert sum(calls) == len(trace.samples) == 4001
        assert [t for t, _ in trace.samples] == [0.5 * s for s in range(4001)]


# ---------------------------------------------------------------- stepping


class TestStep:
    def test_conservative_drift(self):
        # zero gains, zero delay line: pure reflection, energy exactly kept
        cfg = config(2, 1, 0.0, 0.0, K=40, T=20.0, ic="halfsine")
        trace = simulate(cfg)
        assert np.abs(trace.E - trace.E[0]).max() < 1e-12

    def test_extinction(self):
        cfg = config(2, 1, -0.5, -0.5, K=40, T=10.0)
        trace = simulate(cfg)
        for t, e in trace.samples:
            if t >= 6.0:
                assert e <= 1e-12

    def test_pure_transport_shift(self):
        profile = lambda x: np.sin(2 * np.pi * x)
        ic = InitialCondition(
            lambda x: np.zeros_like(x), lambda x: np.zeros_like(x),
            lambda x: np.zeros_like(x), profile,
        )
        cfg = SimConfig(Rational(3, 2), DelayGains(0.0, 0.0), 8, 2.0, ic)
        st = init(cfg)
        shift = 6  # 6 steps: w moves 6 cells toward x = 1
        for _ in range(shift):
            st = step(st, cfg)
        xt = np.linspace(0, 1, cfg.transport_cells + 1)
        expect = np.where(xt * cfg.transport_cells >= shift, profile(xt - shift / cfg.transport_cells), 0.0)
        assert np.allclose(st.w, expect, atol=1e-14)

    def test_step_returns_new_state(self):
        cfg = config(2, 1, -0.25, -0.25)
        s0 = init(cfg)
        p0 = s0.p.copy()
        s1 = step(s0, cfg)
        assert s1.step_index == 1
        assert np.array_equal(s0.p, p0)


class TestTraceArrays:
    @pytest.mark.parametrize(
        "m,n,c1,c2,K,T,every",
        [(2, 1, -0.25, -0.25, 10, 7.3, 0.7), (41, 20, -0.25, -0.25, 2, 6.0, 1.0), (2, 1, -0.2, -0.2, 1, 0.4, 1.0)],
    )
    def test_read_only_float64(self, m, n, c1, c2, K, T, every):
        cfg = config(m, n, c1, c2, K=K, T=T, sample_every=every)
        trace = simulate(cfg)
        stride = int(round(every / cfg.dt))
        lattice = range(0, int(round(T / cfg.dt)) + 1, stride)
        for a in (trace.t, trace.E):
            assert a.dtype == np.float64 and a.ndim == 1 and a.size == len(lattice)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert trace.t.tolist() == [s * cfg.dt for s in lattice]
        assert trace.samples == tuple(zip(trace.t.tolist(), trace.E.tolist()))
        assert all(type(v) is float for pair in trace.samples for v in pair)

    def test_overflow_stops_the_run(self, monkeypatch):
        # unstable at 41/20: the energy passes 1e308 near t = 1773 of a
        # 40-million-step horizon; the run stops within the span that overflowed
        kernel, calls = pdesim._energies, []

        def counting(P, Q, W, i0, count, stride, N, M):
            calls.append(count)
            return kernel(P, Q, W, i0, count, stride, N, M)

        monkeypatch.setattr(pdesim, "_energies", counting)
        cfg = config(41, 20, -0.25, -0.25, K=20, T=1e5)
        with pytest.raises(FloatingPointError, match="energy at t = 1773 is not finite"):
            simulate(cfg)
        span = max(4 * min(2 * cfg.wave_cells, cfg.transport_cells), pdesim._ROOM) * cfg.dt
        assert sum(calls) <= 1773 + span + 1

    def test_memory_of_a_long_trace(self):
        # 100,001 samples: two float64 arrays of 0.8 MB each, not 100,001 tuples
        cfg = config(2, 1, -0.02, -0.02, K=100, T=1000.0, sample_every=0.01)
        simulate(config(2, 1, -0.02, -0.02, K=100, T=1.0, sample_every=0.01))  # warm-up
        tracemalloc.start()
        try:
            trace = simulate(cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.E.size == 100001
        assert retained < 2.5e6 and peak < 5e6


# ---------------------------------------------------------------- decay rates


def listed_rate(trace, t_start, t_end):
    """``decay_rate`` as a fit over a list of ``(t, E)`` pairs."""
    window = [(t, e) for t, e in trace.samples if t_start <= t <= t_end]
    if len(window) < 2:
        raise ValueError("fewer than two samples")
    if any(e == 0.0 for _, e in window):
        return EXTINCT
    return float(np.polyfit(np.array([a for a, _ in window]), np.log(np.array([b for _, b in window])), 1)[0])


class TestDecay:
    @pytest.mark.parametrize(
        "m,n,c,K,T,window",
        [
            (2, 1, -0.25, 40, 40.0, (10.0, 30.0)),
            (4, 1, 0.25, 40, 40.0, (10.0, 40.0)),
            (1, 1, 0.5, 40, 40.0, (10.0, 40.0)),
            (2, 1, -0.25, 20, 40.0, (10.0, 40.0)),
            (2, 1, -0.5, 20, 12.0, (8.0, 12.0)),
            (2, 1, -0.25, 20, 12.0, (11.2, 11.8)),
            (2, 1, -0.25, 20, 12.0, (2.5, 2.5)),
            (2, 1, -0.25, 20, 12.0, (-1.0, 1e9)),
        ],
    )
    def test_same_bits_as_a_list_fit(self, m, n, c, K, T, window):
        trace = simulate(config(m, n, c, c, K=K, T=T))
        try:
            expect = listed_rate(trace, *window)
        except ValueError:
            with pytest.raises(ValueError, match="fewer than two samples"):
                decay_rate(trace, *window)
            return
        got = decay_rate(trace, *window)
        assert got == expect or (got, expect) == (EXTINCT, EXTINCT)
        assert type(got) is float

    def test_rate_matches_abscissa_tau2(self):
        cfg = config(2, 1, -0.25, -0.25, K=40, T=40.0)
        trace = simulate(cfg)
        rate = decay_rate(trace, 10.0, 30.0)
        target = 2 * spectral_abscissa(equal_gain_system(-0.25, 2.0))
        assert rate == pytest.approx(target, rel=0.05)

    def test_rate_matches_abscissa_tau4(self):
        cfg = config(4, 1, 0.25, 0.25, K=40, T=40.0)
        trace = simulate(cfg)
        s_abs = spectral_abscissa(equal_gain_system(0.25, 4.0))
        t0, t1 = default_fit_window(2 * s_abs, 40.0)
        rate = decay_rate(trace, t0, t1)
        assert rate == pytest.approx(2 * s_abs, rel=0.05)

    def test_non_decay_tau_one(self):
        cfg = config(1, 1, 0.5, 0.5, K=40, T=40.0)
        trace = simulate(cfg)
        samples = dict(trace.samples)
        e10 = samples[10.0]
        sup_late = max(e for t, e in trace.samples if 10.0 <= t <= 40.0)
        assert sup_late >= e10 / 2

    def test_grid_refinement_invariance(self):
        rates = []
        for K in (20, 40):
            trace = simulate(config(2, 1, -0.25, -0.25, K=K, T=40.0))
            rates.append(decay_rate(trace, 10.0, 40.0))
        assert abs(rates[0] - rates[1]) / abs(rates[1]) < 0.005

    def test_extinct_sentinel(self):
        trace = simulate(config(2, 1, -0.5, -0.5, K=20, T=12.0))
        assert decay_rate(trace, 8.0, 12.0) == EXTINCT

    def test_window_too_small(self):
        trace = simulate(config(2, 1, -0.25, -0.25, K=20, T=12.0))
        with pytest.raises(ValueError):
            decay_rate(trace, 11.2, 11.8)


# ---------------------------------------------------------------- trace recursion


class TestTraceRecursion:
    @pytest.mark.parametrize("m,n,c", [(2, 1, -0.25), (3, 2, 0.4), (4, 1, 0.25)])
    def test_grid_matches_delay_algebra(self, m, n, c):
        cfg = config(m, n, c, c, K=8, T=10.0)
        times, P, W = boundary_trace_recursion(cfg)
        st = init(cfg)
        p_trace = [st.p[-1]]
        w_trace = [st.w[-1]]
        for _ in range(len(times) - 1):
            st = step(st, cfg)
            p_trace.append(st.p[-1])
            w_trace.append(st.w[-1])
        assert np.abs(np.array(p_trace) - P).max() < 1e-10
        assert np.abs(np.array(w_trace) - W).max() < 1e-10


# ---------------------------------------------------------------- block recursion vs one-step reference


def stepped(cfg):
    """Energy samples, final state and x = 1 traces of a loop over ``step``."""
    st = init(cfg)
    stride = int(round(cfg.sample_every / cfg.dt))
    samples, p1, w1 = [(0.0, energy(st))], [st.p[-1]], [st.w[-1]]
    for k in range(1, int(round(cfg.t_final / cfg.dt)) + 1):
        st = step(st, cfg)
        p1.append(st.p[-1])
        w1.append(st.w[-1])
        if k % stride == 0:
            samples.append((k * cfg.dt, energy(st)))
    return tuple(samples), st, np.array(p1), np.array(w1)


class TestBlockRecursion:
    @pytest.mark.parametrize(
        "m,n,c1,c2,K,T,every",
        [
            (1, 5, -0.3, -0.3, 4, 8.0, 1.0),  # tau < 1: blocks of mK steps
            (41, 20, -0.25, -0.25, 2, 6.0, 1.0),
            (3, 2, -0.3, 0.2, 6, 10.0, 0.5),  # c1 != c2, two samples per block
            (3, 2, 0.25, -0.1, 1, 13.0, 2.0),  # K = 1, a sample every other block
            (2, 1, -0.25, -0.25, 5, 7.3, 1.0),  # 36 steps: a partial last block
            (4, 1, -0.2, 0.1, 4, 9.0, 0.5),  # blocks of 2N steps, a sample every N / 2
            (5, 2, 0.3, -0.2, 2, 11.0, 1.0),  # N < b = 2N < M
            (3, 2, -0.25, 0.15, 3, 9.0, 1.0),  # N < b = M < 2N
            (3, 2, -0.3, 0.2, 2, 14.25, 0.25),  # 57 steps: two buffer wraps, then 3 steps
            (9, 1, 0.2, -0.3, 2, 20.5, 0.5),  # the w window moved back onto itself, twice
            (2, 1, -0.25, -0.25, 10, 2000.0, 1.0),  # 20000 steps in three spans, a sample on span 1's last step
            (1, 1, 0.5, 0.5, 1, 50000.0, 20000.0),  # samples further apart than a span, and a last span with none
            (2, 1, -0.2, -0.2, 1, 0.4, 1.0),  # no steps: one sample at t = 0 and the initial state
        ],
    )
    def test_matches_stepper(self, m, n, c1, c2, K, T, every):
        cfg = config(m, n, c1, c2, K=K, T=T, sample_every=every)
        samples, st, p1, w1 = stepped(cfg)
        trace = simulate(cfg)
        # same energy() on the same values: bit-identical, not merely close
        assert trace.samples == samples
        fin = trace.final_state
        assert fin.step_index == st.step_index
        for a, b in ((fin.p, st.p), (fin.q, st.q), (fin.w, st.w)):
            assert np.array_equal(a, b)
        assert state_dict(fin) == state_dict(st)
        times, P, W = boundary_trace_recursion(cfg)
        assert len(times) == len(p1) and np.array_equal(P, p1) and np.array_equal(W, w1)

    @pytest.mark.parametrize(
        "m,n,K,steps",
        [(1, 5, 4, 37), (2, 1, 5, 36), (4, 1, 4, 40), (5, 2, 2, 43), (3, 2, 3, 54), (9, 1, 2, 41),
         (2, 1, 3, 0), (2, 1, 10, 40000), (2, 1, 10, 24540), (2, 1, 2100, 20000)],
    )
    def test_blocks_of_min_2N_M_steps(self, m, n, K, steps):
        cfg = config(m, n, 0.2, -0.1, K=K)
        N, M = cfg.wave_cells, cfg.transport_cells
        B = min(2 * N, M)
        room = max(4 * B, pdesim._ROOM)
        spans = []
        for k, P, Q, W in pdesim._trace_blocks(cfg, steps):
            assert P.size - N == Q.size - N == W.size - M
            spans.append((k, P.size - N))
        # the spans tile steps 0..steps, the first one holding step 0 too
        assert [k for k, _ in spans] == [0] + list(itertools.accumulate(b for _, b in spans[:-1]))
        assert sum(b for _, b in spans) == steps + 1
        computed = [b - (k == 0) for k, b in spans]
        assert all(c <= room for c in computed)
        assert all(c > 0 and c % B == 0 for c in computed[:-1])

    def test_extinction_zeros_kept(self):
        cfg = config(2, 1, -0.5, -0.5, K=10, T=10.0)
        samples, _, _, _ = stepped(cfg)
        got = simulate(cfg).samples
        assert got == samples
        zeros = [t for t, e in got if e == 0.0]
        assert zeros == [t for t, e in samples if e == 0.0] and len(zeros) >= 4

    def test_memory_bounded_in_horizon(self):
        def peak(T):
            cfg = config(2, 1, -0.25, -0.25, K=100, T=T)
            tracemalloc.start()
            try:
                simulate(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(40.0)  # warm-up
        # a full-history trace of float64 would grow by 8 bytes per extra step
        extra_steps = (400 - 40) * 100
        assert peak(400.0) - peak(40.0) < 8 * extra_steps
