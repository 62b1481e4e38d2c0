"""Exact method-of-characteristics simulator for the closed-loop cascade.

The wave part is carried by the Riemann invariants p = z_t + z_x (moving
toward x = 0) and q = z_t - z_x (moving toward x = 1); the delay line w
moves toward x = 1 at speed 1/tau.  With a rational delay tau = m/n and
time step dt = 1/(nK) all three transports are exact one-cell shifts, so
the scheme introduces no numerical dissipation whatsoever: the only errors
are initial-condition sampling and the trapezoid energy quadrature.  That
exactness is what lets the late-time energy slope be compared against the
spectral abscissa at the percent level.

Boundary algebra per step (all at the new time level):

    q(0) = -p(0)                        z(0, t) = 0
    p(1) = q(1) + 2 w(1)                z_x(1, t) = w(1, t)
    w(0) = -c1 w(1) - c2 (p(1)+q(1))/2  u(t) = -c1 w(1,t) - c2 z_t(1,t)

The interior only transports, so the state is three boundary traces seen
through sliding windows.  With N = nK, M = mK and the extended traces
    P[j] = p0[j] (j <= N), then p(1) at step j - N
    Q[j] = q0[N - j] (j <= N), then q(0) at step j - N
    W[j] = w0[M - j] (j <= M), then w(0) at step j - M
the state at step k is P[k:k+N+1], Q[k:k+N+1][::-1] and W[k:k+M+1][::-1],
and a step reads P[N+k] = Q[k] + 2 W[k], W[M+k] = -c1 W[k] - c2 (P[N+k]
+ Q[k])/2, Q[N+k] = -P[k].  P and Q read each other N steps back (2N for
the wave round trip) and W reads itself M steps back (the delay), so a block
of min(2N, M) steps runs in lag order as a few numpy ufuncs writing in place,
on buffers of one state window plus ``_ROOM`` steps or four blocks, O(N + M).
The energies of each span between two moves of the window are one
``_energies`` call, the kernel that ``energy`` runs on one state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .chareq import DelayGains, Rational

__all__ = [
    "InitialCondition",
    "SimConfig",
    "SimState",
    "EnergyTrace",
    "named_ic",
    "init",
    "step",
    "energy",
    "simulate",
    "state_dict",
    "decay_rate",
    "boundary_trace_recursion",
    "EXTINCT",
]

EXTINCT = float("-inf")


@dataclass(frozen=True)
class InitialCondition:
    """Closed-form initial data (f, g, h) with an analytic derivative for f.

    f is the initial displacement (f(0) = 0), g the initial velocity, h the
    initial delay-line profile.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        v = float(np.asarray(self.f(np.array([0.0])))[0])
        if abs(v) > 1e-14:
            raise ValueError(f"initial displacement must vanish at x = 0 (got {v})")


def _zero(x):
    return np.zeros_like(x)


_IC_REGISTRY = {
    "zero": InitialCondition(_zero, _zero, _zero, _zero, "zero"),
    "halfsine": InitialCondition(
        lambda x: (2.0 / np.pi) * np.sin(np.pi * x / 2),
        lambda x: np.cos(np.pi * x / 2),
        _zero,
        _zero,
        "halfsine",
    ),
    "mixed": InitialCondition(
        lambda x: np.sin(np.pi * x / 2) + 0.3 * np.sin(np.pi * x),
        lambda x: (np.pi / 2) * np.cos(np.pi * x / 2) + 0.3 * np.pi * np.cos(np.pi * x),
        lambda x: 0.5 * np.sin(np.pi * x),
        lambda x: 0.2 * np.cos(np.pi * x),
        "mixed",
    ),
}


def named_ic(name: str) -> InitialCondition:
    try:
        return _IC_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown initial condition {name!r}; have {sorted(_IC_REGISTRY)}")


@dataclass(frozen=True)
class SimConfig:
    """Grid and loop parameters.  dt = 1/(n*K); tau/dt = m*K cells exactly."""

    tau_rational: Rational
    gains: DelayGains
    cells_per_unit: int
    t_final: float
    ic: InitialCondition
    sample_every: float = 1.0

    def __post_init__(self):
        if self.cells_per_unit < 1:
            raise ValueError("cells_per_unit must be positive")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.tau_rational.num <= 0:
            raise ValueError("delay must be positive")
        stride = self.sample_every / self.dt
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ValueError("sample_every must be a positive multiple of dt")

    @property
    def wave_cells(self) -> int:
        return self.tau_rational.den * self.cells_per_unit

    @property
    def transport_cells(self) -> int:
        return self.tau_rational.num * self.cells_per_unit

    @property
    def dt(self) -> float:
        return 1.0 / self.wave_cells


@dataclass
class SimState:
    """Node samples of the invariants and the delay line at step*dt."""

    p: np.ndarray
    q: np.ndarray
    w: np.ndarray
    step_index: int
    dt: float

    @property
    def t(self) -> float:
        return self.step_index * self.dt


@dataclass(frozen=True)
class EnergyTrace:
    samples: Tuple[Tuple[float, float], ...]
    final_state: Optional[SimState] = None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        t = np.array([s[0] for s in self.samples])
        e = np.array([s[1] for s in self.samples])
        return t, e


def init(config: SimConfig) -> SimState:
    xw = np.linspace(0.0, 1.0, config.wave_cells + 1)
    xt = np.linspace(0.0, 1.0, config.transport_cells + 1)
    ic = config.ic
    g0 = np.asarray(ic.g(xw), dtype=float)
    df0 = np.asarray(ic.df(xw), dtype=float)
    return SimState(g0 + df0, g0 - df0, np.asarray(ic.h(xt), dtype=float), 0, config.dt)


def energy(state: SimState) -> float:
    """E = (1/2) int_0^1 (z_x^2 + z_t^2 + w^2) dx by trapezoid quadrature.

    With z_x^2 + z_t^2 = (p^2 + q^2)/2 and the rule dx (sum y - (y_first +
    y_last)/2), E is sums of squares less endpoint squares, summed by
    ``_energies`` over contiguous trace-order copies of q and w: the rows it
    sums for ``simulate``, so a ``step`` state and a simulated one give the
    same bits on any numpy."""
    p, q, w = (np.ascontiguousarray(a) for a in (state.p, state.q[::-1], state.w[::-1]))
    return float(_energies(p, q, w, 0, 1, 1, p.size - 1, w.size - 1)[0])


def _energies(P, Q, W, i0, count, stride, N, M) -> np.ndarray:
    """``energy`` of the ``count`` states whose windows of N + 1, N + 1 and
    M + 1 nodes start at positions i0, i0 + stride, ... of the contiguous
    trace-order P, Q, W: read-only strided rows, each sum of squares a
    one-row ``matmul`` (``np.dot``'s BLAS dot; ``np.vecdot`` needs numpy 2),
    the endpoint terms in the scalar rule's operation order."""
    p, q, w = (as_strided(a[i0:], (count, n + 1), (stride * a.itemsize, a.itemsize), writeable=False)
               for a, n in ((P, N), (Q, N), (W, M)))
    pp, qq, ww = ((v[:, None, :] @ v[:, :, None])[:, 0, 0] for v in (p, q, w))
    ends = p[:, 0] * p[:, 0] + p[:, -1] * p[:, -1] + q[:, 0] * q[:, 0] + q[:, -1] * q[:, -1]
    wave = (pp + qq - 0.5 * ends) / N
    delay = (ww - 0.5 * (w[:, 0] * w[:, 0] + w[:, -1] * w[:, -1])) / M
    return 0.25 * wave + 0.5 * delay


def _advance(p: np.ndarray, q: np.ndarray, w: np.ndarray, c1: float, c2: float) -> None:
    p[:-1] = p[1:]
    q[1:] = q[:-1]
    w[1:] = w[:-1]
    q_end = q[-1]
    w_end = w[-1]
    p[-1] = q_end + 2.0 * w_end
    w[0] = -c1 * w_end - c2 * 0.5 * (p[-1] + q_end)
    q[0] = -p[0]


def step(state: SimState, config: SimConfig) -> SimState:
    """One exact dt advance (returns a new state)."""
    p, q, w = state.p.copy(), state.q.copy(), state.w.copy()
    _advance(p, q, w, config.gains.c1, config.gains.c2)
    return SimState(p, q, w, state.step_index + 1, state.dt)


# Trace buffers hold the state window plus room for max(4 blocks, _ROOM)
# steps, and a span's energies are one call.  Best of 15 in-process runs of
# the simulate workload's 11 configurations (2-vCPU VM): 21.9 ms with 4
# blocks, 15.5 / 14.3 / 15.5 / 17.5 ms at _ROOM = 2^13 / 2^14 / 2^15 / 2^16.
# 2^13 keeps the benchmark's peak RSS within 3% of 4 blocks (2^14: +3.6%).
_ROOM = 2 ** 13


def _trace_blocks(config: SimConfig, steps: int):
    """Yield ``(k, P, Q, W)`` once per span of steps k..k + P.size - N - 1:
    views of the trace buffers in which the state at step k + j is P[j:j+N+1],
    Q[j:j+N+1][::-1] and W[j:j+M+1][::-1], valid until the next yield.  The
    first span starts at step 0, the last ends at ``steps``.

    A block has b = min(2N, M) steps, the last one fewer, computed in lag
    order: p(1) at its first min(b, N) steps (reading q(0) N and w(0) M
    steps back, in earlier blocks), q(0) at all b (reading p(1) N steps
    back, where b > N some from the first part), p(1) at the other steps
    (reading that q(0)), then w(0).  Each ufunc writes through ``out=``
    into the buffers or two work arrays of one block.  Once the next block
    would not fit in the buffers' room of max(4b, ``_ROOM``) steps, the span
    is yielded and the window of step k - 1 moves to their start, so every
    span but the last is whole blocks.
    """
    st = init(config)
    N, M = config.wave_cells, config.transport_cells
    c1, c2 = config.gains.c1, config.gains.c2
    B = min(2 * N, M)
    room = max(4 * B, _ROOM)
    P, Q, W = np.empty(N + 1 + room), np.empty(N + 1 + room), np.empty(M + 1 + room)
    t1, t2 = np.empty(B), np.empty(B)
    P[:N + 1], Q[:N + 1], W[:M + 1] = st.p, st.q[::-1], st.w[::-1]
    o = 0  # buffer position i holds trace index o + i
    k0 = 0  # first step of the span

    def p_out(lo: int, hi: int) -> None:
        # p(1) = q(0) + 2 w(1) at trace positions lo..hi-1 of q and w
        t = t1[:hi - lo]
        np.multiply(W[lo:hi], 2.0, out=t)
        np.add(Q[lo:hi], t, out=P[N + lo:N + hi])

    k = 1
    while True:
        b = min(B, steps - k + 1)
        if b <= 0 or k - o + b > room + 1:
            i, j = k0 - o, k - o
            yield k0, P[i:N + j], Q[i:N + j], W[i:M + j]
            if b <= 0:
                return
            P[:N + 1], Q[:N + 1], W[:M + 1] = P[j - 1:N + j], Q[j - 1:N + j], W[j - 1:M + j]
            o, k0 = k - 1, k
        i = k - o
        p_out(i, i + min(b, N))
        np.negative(P[i:i + b], out=Q[N + i:N + i + b])
        if b > N:
            p_out(i + N, i + b)
        u, v = t1[:b], t2[:b]
        np.multiply(W[i:i + b], -c1, out=u)
        np.add(P[N + i:N + i + b], Q[i:i + b], out=v)
        np.multiply(v, c2 * 0.5, out=v)
        np.subtract(u, v, out=W[M + i:M + i + b])
        k += b


def simulate(config: SimConfig) -> EnergyTrace:
    """Run to t_final, sampling the energy every ``sample_every`` time units
    by one ``_energies`` call per span of ``_trace_blocks``; raises
    FloatingPointError at the first energy that overflowed."""
    N, M, dt = config.wave_cells, config.transport_cells, config.dt
    stride = int(round(config.sample_every / dt))
    steps = int(round(config.t_final / dt))
    samples: List[Tuple[float, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, P, Q, W in _trace_blocks(config, steps):
            at = range(-(-k // stride) * stride, k + P.size - N, stride)
            E = _energies(P, Q, W, at.start - k, len(at), stride, N, M)
            finite = np.isfinite(E)
            if not finite.all():
                t = at[finite.argmin()] * dt
                raise FloatingPointError(f"energy at t = {t:g} is not finite: the state overflowed")
            samples += zip([s * dt for s in at], E.tolist())
    final = SimState(P[-N - 1:], Q[-N - 1:][::-1], W[-M - 1:][::-1], steps, dt)
    return EnergyTrace(tuple(samples), final)


def state_dict(state: SimState) -> dict:
    """JSON-ready dump of a simulator state (node samples of p, q, w)."""
    return {
        "schema": 1,
        "t": state.t,
        "dt": state.dt,
        "p": [float(v) for v in state.p],
        "q": [float(v) for v in state.q],
        "w": [float(v) for v in state.w],
    }


def decay_rate(trace: EnergyTrace, t_start: float, t_end: float) -> float:
    """Least-squares slope of log E over [t_start, t_end].

    Returns the ``EXTINCT`` sentinel when any sampled energy in the window
    is zero (finite-time extinction outruns any exponential fit).
    """
    window = [(t, e) for t, e in trace.samples if t_start <= t <= t_end]
    if len(window) < 2:
        raise ValueError(f"fit window [{t_start:g}, {t_end:g}] contains fewer than two samples")
    if any(e == 0.0 for _, e in window):
        return EXTINCT
    t = np.array([a for a, _ in window])
    loge = np.log(np.array([b for _, b in window]))
    return float(np.polyfit(t, loge, 1)[0])


def default_fit_window(rate_guess: float, t_final: float) -> Tuple[float, float]:
    """Late-time window skipping the multi-mode transient."""
    start = max(10.0, 3.0 / abs(rate_guess)) if rate_guess else 10.0
    return min(start, 0.5 * t_final), t_final


def boundary_trace_recursion(config: SimConfig, t_final: float):
    """Boundary traces P(t) = p(1, t), W(t) = w(1, t) on the exact dt grid,
    copied span by span from the simulator's trace buffers."""
    N, M = config.wave_cells, config.transport_cells
    n_steps = int(round(t_final / config.dt))
    P, W = [], []
    for _, p, _, w in _trace_blocks(config, n_steps):
        P.append(p[N:].copy())
        W.append(w[:w.size - M].copy())
    return np.arange(n_steps + 1) * config.dt, np.concatenate(P), np.concatenate(W)
