"""Critical gain sets, branch derivative signs, closed-form stability regions.

The gain values at which a root of the disk polynomial sits exactly on the
unit circle (or, in the strip picture, a root of g(lam) = c sits on the
imaginary axis) are the only places the count of destabilising roots can
jump.  This module enumerates those critical sets, gives the sign of the
root-modulus (or real-part) derivative across them, and assembles the
closed-form stability regions together with the master classifier.

Every gain pair has one characteristic function, the cascade's
(``chareq.char_expsum``), and every state is a count of the zeros in the
unit disk, chosen by the gains.  c1 = c2 (equal gains) and c1 = 0 (direct
feedback) are the one-gain loops that :class:`CharKind` names.  For them
:func:`crossing_state` counts exactly from the sign changes of Im z^{-n} P
on the circle, which sit at rational multiples of pi, off a table of
crossing gains, their circle angles and one winding per gap: no roots and
no degree cap.  The gains are the endpoints of
:func:`region_boundaries_bisect`, the count the state of :func:`classify`
and `delaywave region --scan`, and the exact circle zero a MARGINAL witness
and the start of :func:`unit_circle_continuation`.  Two gains are counted by
winding (``contour.count_in_disk``), a root within 1e-9 of the axis as on
it.  Any other witness is a companion root (``contour._rightmost_root``) up
to a crossover degree and the strip scan's root beyond it; neither decides
a state.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .chareq import (
    CharKind,
    DelaySystem,
    char_expsum,
    equal_gain_system,
    g_expsum,
    rational_from_float,
)
from .contour import _first_unstable_root, _newton, _rightmost_root, count_in_disk
from .polyform import _ON_CIRCLE_TOL, StabilityState, disk_terms

__all__ = [
    "CriticalSet",
    "RegionSpec",
    "StabilityVerdict",
    "SearchExhausted",
    "WitnessSearchExhausted",
    "critical_set_E",
    "critical_set_strip",
    "nearest_boundary",
    "boundary_side",
    "branch_sign_r",
    "branch_sign_at_zero",
    "second_order_at_zero",
    "branch_sign_strip",
    "unit_circle_continuation",
    "strip_continuation",
    "find_pos_neg_cos",
    "stability_region",
    "exclusion_constant",
    "clearance_height",
    "hale_two_delay",
    "crossing_state",
    "one_gain_state",
    "classify",
    "region_boundaries_bisect",
]

# classify takes an UNSTABLE witness from the companion solve while m + 2n is at most
# this plus tau/2, else from the strip scan: their costs grow with m + 2n and tau
_WITNESS_CROSSOVER = 81

# a gain c within _CROSSING_ETA * max(1, |c|) of a crossing gain c_k puts a zero on
# the circle: rounding slack on the c_k, which are exact to a few ulp.
_CROSSING_ETA = 1e-12


class SearchExhausted(ArithmeticError):
    """Bounded search found no index with the requested sign."""


class WitnessSearchExhausted(ArithmeticError):
    """No unstable root located within the scanned strips."""


@dataclass(frozen=True)
class CriticalSet:
    """Sorted critical gain values with their provenance tag."""

    values: tuple
    source: str


@dataclass(frozen=True)
class RegionSpec:
    lower: float = 0.0
    upper: float = 0.0
    empty: bool = True

    @classmethod
    def interval(cls, lower: float, upper: float) -> "RegionSpec":
        if not lower < upper:
            raise ValueError("need lower < upper")
        return cls(lower, upper, False)

    def contains(self, c: float) -> bool:
        return (not self.empty) and self.lower < c < self.upper


@dataclass(frozen=True)
class StabilityVerdict:
    state: StabilityState
    witness: Optional[complex]


def _dedup_sorted(values) -> tuple:
    out: List[float] = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > 1e-12:
            out.append(v)
    return tuple(out)


def _cos_pi(num, den: int) -> np.ndarray:
    """cos(num * pi / den) for integers ``num`` (scalar or array) and den > 0.

    The angle is reduced in integers to sin(j pi / (2 den)) with |j| <= den,
    so a zero comes out exactly 0 and a small value keeps its relative
    accuracy; cos(x) of the unreduced float angle loses both once num/den
    is large (2e-13 absolute at tau = 2000).
    """
    j = (den - 2 * np.asarray(num, dtype=np.int64)) % (4 * den)  # cos x = sin(pi/2 - x)
    j = np.where(j > 2 * den, j - 4 * den, j)
    j = np.where(j > den, 2 * den - j, np.where(j < -den, -2 * den - j, j))  # sin x = sin(pi - x)
    return np.sin(j * (np.pi / (2 * den)))


def _equal_gain_crossings(m: int, n: int) -> np.ndarray:
    """-cos(m k pi / |m-n|), k < 2|m-n|: the gains at which a root crosses
    the circle at exp(i k pi / |m-n|).  0.0 - x turns -0.0 into 0.0."""
    d = abs(m - n)
    return 0.0 - _cos_pi(m * np.arange(2 * d), d)


def critical_set_E(m: int, n: int, validate: bool = False) -> CriticalSet:
    """Gains for which the equal-gain disk polynomial has a unit-circle root.

    For coprime m != n the set is { -cos(m k pi / |m-n|) : k } together with
    0 (the circle roots at angles (2k+1)pi/(2n) all map to gain 0).  The
    values are bit for bit the crossing gains of :func:`crossing_state`.
    The set is complete: on z = e^{i theta}, Im z^{-n} P = 2c sin((m-n) theta)
    vanishes only at c = 0 or theta = k pi / |m-n|, where Re z^{-n} P = 0
    fixes c to the k-th value.  With ``validate=True`` each value is
    certified: P vanishes, to 1e-9, at its generating circle angle.
    """
    if m <= 0 or n <= 0 or math.gcd(m, n) != 1:
        raise ValueError("m, n must be coprime positive integers")
    if m == n:
        raise ValueError("tau = 1 is handled by its dedicated analysis")
    crossings = _equal_gain_crossings(m, n)
    if validate:
        # pairs (c, theta): the crossings at k pi / d, then 0 at (2k+1) pi / (2n)
        d = abs(m - n)
        k, j = np.arange(2 * d), np.arange(1, 4 * n, 2)
        c = np.concatenate([crossings, np.zeros(j.size)])
        zm = np.exp(1j * np.concatenate([_crossing_angles(m * k, d), _crossing_angles(m * j, 2 * n)]))
        z2n = np.exp(1j * np.concatenate([_crossing_angles(2 * n * k, d), _crossing_angles(n * j, n)]))
        bad = np.flatnonzero(np.abs(1.0 + 2.0 * c * zm + z2n) >= 1e-9)
        if bad.size:
            raise ValueError(f"critical value {c[bad[0]]} admits no unit-circle root")
    return CriticalSet(_dedup_sorted([0.0, *crossings.tolist()]), "E_mn")


def critical_set_strip(tau: float, a: int, b: int) -> CriticalSet:
    """Real values taken by g on the imaginary-axis segment [a*pi, b*pi].

    The counterpart of the circle set for non-rational delays, in closed
    form: g(i beta) = -e^{i (tau-1) beta} cos(beta), so Im g vanishes at
    beta = k pi / (tau-1), where g = -(-1)^k cos(k pi / (tau-1)), and at
    beta = (j + 1/2) pi, where g = 0.  At tau = 1, g is real along the
    whole axis and ValueError is raised.
    """
    if tau == 1.0:
        raise ValueError("tau = 1: g is real along the whole imaginary axis")
    d = tau - 1.0
    lo, hi = sorted((a, b))
    k0, k1 = sorted((lo * d, hi * d))
    ks = range(math.ceil(k0), math.floor(k1) + 1)
    vals = [(2 * (k % 2) - 1) * math.cos(k * math.pi / d) for k in ks]
    if math.ceil(lo - 0.5) <= hi - 0.5:
        vals.append(0.0)
    return CriticalSet(_dedup_sorted(vals), "C_ab")


def nearest_boundary(m: int) -> float:
    """Magnitude of the nonzero critical gain closest to 0 (n = 1, even m).

    The signed side is given by :func:`boundary_side`: the stability window
    sits on the negative side for m = 4s - 2 and the positive side for
    m = 4s.
    """
    if m < 2 or m % 2:
        raise ValueError("even m >= 2 required")
    return math.sin(math.pi / (2 * (m - 1)))


def boundary_side(m: int) -> int:
    if m < 2 or m % 2:
        raise ValueError("even m >= 2 required")
    return -1 if m % 4 == 2 else 1


def _critical_member(c_star: float, m: int, n: int) -> None:
    cs = critical_set_E(m, n)
    if min(abs(c_star - v) for v in cs.values) > 1e-9:
        raise ValueError(f"{c_star} is not a critical gain for (m, n) = ({m}, {n})")


def branch_sign_r(c_star: float, m: int, n: int) -> int:
    """Sign of d|z|/dc for the circle root branch through a critical gain.

    Equals Sgn(n - m) * Sgn(c_star) for every nonzero critical gain; the
    zero-gain branches are covered by :func:`branch_sign_at_zero`.
    """
    if c_star == 0.0:
        raise ValueError("use branch_sign_at_zero for the c = 0 branches")
    _critical_member(c_star, m, n)
    return int(np.sign(n - m) * np.sign(c_star))


def branch_sign_at_zero(k: int, m: int, n: int) -> int:
    """Sign of d|z_k|/dc at c = 0 for the branch through exp(i(2k+1)pi/(2n)).

    Equals Sgn cos(m(2k+1)pi/(2n)); evaluated by exact integer reduction of
    the angle so that the zero cases (n = 1 with odd m, where the branch is
    decided at second order) come out exactly 0.
    """
    if not 0 <= k <= 2 * n - 1:
        raise ValueError("k out of range")
    r = (m * (2 * k + 1)) % (4 * n)
    if r == n or r == 3 * n:
        return 0
    return 1 if (r < n or r > 3 * n) else -1


def second_order_at_zero(k: int, m: int) -> float:
    """Second derivative of the branch modulus at c = 0 for n = 1, odd m.

    The first derivative vanishes there; the curvature is
    theta'(0)^2 - (2m - 1) = 2 - 2m < 0, so both branches dip inside the
    disk for either sign of c.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("odd m >= 3 required")
    if k not in (0, 1):
        raise ValueError("n = 1 has branches k = 0, 1")
    return 2.0 - 2.0 * m


def branch_sign_strip(c_star: float, tau: float) -> int:
    """Sign of d(Re lam)/dc for the axis root branch at a critical gain.

    Equals Sgn(tau - 1) * Sgn(c_star) for c_star != 0 (pure arithmetic in
    the gain and delay; meaningful on the critical set of g).
    """
    if c_star == 0.0:
        raise ValueError("c_star must be nonzero")
    return int(np.sign(tau - 1.0) * np.sign(c_star))


def unit_circle_continuation(m: int, n: int, c_star: float, dc: float = 1e-5) -> Tuple[float, float]:
    """Track a unit-circle root of the equal-gain disk polynomial
    1 + 2c z^m + z^(2n) to c_star -+ dc.

    Newton starts from the exact circle zero e^{i |theta|} that
    :func:`crossing_state` finds at ``c_star`` (the one of least |theta|, in
    the upper half-plane); a gain with no circle zero raises ValueError.
    Returns (|z(c_star - dc)|, |z(c_star + dc)|); the ordering of the two
    moduli is the continuation check for :func:`branch_sign_r`.
    """
    theta = _crossings(CharKind.CASCADE_EQUAL_GAINS, m, n, c_star)[1]
    if theta is None:
        raise ValueError(f"{c_star} puts no zero of the disk polynomial on the unit circle")

    def track(c):
        def fd(z):
            return 1 + 2 * c * z**m + z ** (2 * n), 2 * c * m * z ** (m - 1) + 2 * n * z ** (2 * n - 1)

        return abs(_newton(fd, np.exp(1j * abs(theta)), 50))

    return track(c_star - dc), track(c_star + dc)


def strip_continuation(tau: float, c_star: float, beta0: float, dc: float = 1e-5) -> Tuple[float, float]:
    """Track the axis root lam = i*beta0 of g(lam) = c_star to c_star -+ dc.

    Returns (Re lam(c_star - dc), Re lam(c_star + dc)).
    """
    lo, hi = (_newton(g_expsum(tau, c).with_slope, 1j * beta0, 50) for c in (c_star - dc, c_star + dc))
    return lo.real, hi.real


def find_pos_neg_cos(tau: float, bound: int) -> Tuple[int, int]:
    """Smallest-|index| integers (j, l) with cos(tau (j+1/2) pi) > 0 and < 0.

    Scans |k| <= bound in the order 0, 1, -1, 2, -2, ...; values within
    1e-9 of zero count for neither sign.  Raises :class:`SearchExhausted`
    when either sign is missing within the bound (degenerate delays such as
    even integers produce a single sign for every index).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    j = l = None
    order = [0]
    for k in range(1, bound + 1):
        order += [k, -k]
    for k in order:
        v = math.cos(tau * (k + 0.5) * math.pi)
        if v > 1e-9 and j is None:
            j = k
        elif v < -1e-9 and l is None:
            l = k
        if j is not None and l is not None:
            return j, l
    missing = "positive" if j is None else "negative"
    raise SearchExhausted(f"no index with {missing} cosine within |k| <= {bound}")


def _even_integer(tau: float) -> Optional[int]:
    t = round(tau)
    if abs(tau - t) <= 1e-12 and t >= 2 and t % 2 == 0:
        return int(t)
    return None


def stability_region(tau: float, kind: CharKind) -> RegionSpec:
    """Closed-form stability window for the gain, empty when none exists.

    Equal gains: (-sin(pi/(2(tau-1))), 0) for tau = 4l - 2 and
    (0, sin(pi/(2(tau-1)))) for tau = 4l.  Direct delayed feedback:
    (-tan(pi/(2 tau)), 0) and (0, tan(pi/(2 tau))) on the same split.
    Every other delay (tau < 1, odd or non-integer rational, irrational)
    has an empty window.
    """
    t = _even_integer(tau)
    if t is None:
        return RegionSpec()
    if kind is CharKind.CASCADE_EQUAL_GAINS:
        w = math.sin(math.pi / (2 * (t - 1)))
    else:
        w = math.tan(math.pi / (2 * t))
    if t % 4 == 2:
        return RegionSpec.interval(-w, 0.0)
    return RegionSpec.interval(0.0, w)


def exclusion_constant(base: int, c: float) -> Optional[float]:
    """C1 of the delay-perturbation bounds: at tau = base + eps, eps != 0, the
    equal-gain loop with gain ``c`` has no root with Re lam >= 0 and
    |Im lam| < C1/|eps|.  C1 = pi/2 at base 0 with c > 0, and (1 - c~) pi/2
    at base 2l with c in its window and |c| = sin(c~ pi / (2(2l - 1))); None
    when ``c`` does not stabilise the delay ``base``."""
    if base == 0:
        return math.pi / 2.0 if c > 0 else None
    if not stability_region(float(base), CharKind.CASCADE_EQUAL_GAINS).contains(c):
        return None
    return (1.0 - (2 * (base - 1) / math.pi) * math.asin(abs(c))) * math.pi / 2.0


def clearance_height(sys: DelaySystem, x: float) -> float:
    """H*: no root with Re lam in [0, x] has |Im lam| < H*, for equal gains c at
    tau = b + eps, b = 2l the nearest even delay and eps = tau - b as ``sys``
    holds them; inf at eps = 0, 0.0 for unequal gains or a c not stabilising b.

    With z = e^{-lam} and phi = e^{-eps lam}, f(lam) = 0 iff Q = 1 + z^2 +
    2c phi z^b = 0.  Q has a zero z^2 = e^{i theta} on |z| = 1 only at phi =
    Gamma(theta) = -(1 + e^{i theta}) e^{-i l theta}/(2c), of modulus
    cos(theta/2)/|c| and argument (1/2 - l) theta (+ pi if c > 0), odd in theta.
    A root in [0, x] x [0, H] has |z| <= 1 and phi in the connected sector of
    |phi| between 1 and e^{-eps x} and arg phi between 0 and -eps H.  At phi = 1
    Q has no zero in the closed disk (c stabilises b), and one enters only on
    Gamma: H* = t/|eps| for the least t >= 0 that, up to sign and mod 2 pi,
    is an argument of Gamma at a modulus in that range.
    """
    base = 2 * round(sys.tau / 2)
    eps, c = sys.tau - base, sys.c2
    if sys.c1 != c or exclusion_constant(base, c) is None:
        return 0.0
    if eps == 0.0:
        return math.inf
    th = (math.acos(math.exp(min(0.0, math.log(abs(c)) + r))) for r in (0.0, -eps * x))  # theta/2 at |phi| = e^r
    lo, hi = sorted((1 - base) * h + (math.pi if c > 0 else 0.0) for h in th)
    return min(max(0.0, a + 2 * math.pi * math.ceil(-b / (2 * math.pi))) for a, b in ((lo, hi), (-hi, -lo))) / abs(eps)


def hale_two_delay(a1: float, a2: float, a3: float) -> bool:
    """Two-delay stability test for 1 = a1 e^{-r1 lam} + a2 e^{-r2 lam} + a3 e^{-(r1+r2) lam}.

    For rationally independent positive delays all roots lie in the open
    left half-plane iff 1 + a1 > |a2 + a3| and 1 - a1 > |a2 - a3|.
    """
    return (1.0 + a1 > abs(a2 + a3)) and (1.0 - a1 > abs(a2 - a3))


@dataclass(frozen=True)
class _Crossings:
    """The crossing count of one (kind, m, n) as a step function of the gain.

    On the circle z = e^{i theta} write z^{-n} P = R + i c I with R, I real
    and c the gain.  At each sign change theta_k of I, R has the sign of
    side_k (c - g_k), and where R < 0 the curve crosses the negative real
    axis, adding sgn(c) turn_k to the winding.  With the g_k sorted, the
    crossings with side -1 before a gap and those with side +1 after it
    are the ones that count there, so the disk holds n + sgn(c) winding[i]
    zeros on the open gap just below gains[i] (winding[-1]: above them all).
    """

    gains: memoryview  # g_k, ascending
    theta: memoryview  # theta_k in (-pi, pi], in the same order
    winding: memoryview  # n + sgn(c) winding[i] zeros inside below gains[i]; one entry more


def _crossing_angles(num: np.ndarray, den: int) -> np.ndarray:
    """num pi / den for integers ``num``, reduced to (-pi, pi]."""
    r = num % (2 * den)
    return np.where(r > den, r - 2 * den, r) * (np.pi / den)


def _frozen(values: np.ndarray) -> memoryview:
    """A read-only view whose items index as Python scalars, so that the
    ``bisect`` module searches it fast, at 8 bytes an item."""
    values = np.ascontiguousarray(values)
    values.flags.writeable = False
    return memoryview(values)


@functools.lru_cache(maxsize=256)
def _crossing_table(kind: CharKind, m: int, n: int) -> _Crossings:
    if kind is CharKind.CASCADE_EQUAL_GAINS:
        # R = 2cos(n th) + 2c cos((m-n) th), I = 2 sin((m-n) th): simple zeros at k pi / d
        d = abs(m - n)
        k = np.arange(2 * d)
        side = 1 - 2 * (k % 2)
        gains, turn, theta, fixed = _equal_gain_crossings(m, n), -np.sign(m - n) * side, _crossing_angles(k, d), 0
    else:
        # R = 2cos(n th) + 2k sin(n th) sin(m th), I = -2 sin(n th) cos(m th); where
        # sin(n th) = cos(m th) = 0 the zero of I is double and adds nothing
        j = np.arange(1, 2 * n, 2)  # sin(n th) = 0 with R = -2: the odd j of j pi / n
        fixed = -int(np.sign(_cos_pi(m * j, n)).sum())
        a = n * np.arange(1, 4 * m, 2)  # cos(m th) = 0 at th = (2i+1) pi / (2m); n th = a pi / (2m)
        a = a[a % (2 * m) != 0]
        sin_a, cos_a = _cos_pi(m - a, 2 * m), _cos_pi(a, 2 * m)
        alt = 1 - 2 * ((a // n // 2) % 2)  # (-1)^i = sin(m th)
        side = alt * np.sign(sin_a).astype(int)
        gains, turn, theta = 0.0 - alt * cos_a / sin_a, -side, _crossing_angles(a // n, 2 * m)
    order = np.argsort(gains, kind="stable")
    gains, side, turn, theta = gains[order], side[order], turn[order], theta[order]
    # the turns with side -1 below each gap plus those with side +1 above it
    below = np.cumsum(np.where(side < 0, turn, 0), dtype=np.int64)
    above = np.cumsum(np.where(side > 0, turn, 0)[::-1], dtype=np.int64)[::-1]
    winding = fixed + np.concatenate([[0], below]) + np.concatenate([above, [0]])
    return _Crossings(_frozen(gains), _frozen(theta), _frozen(winding))


def _crossings(kind: CharKind, m: int, n: int, c: float) -> Tuple[int, Optional[float]]:
    """(zeros strictly inside, least-|theta| circle zero or None); see :func:`crossing_state`."""
    if kind is CharKind.CASCADE_EQUAL_GAINS and m == n:
        # tau = 1: 1 + 2c z + z^2, both zeros on the circle iff |c| <= 1, else one inside
        if abs(c) <= 1.0 + _CROSSING_ETA:
            return 0, math.acos(min(1.0, max(-1.0, -c)))
        return 1, None
    if abs(c) <= _CROSSING_ETA:
        # P = z^(2n) + 1: every zero near the circle, the nearest to 1 at pi / (2n)
        return 0, math.pi / (2 * n)
    t = _crossing_table(kind, m, n)
    s = 1 if c > 0 else -1
    band = _CROSSING_ETA * max(1.0, abs(c))
    lo, hi = bisect.bisect_left(t.gains, c - band), bisect.bisect_right(t.gains, c + band)
    # gains lo..hi-1 each put one zero on the circle, inside the disk on exactly
    # one side of its gain, so the counts on the gaps either side add up to
    # twice the count at c plus hi - lo (with no such gain, both are one gap)
    inside = n + (s * (t.winding[lo] + t.winding[hi]) - (hi - lo)) // 2
    return inside, min(t.theta[lo:hi], key=abs) if hi > lo else None


def crossing_state(kind: CharKind, m: int, n: int, c: float) -> Tuple[int, bool]:
    """(zeros strictly inside the unit disk, whether a zero is on the circle)
    of the disk polynomial of a one-gain loop with gain ``c`` at tau = m/n.

    Exact crossing count: with z^{-n} P = R + iI on z = e^{i theta}, the
    zeros inside are n + sum over the sign changes theta_k of I with
    R(theta_k) < 0 of -sgn I'(theta_k).  The theta_k are rational multiples
    of pi, so R(theta_k) changes sign at gains known in closed form (for
    equal gains the values of :func:`critical_set_E`); a zero is on the
    circle when ``c`` lies within ``_CROSSING_ETA`` * max(1, |c|) of one.
    The gains and the winding on every gap between them are built once per
    (kind, m, n) in O((m + n) log(m + n)); a query is two binary searches,
    with no roots and no degree cap.  A non-finite gain, or (m, n) that are
    not coprime positive integers, raise ValueError.
    """
    if not math.isfinite(c) or m <= 0 or n <= 0 or math.gcd(m, n) != 1:
        raise ValueError(f"need a finite gain and coprime positive m, n; got c={c}, m={m}, n={n}")
    inside, theta = _crossings(kind, m, n, c)
    return inside, theta is not None


def one_gain_state(kind: CharKind, m: int, n: int, c: float) -> StabilityState:
    """The state :func:`classify` gives a one-gain loop, without its witness."""
    inside, on = crossing_state(kind, m, n, c)
    if inside:
        return StabilityState.UNSTABLE
    return StabilityState.MARGINAL if on else StabilityState.STABLE


def _rational_system(sys: DelaySystem) -> DelaySystem:
    if sys.tau_rational is not None:
        return sys
    rat = rational_from_float(sys.tau)
    if rat is None:
        warnings.warn(
            "tau has no small-denominator rational form; treat it as irrational "
            "explicitly or supply tau_rational",
            stacklevel=3,
        )
        raise ValueError("cannot classify: tau not reducible to a small rational")
    return replace(sys, tau=rat.value, tau_rational=rat)


def classify(sys: DelaySystem, treat_as_irrational: bool = False) -> StabilityVerdict:
    """Three-way stability verdict with an explicit unstable/marginal witness.

    The state is a count of the zeros of the disk polynomial P of tau = m/n,
    chosen by the gains (a witness is polished on ``chareq.char_expsum``,
    one formula for every gain pair): :func:`crossing_state` for c1 = c2 or
    c1 = 0, else two windings of ``contour.count_in_disk``, on P(r z) at
    r = e^{-+tol/n} with tol = ``_ON_CIRCLE_TOL``: zeros inside the inner
    circle (roots with Re lam > tol) make the loop UNSTABLE, zeros only
    between the two (|Re lam| <= tol) MARGINAL.  The witness of a one-gain MARGINAL loop is
    its exact circle zero; that of an UNSTABLE loop of reduced degree
    m + 2n up to ``_WITNESS_CROSSOVER`` + tau/2 is
    ``contour._rightmost_root`` (lam = -n log z of the companion root z of
    least modulus, polished).  Any other is the lowest-frequency root of
    the strip scan ``contour._first_unstable_root``, not always the
    rightmost (``spectral_abscissa`` is): Re lam >= -1e-8 when MARGINAL, and
    when UNSTABLE >= 0, or >= tol/2 past the axis roots of a zero the count
    saw on the circle.  A scan that finds none raises
    :class:`WitnessSearchExhausted`.  With ``treat_as_irrational`` the
    verdict is UNSTABLE, as the two-delay criterion (:func:`hale_two_delay`)
    fails at every finite gain (its 1 + a1 > |a2 + a3| reads 0 > |a2 + a3|),
    and the witness is the scan's root up to 64 pi above 2 C1/|eps|, with
    C1 from :func:`exclusion_constant` for equal gains at eps from a delay
    they stabilise (at base 0 a root lies below 2 C1/|eps| + 2 pi), else 0.
    Every scan, rational delay or not, starts one to two steps below
    :func:`clearance_height`, 0 unless equal gains stabilise the nearest
    even delay: then it winds a few steps at any distance from that delay.
    """
    equal = sys.c1 == sys.c2
    if treat_as_irrational:
        base = 2 * round(sys.tau / 2)
        C1 = exclusion_constant(base, sys.c2) if equal else None
        low = C1 / abs(sys.tau - base) if C1 and sys.tau != base else 0.0
        lam, top = _first_unstable_root(sys, 2 * low + 64 * np.pi, -1e-8)
        if lam is None:
            raise WitnessSearchExhausted(f"no unstable root with |Im lam| below {top:.6g}")
        return StabilityVerdict(StabilityState.UNSTABLE, lam)
    rsys = _rational_system(sys)
    m, n = rsys.tau_rational.num, rsys.tau_rational.den
    theta = None
    if equal or sys.c1 == 0.0:
        inside, theta = _crossings(CharKind.CASCADE_EQUAL_GAINS if equal else CharKind.DIRECT_DELAY_FEEDBACK, m, n, rsys.c2)
        on = theta is not None
    else:
        # zeros of P(r z) in the disk at r = e^{-+tol/n}: the roots lam = -n log z with Re lam > +-tol
        radii = (math.exp(-_ON_CIRCLE_TOL / n), math.exp(_ON_CIRCLE_TOL / n))
        inside, within = (count_in_disk({k: a * r**k for k, a in disk_terms(rsys).items()}) for r in radii)
        on = within > inside
    if not (inside or on):
        return StabilityVerdict(StabilityState.STABLE, None)
    if not inside and theta is not None:
        # the exact circle zero e^{i theta}: lam = -n log z = -i n theta
        lam = _newton(char_expsum(rsys).with_slope, complex(0.0, -n * theta), 4)
    elif inside and m + 2 * n <= _WITNESS_CROSSOVER + m / (2 * n):
        lam = _rightmost_root(rsys)
    else:
        # an UNSTABLE witness clears the roots on the axis, there only if the count saw one
        lam = _first_unstable_root(rsys, math.inf, -1e-8 if not inside else _ON_CIRCLE_TOL / 2 if on else 0.0)[0]
        if lam is None:
            raise WitnessSearchExhausted(f"the disk polynomial of {m}/{n} has a zero the strip scan did not find")
    return StabilityVerdict(StabilityState.UNSTABLE if inside else StabilityState.MARGINAL, lam)


def region_boundaries_bisect(
    tau: float,
    kind: CharKind,
    tau_rational=None,
) -> Optional[Tuple[float, float]]:
    """Oracle-backed region endpoints, read exactly off the crossing table.

    The count of :func:`crossing_state` is constant on each open gap between
    consecutive crossing gains, and the gap that holds 0 is split there, as
    the sign of c flips.  Returns (lower, upper) of the gap on which the
    count is 0, or None when there is none; it vanishes on one gap at most.
    Independent of the closed-form window, which it is used to cross-check:
    no polynomial, roots, witness or degree cap.  At tau = 1 equal gains put
    a zero on the circle for |c| <= 1 and one inside beyond: no window.
    """
    # tau must reduce to m/n; without one this raises as classify does
    rat = _rational_system(equal_gain_system(0.0, tau, tau_rational)).tau_rational
    m, n = rat.num, rat.den
    if kind is CharKind.CASCADE_EQUAL_GAINS and m == n:
        return None
    t = _crossing_table(kind, m, n)
    ends = np.concatenate([[-np.inf], np.sort(np.append(t.gains, 0.0)), [np.inf]])
    lo, hi = ends[:-1], ends[1:]
    i = np.searchsorted(t.gains, lo, side="right")
    s = np.where(lo < 0.0, -1, 1)
    count = n + s * np.asarray(t.winding)[i]
    stable = np.flatnonzero((count == 0) & (lo < hi))
    if not stable.size:
        return None
    return float(lo[stable[0]]), float(hi[stable[0]])
