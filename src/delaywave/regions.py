"""Critical gain sets, branch derivative signs, closed-form stability regions.

The gain values at which a root of the disk polynomial sits exactly on the
unit circle (or, in the strip picture, a root of g(lam) = c sits on the
imaginary axis) are the only places the count of destabilising roots can
jump.  This module enumerates those critical sets, gives the sign of the
root-modulus (or real-part) derivative across them, and assembles the
closed-form stability regions together with the master classifier.

Two oracles answer two questions.  :func:`classify` gives the three-way
state with a witness, so it needs the roots: a companion solve of the disk
polynomial, capped at degree ``_MAX_REDUCED_DEGREE``.  The bisection in
:func:`region_boundaries_bisect` needs only stable or not: below degree
``_WINDING_MIN_DEGREE`` the companion solve answers, from there up a disk
count by winding, O(terms) per sample and without a degree cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .chareq import (
    CharKind,
    DelaySystem,
    Rational,
    char_expsum,
    direct_feedback_system,
    equal_gain_system,
    g_expsum,
    rational_from_float,
)
from .contour import OnContourZero, _first_unstable_root, _newton, count_in_disk
from .polyform import PolyReal, StabilityState, reduce_to_polynomial, stability_from_poly

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
    "hale_two_delay",
    "classify",
    "region_boundaries_bisect",
]

# reduced disk polynomials beyond this degree are refused (companion solve cost)
_MAX_REDUCED_DEGREE = 2500

# from this degree up the stable-or-not question is answered by a disk count,
# below it by the companion solve, which is then the faster of the two
_WINDING_MIN_DEGREE = 64

# roots with |z| < 1 + _DISK_BAND are on or inside the disk (disk_roots' tolerance)
_DISK_BAND = 1e-9


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


def _dedup_sorted(values, tol=1e-12) -> tuple:
    out: List[float] = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return tuple(out)


def critical_set_E(m: int, n: int, validate: bool = False) -> CriticalSet:
    """Gains for which the equal-gain disk polynomial has a unit-circle root.

    For coprime m != n the set is { -cos(m k pi / |m-n|) : k } together with
    0 (the circle roots at angles (2k+1)pi/(2n) all map to gain 0).  With
    ``validate=True`` each value is certified to admit a unit-circle root
    and a fine angular scan checks that no value is missing.
    """
    if m <= 0 or n <= 0 or math.gcd(m, n) != 1:
        raise ValueError("m, n must be coprime positive integers")
    if m == n:
        raise ValueError("tau = 1 is handled by its dedicated analysis")
    d = abs(m - n)
    vals = [0.0] + [-math.cos(m * k * math.pi / d) for k in range(2 * d)]
    values = _dedup_sorted(vals)
    cs = CriticalSet(values, "E_mn")
    if validate:
        _validate_critical_set(cs, m, n)
    return cs


def _disk_poly(m: int, n: int, c: float) -> PolyReal:
    """Equal-gain disk polynomial 1 + 2c z^m + z^(2n) for tau = m/n."""
    return reduce_to_polynomial(equal_gain_system(c, m / n, Rational(m, n)))


def _sign_change_zeros(f, x) -> List[float]:
    """Zeros of ``f`` at its sign changes on the grid ``x``, bisected 80 times."""
    s = np.sign(f(x))
    out: List[float] = []
    for i in np.flatnonzero(s[:-1] * s[1:] < 0):
        a, b = x[i], x[i + 1]
        fa = f(a)
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        out.append(0.5 * (a + b))
    return out


def _validate_critical_set(cs: CriticalSet, m: int, n: int) -> None:
    # certify: each value vanishes at its generating circle angle
    d = abs(m - n)
    pairs = [(-math.cos(m * k * math.pi / d), k * math.pi / d) for k in range(2 * d)]
    pairs += [(0.0, (2 * k + 1) * math.pi / (2 * n)) for k in range(2 * n)]
    for v, th in pairs:
        if abs(_disk_poly(m, n, v)(np.exp(1j * th))) >= 1e-9:
            raise ValueError(f"critical value {v} admits no unit-circle root")
    # completeness: real-gain circle crossings solve Im condition
    theta = np.linspace(0.0, 2.0 * np.pi, 40001)
    for th0 in _sign_change_zeros(lambda th: np.sin((2 * n - m) * th) - np.sin(m * th), theta):
        cval = -math.cos(n * th0) * math.cos((n - m) * th0)
        if min(abs(cval - v) for v in cs.values) > 1e-8:
            raise ValueError(f"scan found extra critical value {cval}")


def critical_set_strip(tau: float, a: int, b: int, grid: int = 40001) -> CriticalSet:
    """Real values taken by g on the imaginary-axis segment [a*pi, b*pi].

    Numeric counterpart of the circle set for non-rational delays: sign
    changes of Im g(i beta) are bisected and the corresponding Re g
    collected.
    """
    beta = np.linspace(a * np.pi, b * np.pi, grid)
    zeros = _sign_change_zeros(lambda x: -0.5 * (np.sin(tau * x) + np.sin((tau - 2.0) * x)), beta)
    vals = [-0.5 * (math.cos(tau * b0) + math.cos((tau - 2.0) * b0)) for b0 in zeros]
    return CriticalSet(_dedup_sorted(vals, 1e-9), "C_ab_numeric")


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
    """Track a unit-circle root of the disk polynomial to c_star -+ dc.

    Returns (|z(c_star - dc)|, |z(c_star + dc)|); the ordering of the two
    modulis is the continuation check for :func:`branch_sign_r`.
    """

    upper = [z for z in np.roots(_disk_poly(m, n, c_star).coeffs[::-1]) if z.imag >= -1e-12]
    z0 = min(upper, key=lambda z: abs(abs(z) - 1.0))

    def track(c):
        p = _disk_poly(m, n, c)
        return abs(_newton(p, PolyReal.from_coeffs(p.derivative_coeffs()), z0, 50))

    return track(c_star - dc), track(c_star + dc)


def strip_continuation(tau: float, c_star: float, beta0: float, dc: float = 1e-5) -> Tuple[float, float]:
    """Track the axis root lam = i*beta0 of g(lam) = c_star to c_star -+ dc.

    Returns (Re lam(c_star - dc), Re lam(c_star + dc)).
    """
    dg = g_expsum(tau).derivative()
    lo, hi = (_newton(g_expsum(tau, c), dg, 1j * beta0, 50) for c in (c_star - dc, c_star + dc))
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


def _even_integer(tau: float, tol: float = 1e-12) -> Optional[int]:
    t = round(tau)
    if abs(tau - t) <= tol and t >= 2 and t % 2 == 0:
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
    if kind is CharKind.CASCADE_FULL:
        raise ValueError("closed-form regions exist for the one-gain variants only")
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


def hale_two_delay(a1: float, a2: float, a3: float) -> bool:
    """Two-delay stability test for 1 = a1 e^{-r1 lam} + a2 e^{-r2 lam} + a3 e^{-(r1+r2) lam}.

    For rationally independent positive delays all roots lie in the open
    left half-plane iff 1 + a1 > |a2 + a3| and 1 - a1 > |a2 - a3|.
    """
    return (1.0 + a1 > abs(a2 + a3)) and (1.0 - a1 > abs(a2 - a3))


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

    Rational delays go through the disk-polynomial oracle; the witness is a
    located root mapped back by lam = -n log z and Newton-polished.  With
    ``treat_as_irrational`` the two-delay criterion applies (it always fails
    for this family: the e^{-2 lam} coefficient is -1), and the witness is
    produced by a winding scan over strips of height pi.
    """
    if treat_as_irrational:
        a1 = -1.0
        a2 = -(sys.c1 + sys.c2)
        a3 = -(sys.c1 - sys.c2)
        if hale_two_delay(a1, a2, a3):
            return StabilityVerdict(StabilityState.STABLE, None)
        lam = _first_unstable_root(sys, 64 * np.pi)
        if lam is None:
            raise WitnessSearchExhausted("no unstable root in the first 64 strips")
        return StabilityVerdict(StabilityState.UNSTABLE, lam)
    rsys = _rational_system(sys)
    m, n = rsys.tau_rational.num, rsys.tau_rational.den
    if m + 2 * n > _MAX_REDUCED_DEGREE:
        raise ValueError(
            f"reduced polynomial degree {m + 2 * n} exceeds {_MAX_REDUCED_DEGREE}; "
            "use a coarser rational delay or the irrational path"
        )
    ps = stability_from_poly(reduce_to_polynomial(rsys))
    if ps.state is StabilityState.STABLE:
        return StabilityVerdict(StabilityState.STABLE, None)
    roots = np.asarray(ps.report.roots)
    if ps.state is StabilityState.UNSTABLE:
        z = roots[np.argmin(np.abs(roots))]
    else:
        on = roots[np.abs(np.abs(roots) - 1.0) < 1e-9]
        z = on[np.argmin(np.abs(np.angle(on)))]
    f = char_expsum(rsys)
    return StabilityVerdict(ps.state, _newton(f, f.derivative(), -n * np.log(complex(z)), 4))


def _disk_stable(p: PolyReal) -> bool:
    """True iff ``p`` has no zero with |z| <= 1 + 1e-9, the STABLE verdict.

    Below degree ``_WINDING_MIN_DEGREE`` the companion oracle answers; from
    there up the zeros of p(rho z), rho = 1 + 1e-9, are counted in the unit
    disk by winding.  A contour contact puts a zero within rounding of the
    band edge and counts as not stable.
    """
    if p.degree < _WINDING_MIN_DEGREE:
        return stability_from_poly(p, _DISK_BAND).state is StabilityState.STABLE
    a = np.asarray(p.coeffs)
    scaled = PolyReal.from_coeffs(a * (1.0 + _DISK_BAND) ** np.arange(a.size))
    try:
        return count_in_disk(scaled) == 0
    except OnContourZero:
        return False


def region_boundaries_bisect(
    tau: float,
    kind: CharKind,
    tol: float = 1e-7,
    scan: Tuple[float, float, float] = (-3.0, 3.0, 0.05),
    tau_rational=None,
) -> Optional[Tuple[float, float]]:
    """Oracle-backed region endpoints: bisect the stable-or-not verdict over the gain.

    Returns (lower, upper) to within ``tol``, or None when no stable gain is
    found on the scan grid.  Independent of the closed-form window, which it
    is used to cross-check.  Each step asks only whether the disk polynomial
    is stable (:func:`_disk_stable`): no roots, witness or degree cap.
    """
    system = equal_gain_system if kind is CharKind.CASCADE_EQUAL_GAINS else direct_feedback_system
    # tau must reduce to m/n; without one this raises as classify does
    rat = _rational_system(system(0.0, tau, tau_rational)).tau_rational

    def stable(c: float) -> bool:
        return _disk_stable(reduce_to_polynomial(system(c, tau, rat)))

    closed = stability_region(tau, kind)
    c0 = None
    if not closed.empty:
        c0 = 0.5 * (closed.lower + closed.upper)
        if not stable(c0):
            c0 = None
    if c0 is None:
        lo, hi, step = scan
        for c in np.arange(lo, hi + 0.5 * step, step):
            if stable(float(c)):
                c0 = float(c)
                break
    if c0 is None:
        return None

    def expand(direction: float) -> float:
        step = 0.25
        c = c0 + direction * step
        for _ in range(64):
            if not stable(c):
                return c
            c += direction * step
            step *= 1.5
        raise ArithmeticError("no unstable gain found while expanding")

    def bisect(inside: float, outside: float) -> float:
        while abs(outside - inside) > tol:
            mid = 0.5 * (inside + outside)
            if stable(mid):
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    lower = bisect(c0, expand(-1.0))
    upper = bisect(c0, expand(+1.0))
    return lower, upper
