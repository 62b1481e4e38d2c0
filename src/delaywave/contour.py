"""Argument-principle counting, root isolation and refinement in the lam-plane.

Every winding number comes from one argument tracker over a closed path
t in [0, 1] -> z: the four edges of a rectangle, a quarter of t each, or
the unit circle exp(2 pi i t).  Steps that turn by pi/2 or more are cut, at
their midpoint and where their chord passes closest to 0, until none is left,
which pins the branch of the argument; a zero on the path is met within a
few passes.  The count is repeated at doubled initial density until two
rounds agree; each doubling round reuses the uniform samples of the round
before and evaluates only the midpoints between them.  Since the tracked
functions are analytic, the winding equals the number of enclosed zeros
counted with multiplicity.  A contour that touches a zero raises
:class:`OnContourZero`; a rectangle the caller may move is dilated with
jitter and retried under one policy, ``_winding_with_retries``.

Double roots are certified structurally rather than by ever-finer bisection:
principal-value tracking cannot see the full 2*pi swing of a quadratic dip
that sits close to an edge, so a winding-2 box first tries Newton on the
derivative and accepts a multiplicity-2 root when the residual puts the
would-be pair closer than double precision can separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .chareq import CharKind, DelaySystem, ExpSum, char_expsum, g_expsum
from .polyform import disk_roots, reduce_to_polynomial

__all__ = [
    "ComplexRect",
    "RootRecord",
    "OnContourZero",
    "MaxDepthExceeded",
    "MultiplicityCapExceeded",
    "winding_rect",
    "count_in_disk",
    "count_in_strip",
    "isolate_and_refine",
    "spectral_abscissa",
    "min_unstable_imag",
    "re_bound",
    "NO_ROOTS",
]

NO_ROOTS = float("-inf")


class OnContourZero(ArithmeticError):
    """The contour passes through (or too close to) a zero; perturb and retry."""


class MaxDepthExceeded(ArithmeticError):
    """Rectangle bisection exceeded its depth cap (root cluster or contact)."""


class MultiplicityCapExceeded(ArithmeticError):
    """A maximally refined box still holds winding > 2.

    Characteristic roots of the cascade have multiplicity at most two; this
    error fires instead of silently trusting that bound.
    """


@dataclass(frozen=True)
class ComplexRect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate rectangle")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def diag(self) -> float:
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    def dilated(self, d: float) -> "ComplexRect":
        return ComplexRect(self.re_min - d, self.re_max + d, self.im_min - d, self.im_max + d)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )


@dataclass(frozen=True)
class RootRecord:
    lam: complex
    residual: float
    multiplicity: int


def _track(func, path, t, w, zero_tol, max_pass=60) -> float:
    """Total change of arg func along ``path(t)``, t from 0 to 1.

    Starts from the samples ``w = func(path(t))`` at the sorted parameters
    ``t``.  A step that turns by less than pi/2 is settled and its turn
    added to the total; only the unsettled steps are carried on.  Each pass
    cuts every one of them at its midpoint, which keeps bisection's
    progress, and at the point where the chord from its end values passes
    closest to 0, all in one ``func`` call, and inspects only the new
    sub-steps.  The chord point converges on a zero on the path within a
    few passes; from a zero just off the path it falls at the foot of the
    perpendicular, where |func| is as large as the distance allows.  Every
    new sample is tested for contact.
    """
    _contact(w, zero_tol)
    dphi = np.angle(w[1:] / w[:-1])
    bad = np.abs(dphi) >= 0.5 * np.pi
    total = dphi[~bad].sum()
    ta, tb, wa, wb = t[:-1][bad], t[1:][bad], w[:-1][bad], w[1:][bad]
    for _ in range(max_pass):
        if not ta.size:
            return float(total)
        tm, tc = 0.5 * (ta + tb), np.minimum(ta + _chord_cut(wa, wb) * (tb - ta), tb)
        t1, t2 = np.minimum(tm, tc), np.maximum(tm, tc)
        wn = func(path(np.concatenate((t1, t2))))
        _contact(wn, zero_tol)
        w1, w2 = wn[:ta.size], wn[ta.size:]
        ta, tb = np.concatenate((ta, t1, t2)), np.concatenate((t1, t2, tb))
        wa, wb = np.concatenate((wa, w1, w2)), np.concatenate((w1, w2, wb))
        dphi = np.angle(wb / wa)
        bad = np.abs(dphi) >= 0.5 * np.pi
        total += dphi[~bad].sum()
        ta, tb, wa, wb = ta[bad], tb[bad], wa[bad], wb[bad]
    raise OnContourZero("argument tracking did not settle (zero very near contour)")


def _chord_cut(wa, wb):
    """Fraction s in [0, 1] where the chord wa + s (wb - wa) passes closest
    to 0: clip(-Re(conj(dw) wa) / |dw|^2) with dw = wb - wa, or 0.5 (the
    midpoint) where the chord is degenerate or not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = -(wa / (wb - wa)).real
    return np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), 0.5)


def _contact(w, zero_tol) -> None:
    if np.any(np.abs(w) < zero_tol):
        raise OnContourZero("|func| below tolerance on contour")


def _winding(func, path, n, zero_tol) -> int:
    """Winding number of ``func`` around 0 along the closed ``path``.

    Principal-value tracking alone can settle on an aliased count when a
    coarse step hides a full turn, so the count is recomputed at doubled
    initial density until two consecutive rounds agree.  Each doubling
    round keeps the previous round's n uniform samples and evaluates only
    the n - 1 midpoints between them.
    """
    t = np.linspace(0.0, 1.0, n)
    w = func(path(t))
    k_prev = None
    for _ in range(8):
        if k_prev is not None:
            n = 2 * n - 1
            t = np.linspace(0.0, 1.0, n)
            w_old, w = w, np.empty(n, dtype=w.dtype)
            w[::2] = w_old
            w[1::2] = func(path(t[1::2]))
        turns = _track(func, path, t, w, zero_tol) / (2.0 * np.pi)
        k = round(turns)
        if abs(turns - k) > 0.25:
            raise OnContourZero(f"non-integer winding {turns:.3f}")
        if k == k_prev:
            return k
        k_prev = k
    raise OnContourZero("winding did not stabilise under sample doubling")


def _rect_path(rect: ComplexRect):
    """The boundary of ``rect``, counter-clockwise, one edge per quarter of t."""
    corners = np.array([
        complex(rect.re_min, rect.im_min),
        complex(rect.re_max, rect.im_min),
        complex(rect.re_max, rect.im_max),
        complex(rect.re_min, rect.im_max),
        complex(rect.re_min, rect.im_min),
    ])

    def path(t):
        s = 4.0 * t
        edge = np.minimum(s.astype(int), 3)
        return corners[edge] + (corners[edge + 1] - corners[edge]) * (s - edge)

    return path


def winding_rect(
    func: Callable[[np.ndarray], np.ndarray],
    rect: ComplexRect,
    n0: int = 17,
    zero_tol: float = 1e-12,
) -> int:
    """Winding number of ``func`` around 0 along the rectangle boundary.

    ``func`` must accept complex ndarrays.  Equals the number of zeros of an
    analytic ``func`` inside the rectangle, counted with multiplicity.  Each
    edge starts from ``n0`` samples, and the count must agree under sample
    doubling.  Raises :class:`OnContourZero` when a sample of |func| drops
    below ``zero_tol``; the caller should perturb the rectangle and retry.
    """
    return _winding(func, _rect_path(rect), 4 * (n0 - 1) + 1, zero_tol)


def expsum_sample_hint(es: ExpSum, rect: ComplexRect) -> int:
    """Initial edge density matched to the fastest phase rotation of ``es``."""
    if not es.rates:
        return 17
    rate = max(abs(a) for a in es.rates)
    span = max(rect.re_max - rect.re_min, rect.im_max - rect.im_min)
    return min(20001, max(17, int(rate * span)))


def count_in_disk(p) -> int:
    """Zeros of the polynomial ``p`` in the open unit disk, by winding.

    Only the nonzero terms a_k z^k are evaluated, as a_k exp(2 pi i k t), so
    a sample costs O(terms), not O(degree), and memory stays O(samples).
    Raises :class:`OnContourZero` when p has a root on (or numerically on)
    the unit circle.
    """
    if p.degree == 0:
        if p.coeffs[0] == 0.0:
            raise ValueError("zero polynomial")
        return 0
    a = np.asarray(p.coeffs)
    k = np.flatnonzero(a)

    def on_circle(t):
        return sum(a[j] * np.exp(2j * np.pi * j * t) for j in k)

    return _winding(on_circle, lambda t: t, max(65, 8 * p.degree + 1), 1e-12)


def count_in_strip(sys: DelaySystem, a: int, b: int, re_max: Optional[float] = None) -> int:
    """Number of solutions of g(lam) = c in (0, re_max) x (a*pi, b*pi).

    ``a`` and ``b`` must be nonzero integers with a < b; on the horizontal
    edges Im(lam) = a*pi, b*pi the map g stays off the real axis, so a zero
    of g - c there signals misuse (a = 0 or b = 0) or a genuine root on the
    imaginary axis, reported as :class:`OnContourZero`.
    """
    if sys.kind is not CharKind.CASCADE_EQUAL_GAINS:
        raise ValueError("strip counting applies to the equal-gain variant")
    if not (isinstance(a, int) and isinstance(b, int)) or a == 0 or b == 0 or a >= b:
        raise ValueError("need nonzero integers a < b")
    if re_max is None:
        re_max = re_bound(sys)
    func = g_expsum(sys.tau, sys.c2)
    rect = ComplexRect(0.0, re_max, a * np.pi, b * np.pi)
    return winding_rect(func, rect, n0=expsum_sample_hint(func, rect))


def re_bound(sys: DelaySystem) -> float:
    """Real part beyond which the characteristic function cannot vanish.

    Solves, by bisection, the crossover where the fastest-growing
    exponential term dominates the sum of the magnitudes of all others, and
    adds 0.5.  To the right of the returned abscissa the triangle inequality
    forbids zeros.
    """
    es = char_expsum(sys)
    if len(es.rates) <= 1:
        return 0.5
    a0 = es.rates[-1]
    c0 = abs(es.coefs[-1])
    rest = [(abs(c), a) for c, a in zip(es.coefs[:-1], es.rates[:-1])]

    def gap(s: float) -> float:
        vals = [math.log(c) + a * s for c, a in rest]
        top = max(vals)
        return math.log(c0) + a0 * s - (top + math.log(sum(math.exp(v - top) for v in vals)))

    if gap(0.0) > 0.0:
        return 0.5
    hi = 1.0
    while gap(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise ArithmeticError("no dominance crossover found")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if gap(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return hi + 0.5


def _newton(fd, z, iters, box=None, pad=0.0):
    """Newton's method from ``z``: at most ``iters`` steps, stopping early
    where the derivative vanishes or after a step below 1e-15 * (1 + |z|).
    ``fd`` maps a scalar to (f, f'), as :meth:`ExpSum.with_slope` does.
    Returns None when, given a ``box``, an iterate leaves it by more than
    ``pad``.
    """
    for _ in range(iters):
        f, d = fd(z)
        if d == 0:
            break
        step = complex(f) / complex(d)
        z = z - step
        if box is not None and not box.contains(z, pad):
            return None
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def _winding_with_retries(func, rect, rng, n0=17) -> tuple:
    """Winding with the contour-contact policy: dilate with jitter, 8 tries."""
    try:
        return winding_rect(func, rect, n0=n0), rect
    except OnContourZero:
        last = None
        for _ in range(8):
            d = 1e-7 * (1.0 + max(abs(rect.re_min), abs(rect.re_max), abs(rect.im_min), abs(rect.im_max)))
            r2 = rect.dilated(d * (1.0 + rng.random()))
            try:
                return winding_rect(func, r2, n0=n0), r2
            except OnContourZero as exc:
                last = exc
        raise last


_SPLIT_FRACS = (0.5, 0.53, 0.46, 0.57, 0.42, 0.61, 0.38, 0.65, 0.35)


def isolate_and_refine(
    sys: DelaySystem,
    rect: ComplexRect,
    resid_tol: float = 1e-10,
    max_depth: int = 60,
) -> List[RootRecord]:
    """Locate every characteristic root of ``sys`` inside ``rect``.

    Rectangles are bisected until each piece holds winding <= 1 (or a
    certified double root); Newton finishes the job with a bisection
    fallback whenever it strays outside its box.  A root is accepted when
    |f| < ``resid_tol`` * max(1, sum_j |coef_j e^{rate_j lam}|), a backward
    error; its record keeps the absolute |f|.  Multiplicity 2 is
    assigned by refining the zero of the derivative and checking that the
    residual of the function there is below what two double-precision
    simple roots could produce.
    """
    func = char_expsum(sys)
    dfunc = func.derivative()
    rng = np.random.default_rng(0xC0417)
    k, rect = _winding_with_retries(func, rect, rng, n0=expsum_sample_hint(func, rect))
    out: List[RootRecord] = []
    _isolate(func, dfunc, rect, k, 0, max_depth, resid_tol, out)
    out.sort(key=lambda r: (r.lam.imag, r.lam.real))
    return out


def _backward_tol(func, z, resid_tol) -> float:
    """Residual below which ``z`` is accepted as a root: ``resid_tol`` relative
    to the size of the terms that cancel there, and never below ``resid_tol``.
    Far to the right the terms grow like e^{2 Re z}, and an absolute bound is
    out of reach of double precision."""
    return resid_tol * max(1.0, float(func.magnitude(z)))


def _newton_in_box(func, rect):
    """Newton on the ExpSum ``func`` from the centre of ``rect``: its limit
    when it lies in the box, else None."""
    # Newton may wander up to pad outside the box, but a root is accepted
    # only inside it: one just outside belongs to a neighbouring box
    pad = 1e-9 + 0.05 * rect.diag
    z = _newton(func.with_slope, rect.center, 80, rect, pad)
    return z if z is not None and rect.contains(z, 1e-9) else None


def _isolate(func, dfunc, rect, k, depth, max_depth, resid_tol, out) -> None:
    if k == 0:
        return
    if k == 1:
        z = _newton_in_box(func, rect)
        if z is not None:
            res = abs(complex(func(z)))
            if res < _backward_tol(func, z, resid_tol):
                out.append(RootRecord(z, res, 1))
                return
    if k == 2:
        zd = _newton_in_box(dfunc, rect)
        if zd is not None:
            fz = abs(complex(func(zd)))
            f2 = abs(dfunc.with_slope(zd)[1])
            sep = math.sqrt(2.0 * fz / f2) if f2 > 0 else math.inf
            if sep < 1e-7 and fz < _backward_tol(func, zd, resid_tol):
                out.append(RootRecord(zd, fz, 2))
                return
    if k > 2 and rect.diag < 1e-7:
        raise MultiplicityCapExceeded(
            f"winding {k} in a box of diameter {rect.diag:.1e}; "
            "roots of this family have multiplicity at most two"
        )
    if depth >= max_depth:
        raise MaxDepthExceeded(f"bisection depth {depth} reached at {rect}")
    horizontal = (rect.re_max - rect.re_min) >= (rect.im_max - rect.im_min)
    for frac in _SPLIT_FRACS:
        if horizontal:
            mid = rect.re_min + frac * (rect.re_max - rect.re_min)
            r1 = ComplexRect(rect.re_min, mid, rect.im_min, rect.im_max)
            r2 = ComplexRect(mid, rect.re_max, rect.im_min, rect.im_max)
        else:
            mid = rect.im_min + frac * (rect.im_max - rect.im_min)
            r1 = ComplexRect(rect.re_min, rect.re_max, rect.im_min, mid)
            r2 = ComplexRect(rect.re_min, rect.re_max, mid, rect.im_max)
        try:
            k1 = winding_rect(func, r1, n0=expsum_sample_hint(func, r1))
            k2 = winding_rect(func, r2, n0=expsum_sample_hint(func, r2))
        except OnContourZero:
            continue
        if k1 + k2 != k:
            continue
        _isolate(func, dfunc, r1, k1, depth + 1, max_depth, resid_tol, out)
        _isolate(func, dfunc, r2, k2, depth + 1, max_depth, resid_tol, out)
        return
    raise OnContourZero(f"could not split {rect} without touching a root")


def spectral_abscissa(sys: DelaySystem) -> float:
    """sup Re(lam) over the characteristic roots (rational delay only).

    With tau = m/n the roots fill vertical lines Re(lam) = -n log|z*| over
    the nonzero roots z* of the disk polynomial; the supremum is attained.
    Returns ``NO_ROOTS`` (-inf) when the reduced polynomial is a nonzero
    constant and the spectrum is empty.
    """
    if sys.tau_rational is None:
        raise ValueError("spectral_abscissa needs an exact rational delay")
    p = reduce_to_polynomial(sys)
    if p.degree == 0:
        return NO_ROOTS
    n = sys.tau_rational.den
    mods = np.abs(np.asarray(disk_roots(p).roots))
    return float(-n * np.log(mods.min()))


def min_unstable_imag(
    sys: DelaySystem,
    im_cap: float,
    on_tol: float = 1e-9,
) -> Optional[float]:
    """Smallest |Im lam| over roots with Re lam >= 0, up to ``im_cap``.

    Returns None when no such root exists below the cap.  Rational delays
    use the disk polynomial (each root z with |z| <= 1 contributes the
    family Im lam = -n Arg z + 2 pi n k, minimised by n |Arg z|); otherwise
    strips of height pi are scanned by winding.
    """
    if sys.tau_rational is not None:
        p = reduce_to_polynomial(sys)
        if p.degree == 0:
            return None
        n = sys.tau_rational.den
        roots = np.asarray(disk_roots(p, on_tol).roots)
        sel = np.abs(roots) <= 1.0 + on_tol
        if not sel.any():
            return None
        vals = n * np.abs(np.angle(roots[sel]))
        vals = vals[vals <= im_cap]
        return float(vals.min()) if vals.size else None
    lam = _first_unstable_root(sys, im_cap)
    return None if lam is None else abs(lam.imag)


def _first_unstable_root(sys: DelaySystem, height: float) -> Optional[complex]:
    """Root with Re lam >= -1e-8 and the least Im lam in [0, height), or None.

    Scans strips of height pi upward from the real axis by winding, under
    the contact policy of :func:`_winding_with_retries`, and isolates the
    roots of the first strip that holds one.
    """
    reb = re_bound(sys)
    func = char_expsum(sys)
    rng = np.random.default_rng(0x5CA9)
    j = 0
    while j * np.pi < height:
        lo, hi = j * np.pi, min((j + 1) * np.pi, height)
        if hi - lo < 1e-9:
            break
        rect = ComplexRect(-1e-9, reb, lo - 1e-9, hi)
        k, rect = _winding_with_retries(func, rect, rng, n0=expsum_sample_hint(func, rect))
        if k > 0:
            cands = [r.lam for r in isolate_and_refine(sys, rect) if r.lam.real >= -1e-8]
            if cands:
                return min(cands, key=lambda z: abs(z.imag))
        j += 1
    return None
