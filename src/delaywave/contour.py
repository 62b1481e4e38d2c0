"""Argument-principle counting, root isolation and refinement in the lam-plane.

Every winding number comes from one argument tracker, which follows many
paths t in [0, 1] -> z at once and adds their turns up by closed contour:
the four straight edges of a rectangle, or the unit circle exp(2 pi i t).
The samples of all paths sit in flat arrays tagged with their path, so
each tracking pass is one evaluation of the function.  A step settles only
when it turns by less than pi/2 and so do both its halves at its midpoint,
which pins the branch of the argument and refines a coarse step that hides
a turn one of its halves shows.  A step that fails is cut, at its midpoint
and, if it turns by pi/2 or more itself, where its chord passes closest to
0, so a zero on the path is met within a few passes.  Each path is tracked
once, from a uniform grid; the first check evaluates its samples and the
midpoints between them in one call.  An :class:`ExpSum` is tracked as it is
evaluated, and the size of its terms, against which a contact is judged,
is computed only at the few samples near a zero.  Since the tracked
functions are analytic, the winding equals the number of enclosed zeros
counted with multiplicity.  A contour that touches a zero on any of its
paths gets its own :class:`OnContourZero` and leaves the other contours of
its batch alone; a rectangle the caller may move is dilated by fixed steps
and retried under one policy, ``_winding_with_retries``.  Every rectangle
winding starts each edge from the density of that edge's own length, set
in one place, ``_sample_hint``, which also refuses an edge beyond the phase
budget.

Root isolation splits level by level: a box of winding k is cut into
max(2, k) slabs, and the slabs of every box of a level are wound in one
batch.  One strip scan answers every question about the lowest unstable
root, clearance below a height included: boxes up the right half-plane
from a step below the height ``regions.clearance_height`` certifies clear
(0 where it certifies nothing) are wound in batches that grow, within the
phase budget, while they come back empty; a tall box with a root is
scanned again in shorter boxes, and the first short one with a root is
isolated.

Double roots are certified structurally rather than by ever-finer bisection:
principal-value tracking cannot see the full 2*pi swing of a quadratic dip
that sits close to an edge, so a winding-2 box first tries Newton on the
derivative and accepts a multiplicity-2 root when the residual puts the
would-be pair closer than double precision can separate, and a simple
root gives way to such a double root within 1e-6 of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .chareq import DelaySystem, ExpSum, char_expsum, g_expsum
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

# a sample of |func| below this on a contour is a contact with a zero
_ZERO_TOL = 1e-12
# depth cap of the splitting of root isolation
_MAX_DEPTH = 60
# a rectangle edge along which the fastest ExpSum term turns its phase by more
# than this is refused (the left edges of a batch of the strip scan turn it by
# no more in all): the samples a winding needs there run to hundreds of MB
_MAX_PHASE = 2e5
# count_in_disk refuses a winding from more samples than this: its first check
# evaluates twice as many in one call (175 MB of process memory at the cap)
_MAX_DISK_SAMPLES = 2**20
# passes of the argument tracker after its first midpoint check
_MAX_PASS = 60


class OnContourZero(ArithmeticError):
    """The contour passes through (or too close to) a zero; perturb and retry."""


class MaxDepthExceeded(ArithmeticError):
    """Rectangle splitting exceeded its depth cap (root cluster or contact)."""


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
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError("rectangle bounds must be finite")
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


def _track(func, path, n, per):
    """Total change of arg func along each of the contours made of the paths
    ``path(p, t)``, t from 0 to 1, p = 0 .. len(n) - 1, each path from
    ``n[p]`` uniform samples: path p belongs to contour p // ``per``, and the
    paths of a contour run end to end.

    A step settles, and its turn is added to its contour's total, only when it
    turns by less than pi/2 and so do both of its halves at its midpoint, so
    a coarse step that hides a turn one of its halves shows is refined.  A
    step that fails is replaced by its pieces, which go through the same
    check.  The samples of all paths sit in flat arrays, path after path
    with t sorted within each path.  The first check evaluates, in one
    ``func`` call, the uniform grid of 2 n[p] - 1 samples of every path: the
    n[p] samples and the midpoints of their steps; a step that fails it
    goes on as its two halves.  Each later pass evaluates, for all paths in
    one ``func`` call, the midpoint of every open step; a step that itself
    turns by pi/2 or more is cut there and where the chord from its end
    values passes closest to 0, and goes on as the three pieces.  The chord
    point converges on a zero on the path within a few passes; from a zero
    just off the path it falls at the foot of the perpendicular, where
    |func| is as large as the distance allows.

    Returns ``(total, why)``: ``why`` maps each contour that met a contact
    (see :func:`_contacts`), or had a step still open after ``_MAX_PASS``
    passes, to the reason; ``total`` holds the change of arg along every
    other contour.
    """
    why, half, m = {}, 0.5 * np.pi, n.size // per
    pid, t = _grid(2 * n - 1)
    # step j of path p starts at 2 (j + s - p) + p of the finer grid, where s
    # counts the samples before path p
    i = 2 * np.arange(n.sum() - n.size) + np.arange(n.size).repeat(n - 1)
    z = path(pid, t)
    w = func(z)
    open_ = _contacts(why, func, z, pid // per, w, m)
    if open_ is not None:
        # a contour in contact is out of the count: its samples settle at once
        w[~open_[pid // per]] = 1.0
    h = _turn(w[:-1], w[1:])
    h1, h2 = h[i], h[i + 1]
    dphi = h1 + h2
    ok = (np.abs(h1) < half) & (np.abs(h2) < half) & (np.abs(dphi) < half)
    total = np.zeros(m)
    total += np.bincount(pid[i][ok] // per, dphi[ok], m)
    i = np.concatenate((i[~ok], i[~ok] + 1))
    ta, tb, wa, wb, sp, dphi = t[i], t[i + 1], w[i], w[i + 1], pid[i], h[i]
    for _ in range(_MAX_PASS):
        if not sp.size:
            break
        big = np.abs(dphi) >= half
        tm = 0.5 * (ta + tb)
        tc = np.minimum(ta + _chord_cut(wa, wb) * (tb - ta), tb)
        t1, t2 = np.where(big, np.minimum(tm, tc), tm), np.where(big, np.maximum(tm, tc), tm)
        s2 = np.concatenate((sp, sp[big]))
        z = path(s2, np.concatenate((t1, t2[big])))
        wn = func(z)
        w1, w2 = wn[:sp.size], wn[:sp.size].copy()
        w2[big] = wn[sp.size:]
        open_ = _contacts(why, func, z, s2 // per, wn, m)
        if open_ is not None:
            keep = open_[sp // per]
            ta, tb, t1, t2, wa, wb, w1, w2 = (x[keep] for x in (ta, tb, t1, t2, wa, wb, w1, w2))
            sp, dphi, big = sp[keep], dphi[keep], big[keep]
        # the pieces: every step's left and right one (a midpoint check's
        # halves), then the middle one of each step cut at its chord point
        k = sp.size
        ta, tb = np.concatenate((ta, t2, t1[big])), np.concatenate((t1, tb, t2[big]))
        wa, wb = np.concatenate((wa, w2, w1[big])), np.concatenate((w1, wb, w2[big]))
        h = _turn(wa, wb)
        ok = ~big & (np.abs(h[:k]) < half) & (np.abs(h[k:2 * k]) < half)
        total += np.bincount(sp[ok] // per, dphi[ok], m)
        keep = np.concatenate((~ok, ~ok, np.ones(ta.size - 2 * k, dtype=bool)))
        ta, tb, wa, wb, dphi = ta[keep], tb[keep], wa[keep], wb[keep], h[keep]
        sp = np.concatenate((sp, sp, sp[big]))[keep]
    for c in set((sp // per).tolist()):
        why.setdefault(c, "argument tracking did not settle (zero very near contour)")
    return total, why


def _turn(wa, wb):
    """Principal argument of wb / wa: ``np.angle`` without its dispatch."""
    q = wb / wa
    return np.arctan2(q.imag, q.real)


def _chord_cut(wa, wb):
    """Fraction s in [0, 1] where the chord wa + s (wb - wa) passes closest
    to 0: clip(-Re(conj(dw) wa) / |dw|^2) with dw = wb - wa, or 0.5 (the
    midpoint) where the chord is degenerate or not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = -(wa / (wb - wa)).real
    return np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), 0.5)


def _contacts(why, func, z, cid, w, m):
    """Record in ``why`` every contour with a contact among the samples ``w =
    func(z)``, sample j on contour ``cid[j]``.  Returns None if there is
    none, else the mask of the ``m`` contours ``why`` does not name.

    A sample is a contact when |w| < ``_ZERO_TOL``, for an :class:`ExpSum`
    when |w| < ``_ZERO_TOL`` max(1, magnitude): far from the imaginary axis
    rounding leaves |func| on a zero above an absolute ``_ZERO_TOL``, but
    never above it relative to the size of the terms.  That size is computed
    only at the samples below ``_ZERO_TOL`` times :func:`_size_bound`.
    """
    low = np.abs(w) < _ZERO_TOL * _size_bound(func, z)
    if isinstance(func, ExpSum) and low.any():
        c = np.flatnonzero(low)
        low[c] = np.abs(w[c] / np.maximum(func.magnitude(z[c]), 1.0)) < _ZERO_TOL
    if not low.any():
        return None
    for c in set(cid[low].tolist()):
        why.setdefault(c, "|func| below tolerance on contour")
    open_ = np.ones(m, dtype=bool)
    open_[list(why)] = False
    return open_


def _size_bound(func, z):
    """A bound on the factor of ``_ZERO_TOL`` in the contact test over the
    samples ``z``: 1 for a plain callable; for an :class:`ExpSum`, inf where
    :meth:`ExpSum._shift` rescales the least or the greatest Re z, else
    max(1, magnitude) at the larger of the two (with a margin for rounding):
    unscaled ends leave every sample unscaled, and the terms are convex in Re z."""
    if not isinstance(func, ExpSum):
        return 1.0
    lo, hi = float(z.real.min()), float(z.real.max())
    if func._shift(lo) or func._shift(hi):
        return math.inf
    return (1.0 + 1e-9) * max(1.0, float(func.magnitude(lo)), float(func.magnitude(hi)))


def _grid(n):
    """Flat uniform grids: ``n[p]`` (at least 2) parameters for path p, bit
    for bit ``np.linspace(0, 1, n[p])``.  Returns the path id and the
    parameter of every sample."""
    pid = np.arange(n.size).repeat(n)
    end = n.cumsum()
    t = (np.arange(pid.size) - (end - n).repeat(n)) * (1.0 / (n - 1)).repeat(n)
    # j (1 / (n - 1)) can fall short of 1 at j = n - 1
    t[end - 1] = 1.0
    return pid, t


def _windings(func, path, n, per):
    """Winding numbers of ``func`` around 0 along the closed contours of
    :func:`_track` (path p, from ``n[p]`` uniform samples, on contour
    p // ``per``), in one batch.  An :class:`ExpSum` is tracked as it is
    evaluated, rescaled or not, as a positive factor changes no argument;
    its contacts are judged relative to the size of its terms.

    Returns ``(k, why)``: ``why`` maps each contour that touched a zero on
    any of its paths, did not settle or gave a non-integer count to the
    message of its :class:`OnContourZero`; ``k[c]`` is the winding number
    of every other contour.  One contour's failure leaves the others' counts
    as they are.
    """
    total, why = _track(func, path, np.asarray(n), per)
    k = [0] * len(total)
    for c, x in enumerate((total / (2.0 * np.pi)).tolist()):
        if c in why:
            continue
        if math.isfinite(x) and abs(x - round(x)) <= 0.25:
            k[c] = round(x)
        else:
            why[c] = f"non-integer winding {x:.3f}"
    return k, why


# columns of (re_min, re_max, im_min, im_max) at the corners of a rectangle,
# counter-clockwise from (re_min, im_min) and back to it
_CORNER_RE = np.array([0, 1, 1, 0, 0])
_CORNER_IM = np.array([2, 2, 3, 3, 2])


def _edges(box):
    """The edges of the rectangles ``box[p] = (re_min, re_max, im_min,
    im_max)`` as straight paths: edge e = 4 p + j of box p, j = 0 .. 3, runs
    counter-clockwise from (re_min, im_min).  Returns ``(path, length)``,
    with ``path(e, t)`` the point at t in [0, 1] along edge e and
    ``length[e]`` its length."""
    box = np.asarray(box, dtype=float)
    corners = np.empty((len(box), 5), dtype=complex)
    corners.real = box.take(_CORNER_RE, 1)
    corners.imag = box.take(_CORNER_IM, 1)
    start = corners[:, :4].ravel()
    side = (corners[:, 1:] - corners[:, :4]).ravel()
    return (lambda e, t: start[e] + side[e] * t), np.abs(side)


def _rect_windings(func, box):
    """:func:`_windings` along the boundaries of the rectangles ``box[p] =
    (re_min, re_max, im_min, im_max)``, counter-clockwise: the four paths of
    :func:`_edges` per box, each from :func:`_sample_hint` of its own
    length."""
    path, length = _edges(box)
    return _windings(func, path, _sample_hint(func, length), 4)


def _single(result) -> int:
    """The count of a one-contour batch, or its :class:`OnContourZero`."""
    k, why = result
    if why:
        raise OnContourZero(why[0])
    return k[0]


def winding_rect(func: Callable[[np.ndarray], np.ndarray], rect: ComplexRect) -> int:
    """Winding number of ``func`` around 0 along the rectangle boundary.

    ``func`` must accept complex ndarrays.  Equals the number of zeros of an
    analytic ``func`` inside the rectangle, counted with multiplicity.  Each
    edge starts from :func:`_sample_hint` of its own length, and
    :func:`_track` refines a step until it and both its halves turn by less
    than pi/2.  Raises :class:`OnContourZero` when a sample of |func| drops
    below ``_ZERO_TOL``, for an :class:`ExpSum` times the size of its terms
    there (at least 1, computed only where |func| is small: see
    :func:`_contacts`); the caller should perturb the rectangle and retry.
    An :class:`ExpSum` whose phase turns by more than ``_MAX_PHASE`` along
    an edge raises ValueError.
    """
    return _single(_rect_windings(func, [(rect.re_min, rect.re_max, rect.im_min, rect.im_max)]))


def _sample_hint(func, length):
    """Initial densities of edges of ``length``: for an :class:`ExpSum` the
    phase its fastest term turns along the edge, clipped to 17 .. 20001
    samples, else 17.  Raises ValueError where the phase turns by more than
    ``_MAX_PHASE``."""
    if not isinstance(func, ExpSum) or not func.rates:
        return np.full(np.shape(length), 17)
    phase = max(abs(a) for a in func.rates) * np.asarray(length)
    if np.any(phase > _MAX_PHASE):
        raise ValueError(
            f"a rectangle side turns the phase by {np.max(phase):.3g} > {_MAX_PHASE:.0e}, "
            "beyond the reach of one winding; shrink the rectangle"
        )
    return np.minimum(np.maximum(phase, 17), 20001).astype(int)


def count_in_disk(p) -> int:
    """Zeros of the polynomial ``p`` in the open unit disk, by winding.

    ``p`` is a :class:`polyform.PolyReal` or its nonzero terms {k: a_k}, each
    evaluated as a_k exp(2 pi i k t): a sample costs O(terms), memory is
    O(samples), 8 degree + 1 at first, and beyond ``_MAX_DISK_SAMPLES`` it
    raises ValueError at once.  Raises :class:`OnContourZero` when p has a
    root on (or numerically on) the unit circle.
    """
    terms = p if isinstance(p, dict) else {k: p.coeffs[k] for k in np.flatnonzero(p.coeffs)}
    if not terms:
        raise ValueError("zero polynomial")
    samples = max(65, 8 * max(terms) + 1)
    if samples > _MAX_DISK_SAMPLES:
        raise ValueError(f"degree {max(terms)} needs {samples} samples on the circle > {_MAX_DISK_SAMPLES}")
    if max(terms) == 0:
        return 0

    def on_circle(t):
        return sum(a * np.exp(2j * np.pi * k * t) for k, a in terms.items())

    return _single(_windings(on_circle, lambda pid, t: t, [samples], 1))


def count_in_strip(sys: DelaySystem, a: int, b: int) -> int:
    """Number of solutions of g(lam) = c in (0, re_bound) x (a*pi, b*pi).

    The gains pick the analysis: any system with c1 = c2 = c is accepted,
    however it was built.  ``a`` and ``b`` must be nonzero integers with a < b;
    on the horizontal edges Im(lam) = a*pi, b*pi the map g stays off the
    real axis, so a zero of g - c there signals misuse (a = 0 or b = 0) or a
    genuine root on the imaginary axis, reported as :class:`OnContourZero`.
    """
    if sys.c1 != sys.c2:
        raise ValueError("strip counting applies to equal gains c1 == c2")
    if not (isinstance(a, int) and isinstance(b, int)) or a == 0 or b == 0 or a >= b:
        raise ValueError("need nonzero integers a < b")
    func = g_expsum(sys.tau, sys.c2)
    rect = ComplexRect(0.0, re_bound(sys), a * np.pi, b * np.pi)
    return winding_rect(func, rect)


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


# dilations of a rectangle that met a contact, in units of 1e-7 (1 + its largest
# |bound|): about doubling, as |f| stays below tolerance near a double zero
_DILATIONS = (1.5, 3.4, 5.2, 13.6, 21.1, 50.8, 89.3, 211.0)


def _winding_with_retries(func, rect) -> tuple:
    """Winding with the contour-contact policy: on a contact, retry the
    rectangle dilated by each of ``_DILATIONS`` in turn."""
    try:
        return winding_rect(func, rect), rect
    except OnContourZero:
        last = None
        d = 1e-7 * (1.0 + max(abs(rect.re_min), abs(rect.re_max), abs(rect.im_min), abs(rect.im_max)))
        for f in _DILATIONS:
            r2 = rect.dilated(d * f)
            try:
                return winding_rect(func, r2), r2
            except OnContourZero as exc:
                last = exc
        raise last


_SPLIT_FRACS = (0.5, 0.53, 0.46, 0.57, 0.42, 0.61, 0.38, 0.65, 0.35)


def isolate_and_refine(sys: DelaySystem, rect: ComplexRect) -> List[RootRecord]:
    """Locate every characteristic root of ``sys`` inside ``rect``.

    Rectangles are split into slabs, one level at a time, until each piece
    holds winding <= 1 (or a certified double root); Newton finishes the
    job in each piece that holds a root.  A root is accepted when
    |f| < 1e-10 * max(1, sum_j |coef_j e^{rate_j lam}|), a backward
    error; its record keeps the absolute |f|.  Multiplicity 2 is
    assigned by refining the zero of the derivative and checking that the
    residual of the function there is below what two double-precision
    simple roots could produce; a simple root is checked that way too, as a
    count can miss a double root next to an edge.
    """
    func = char_expsum(sys)
    k, rect = _winding_with_retries(func, rect)
    out = _isolate(func, rect, k)
    out.sort(key=lambda r: (r.lam.imag, r.lam.real))
    return out


def _backward_tol(func, z) -> float:
    """Residual below which ``z`` is accepted as a root: 1e-10 relative to the
    size of the terms that cancel there, and never below 1e-10.
    Far to the right the terms grow like e^{2 Re z}, and an absolute bound is
    out of reach of double precision."""
    return 1e-10 * max(1.0, float(func.magnitude(z)))


def _newton_in_box(func, rect):
    """Newton on the ExpSum ``func`` from the centre of ``rect``: its limit
    when it lies in the box, else None."""
    # Newton may wander up to pad outside the box, but a root is accepted
    # only inside it: one just outside belongs to a neighbouring box
    pad = 1e-9 + 0.05 * rect.diag
    z = _newton(func.with_slope, rect.center, 80, rect, pad)
    return z if z is not None and rect.contains(z, 1e-9) else None


def _root_in(func, dfunc, rect, k) -> Optional[RootRecord]:
    """The root of a box of winding ``k``, when Newton certifies it: a simple
    root for k = 1, a double root for k = 2; else None.  A simple root gives
    way to a double root within 1e-6, which may lie outside ``rect``, as
    Newton on f stops about 1e-8 short of one."""
    if k == 1:
        z = _newton_in_box(func, rect)
        if z is not None:
            res = abs(complex(func(z)))
            if res < _backward_tol(func, z):
                d1, d2 = dfunc.with_slope(z)
                if abs(d1) < 2e-6 * abs(d2):  # else Newton on f' leaves ``near`` at once
                    near = ComplexRect(z.real - 1e-6, z.real + 1e-6, z.imag - 1e-6, z.imag + 1e-6)
                    return _root_in(func, dfunc, near, 2) or RootRecord(z, res, 1)
                return RootRecord(z, res, 1)
    if k == 2:
        zd = _newton_in_box(dfunc, rect)
        if zd is not None:
            fz = abs(complex(func(zd)))
            f2 = abs(dfunc.with_slope(zd)[1])
            sep = math.sqrt(2.0 * fz / f2) if f2 > 0 else math.inf
            if sep < 1e-7 and fz < _backward_tol(func, zd):
                return RootRecord(zd, fz, 2)
    return None


def _isolate(func, rect, k) -> List[RootRecord]:
    """The roots in ``rect`` (winding ``k``), by splitting level by level.

    Each round first tries :func:`_root_in` (on ``func`` and its derivative)
    on every new box, keeping the root it certifies only if the box holds it,
    so that a double root is reported once, then winds the slabs (see
    :func:`_slabs`) of every box that must split in one batched pass.  A
    split whose slabs touch a root, or whose counts do not add up to the
    box's, is retried at the next fraction of ``_SPLIT_FRACS`` in the next
    batch.  The first failure met, in level order with the lowest slab first,
    is raised.
    """
    dfunc = func.derivative()
    out: List[RootRecord] = []
    boxes = [(rect, k, 0)] if k else []  # (box, winding, depth)
    splits = []  # (box, winding, depth, index into _SPLIT_FRACS)
    while boxes or splits:
        for rect, k, depth in boxes:
            rec = _root_in(func, dfunc, rect, k)
            if rec is not None:
                if rect.contains(rec.lam, 1e-9):
                    out.append(rec)
            elif k > 2 and rect.diag < 1e-7:
                raise MultiplicityCapExceeded(
                    f"winding {k} in a box of diameter {rect.diag:.1e}; "
                    "roots of this family have multiplicity at most two"
                )
            elif depth >= _MAX_DEPTH:
                raise MaxDepthExceeded(f"bisection depth {depth} reached at {rect}")
            else:
                splits.append((rect, k, depth, 0))
        boxes = []
        if not splits:
            continue
        slabs = _slabs(splits)
        kk, lost = _rect_windings(func, slabs)
        slabs, retry, at = slabs.tolist(), [], 0
        for rect, k, depth, frac in splits:
            mine = range(at, at + max(2, k))
            at = mine.stop
            if not lost.keys() & mine and sum(kk[i] for i in mine) == k:
                boxes += [(ComplexRect(*slabs[i]), kk[i], depth + 1) for i in mine if kk[i]]
            elif frac + 1 < len(_SPLIT_FRACS):
                retry.append((rect, k, depth, frac + 1))
            else:
                raise OnContourZero(f"could not split {rect} without touching a root")
        splits = retry
    return out


def _slabs(splits):
    """The bounds (re_min, re_max, im_min, im_max) of the slabs of every
    split, lowest first: a box of winding k is cut across its longer side
    into p = max(2, k) slabs, at (i - 1 + 2 frac) / p of that side for
    i = 1 .. p - 1, where frac is the split's fraction of ``_SPLIT_FRACS``;
    at p = 2 the one cut is at frac."""
    box = np.array([(r.re_min, r.re_max, r.im_min, r.im_max) for r, *_ in splits], dtype=float)
    p = np.array([max(2, s[1]) for s in splits])
    frac = np.array([_SPLIT_FRACS[s[3]] for s in splits])
    row = np.arange(len(splits)).repeat(p)
    i = np.arange(row.size) - (p.cumsum() - p).repeat(p)
    slabs = box[row]
    c = np.where(slabs[:, 1] - slabs[:, 0] >= slabs[:, 3] - slabs[:, 2], 0, 2)
    lo, hi = box[row, c], box[row, c + 1]
    # the lower bound of slab i > 0, and the upper bound of the slab below it
    edge = lo + (i - 1 + 2 * frac[row]) / p[row] * (hi - lo)
    up = np.flatnonzero(i > 0)
    slabs[up, c[up]] = edge[up]
    slabs[up - 1, c[up] + 1] = edge[up]
    return slabs


def spectral_abscissa(sys: DelaySystem) -> float:
    """sup Re(lam) over the characteristic roots (rational delay only, no
    degree cap): the real part of :func:`_rightmost_root`, as the roots fill
    vertical lines Re(lam) = -n log|z*| over the zeros z* of the disk
    polynomial; ``NO_ROOTS`` (-inf) when that polynomial is a constant."""
    lam = _rightmost_root(sys)
    return NO_ROOTS if lam is None else float(lam.real)


def _rightmost_root(sys: DelaySystem) -> Optional[complex]:
    """The companion root z of least modulus of the disk polynomial of
    tau = m/n, as lam = -n log z polished by 4 Newton steps, or None for a
    constant polynomial: the one reader of companion roots besides
    :func:`polyform.stability_from_poly`."""
    roots = np.asarray(disk_roots(reduce_to_polynomial(sys)).roots)
    if not roots.size:
        return None
    z = roots[np.argmin(np.abs(roots))]
    return _newton(char_expsum(sys).with_slope, -sys.tau_rational.den * np.log(complex(z)), 4)


def min_unstable_imag(sys: DelaySystem, im_cap: float) -> Optional[float]:
    """Smallest |Im lam| over roots with Re lam >= 0 up to ``im_cap``, or None,
    by the strip scan of :func:`_first_unstable_root` from its certificate."""
    lam, _ = _first_unstable_root(sys, im_cap, -1e-8)
    return None if lam is None else abs(lam.imag)


def _first_unstable_root(sys: DelaySystem, height: float, floor: float) -> tuple:
    """``(lam, top)``: the root with Re lam >= ``floor`` and the least Im lam
    in [0, top), or None, and the height ``top`` scanned: ``height``, or
    pi (n + 1/2) for tau = m/n if lower, as the roots repeat every 2 pi n in
    Im and come in conjugate pairs (a negative real zero of the disk
    polynomial puts roots on Im = pi n).

    Batches of 8 boxes [-1e-9, re_bound] x [a - 1e-9, a + h] are wound up
    from the multiple of the base step a step or more below H* =
    ``regions.clearance_height(sys, re_bound)``, a height below which no
    root has Re lam >= 0 (the step is a margin, not a proof, for Re lam in
    [``floor``, 0)); H* is 0 unless equal gains stabilise the nearest even
    delay.  The batches are read in order; h is the base
    step max(pi, re_bound), then 1/8 of the height scanned, as long as the
    left edges of the 8 boxes turn the phase by at most ``_MAX_PHASE`` in
    all, so memory does not grow with the height.  A taller box with a root
    or a contact is scanned again in boxes of 1/8 its height; a base-step
    one goes to :func:`_isolate` (after :func:`_winding_with_retries` on a
    contact); the scan goes on past a box whose roots all lie below
    ``floor``.
    """
    from .regions import clearance_height  # at call time: regions imports this module
    reb = re_bound(sys)
    func = char_expsum(sys)
    if sys.tau_rational is not None:
        height = min(height, np.pi * (sys.tau_rational.den + 0.5))
    step = max(np.pi, reb)
    j0 = max(0, math.floor(min(clearance_height(sys, reb), height) / step) - 1)

    def scan(j, k, size):
        """The root sought in ``size`` boxes of ``k`` steps from ``j`` steps up, or None."""
        los = [a for a in range(j, j + k * size, k) if height - a * step >= 1e-9]
        box = [(-1e-9, reb, a * step - 1e-9, min((a + k) * step, height)) for a in los]
        kk, lost = _rect_windings(func, box)
        for i, a in enumerate(los):
            if not kk[i] and i not in lost:
                continue
            if k > 1:
                lam = scan(a, max(1, k // 8), min(k, 8))
            else:
                rect = ComplexRect(*box[i])
                w, rect = _winding_with_retries(func, rect) if i in lost else (kk[i], rect)
                cands = [r.lam for r in _isolate(func, rect, w) if r.lam.real >= floor]
                lam = min(cands, key=lambda z: abs(z.imag), default=None)
            if lam is not None:
                return lam
        return None

    k_max = 2 ** max(0, math.floor(math.log2(_MAX_PHASE / (8 * step * max(map(abs, func.rates))))))
    j, k, lam = j0, 1, None
    while lam is None and height - j * step >= 1e-9:
        lam = scan(j, k, 8)
        j, k = j + 8 * k, min((j - j0) // 8 + k, k_max)
    return lam, height
