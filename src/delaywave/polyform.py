"""Unit-disk polynomial reduction for rational delays, root oracle, Jury test.

For tau = m/n (coprime) the substitution z = exp(-lam/n) turns the
characteristic function times -2 exp(-lam) into a real polynomial

    P(z) = (c1 - c2) z^{m+2n} + z^{2n} + (c1 + c2) z^m + 1,

and Re(lam) >= 0 corresponds to |z| <= 1.  Exponential stability of the
closed loop is therefore equivalent to P having no roots in the closed unit
disk.  This module builds P, classifies its roots by modulus with a
companion-matrix solve, and implements the innerwise (Jury) criterion as an
algebraically independent route to the same disk question.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .chareq import DelaySystem

__all__ = [
    "PolyReal",
    "DiskRootReport",
    "StabilityState",
    "PolyStability",
    "disk_terms",
    "reduce_to_polynomial",
    "disk_roots",
    "jury_matrices",
    "jury_all_inside",
    "stability_from_poly",
]


# a root within this of |z| = 1 counts as on the unit circle
_ON_CIRCLE_TOL = 1e-9


class StabilityState(Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class PolyReal:
    """Real polynomial, coefficients in ascending degree, nonzero leader.

    ``stripped_leading`` records how many exactly-zero top coefficients were
    removed during construction (gain combinations such as 1 + 2c = 0 cancel
    the nominal leading terms).
    """

    coeffs: tuple
    stripped_leading: int = 0

    @classmethod
    def from_coeffs(cls, coeffs) -> "PolyReal":
        a = [float(v) for v in coeffs]
        stripped = 0
        while len(a) > 1 and a[-1] == 0.0:
            a.pop()
            stripped += 1
        if not a:
            a = [0.0]
        return cls(tuple(a), stripped)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative_coeffs(self) -> np.ndarray:
        a = np.asarray(self.coeffs)
        return a[1:] * np.arange(1, a.size)

    def reversed(self) -> "PolyReal":
        """z^deg * P(1/z): roots are the reciprocals of the roots of P."""
        return PolyReal.from_coeffs(self.coeffs[::-1])


@dataclass(frozen=True)
class DiskRootReport:
    roots: tuple
    count_inside: int
    count_on: int
    count_outside: int
    stripped_leading: int


def reduce_to_polynomial(sys: DelaySystem) -> PolyReal:
    """Reduce a rational-delay system to its unit-disk polynomial.

    Requires sys.tau_rational = m/n.  Stability of the closed loop is
    equivalent to the returned polynomial having no roots with |z| <= 1.
    """
    if sys.tau_rational is None:
        raise ValueError("polynomial reduction needs an exact rational delay")
    a = np.zeros(sys.tau_rational.num + 2 * sys.tau_rational.den + 1)
    for k, v in disk_terms(sys).items():
        a[k] = v
    return PolyReal.from_coeffs(a)


def disk_terms(sys: DelaySystem) -> dict:
    """The nonzero terms {k: a_k} of :func:`reduce_to_polynomial`, with no dense array."""
    m, n = sys.tau_rational.num, sys.tau_rational.den
    terms = {0: 1.0, m: sys.c1 + sys.c2, m + 2 * n: sys.c1 - sys.c2}
    terms[2 * n] = terms.get(2 * n, 0.0) + 1.0
    return {k: terms[k] for k in sorted(terms) if terms[k]}


def disk_roots(p: PolyReal) -> DiskRootReport:
    """All roots of ``p`` via the companion matrix, classified by modulus.

    One Newton polish per root, kept only where it is finite (p'(z) = 0, or
    a huge root from a nearly vanishing leading coefficient overflowing p);
    roots with | |z| - 1 | < ``_ON_CIRCLE_TOL`` count as on the unit
    circle.  A degree-0 polynomial yields the empty report.
    """
    if p.degree == 0:
        return DiskRootReport((), 0, 0, 0, p.stripped_leading)
    roots = np.roots(p.coeffs[::-1]).astype(complex)
    dcoef = p.derivative_coeffs()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        polished = roots - np.polyval(p.coeffs[::-1], roots) / np.polyval(dcoef[::-1], roots)
    roots = np.where(np.isfinite(polished), polished, roots)
    mod = np.abs(roots)
    on = np.abs(mod - 1.0) < _ON_CIRCLE_TOL
    inside = (~on) & (mod < 1.0)
    outside = (~on) & (mod > 1.0)
    return DiskRootReport(
        tuple(roots),
        int(inside.sum()),
        int(on.sum()),
        int(outside.sum()),
        p.stripped_leading,
    )


def _inners_positive(M: np.ndarray) -> bool:
    s = M.shape[0]
    k = 0
    while s - 2 * k >= 1:
        if np.linalg.det(M[k : s - k, k : s - k]) <= 0:
            return False
        k += 1
    return True


def jury_matrices(p: PolyReal):
    """The two (m-1)x(m-1) innerwise test matrices for ``p`` (degree m >= 2)."""
    a = np.asarray(p.coeffs)
    m = p.degree
    if m < 2:
        raise ValueError("Jury matrices need degree >= 2")
    lower = np.zeros((m - 1, m - 1))
    anti = np.zeros((m - 1, m - 1))
    for i in range(1, m):
        for j in range(1, m):
            if j <= i:
                lower[i - 1, j - 1] = a[m - i + j]
            if i + j - m >= 0:
                anti[i - 1, j - 1] = a[i + j - m]
    return lower + anti, lower - anti


def jury_all_inside(p: PolyReal) -> bool:
    """True iff every root of ``p`` lies strictly inside the unit circle.

    Innerwise criterion: with leading coefficient a_m > 0 (the polynomial is
    negated first when needed; roots are unchanged), all roots are inside
    iff F(1) > 0, (-1)^m F(-1) > 0, and both test matrices from
    :func:`jury_matrices` are positive innerwise.
    """
    a = np.asarray(p.coeffs, dtype=float)
    m = p.degree
    if m == 0:
        if a[0] == 0.0:
            raise ValueError("zero polynomial")
        return True
    if a[-1] < 0:
        a = -a
        p = PolyReal.from_coeffs(a)
    if np.polyval(a[::-1], 1.0) <= 0:
        return False
    if ((-1.0) ** m) * np.polyval(a[::-1], -1.0) <= 0:
        return False
    if m == 1:
        return True
    plus, minus = jury_matrices(p)
    return _inners_positive(plus) and _inners_positive(minus)


@dataclass(frozen=True)
class PolyStability:
    state: StabilityState
    report: DiskRootReport
    poly: PolyReal

    @property
    def jury_stable(self) -> Optional[bool]:
        """:func:`jury_all_inside` on z^deg P(1/z), computed when read.

        All reciprocal roots strictly inside iff all roots of P are strictly
        outside.  None when P(0) = 0 (the reversed polynomial degenerates;
        z = 0 is then a root inside the disk and the verdict is unstable
        regardless).
        """
        if self.poly.coeffs[0] == 0.0:
            return None
        return jury_all_inside(self.poly.reversed())


def stability_from_poly(p: PolyReal) -> PolyStability:
    """Three-way verdict from the disk-root oracle, with a Jury cross-route.

    stable   : no roots with |z| <= 1 (within ``_ON_CIRCLE_TOL`` counts as on)
    marginal : no roots strictly inside, at least one on the circle
    unstable : at least one root strictly inside

    The Jury route, ``jury_stable``, runs only when it is read.
    """
    rep = disk_roots(p)
    if rep.count_inside > 0:
        state = StabilityState.UNSTABLE
    elif rep.count_on > 0:
        state = StabilityState.MARGINAL
    else:
        state = StabilityState.STABLE
    return PolyStability(state, rep, p)
