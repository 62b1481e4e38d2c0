"""System definition and characteristic-function evaluation.

The plant is a unit-speed wave on (0, 1), pinned at x = 0, driven through a
Neumann boundary condition at x = 1 by a control signal delayed by tau.
Rewriting the delay line as a transport equation w(x, t) = u(t - tau*x) and
closing the loop with

    u(t) = -c1 * w(1, t) - c2 * z_t(1, t)

gives a cascade system whose eigenvalues are the zeros of an entire function
of exponential type.  This module evaluates that function (one formula for
every gain pair: equal gains and direct feedback are points of the loop),
the eigenfunctions, and the resolvent of the closed-loop generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Rational",
    "DelayGains",
    "CharKind",
    "DelaySystem",
    "ExpSum",
    "NearSpectrum",
    "NotACharRoot",
    "QuadratureTooCoarse",
    "char_expsum",
    "eval_char",
    "eval_g",
    "eigenfunction",
    "resolvent_apply",
    "fd_apply_shifted_generator",
    "equal_gain_system",
    "direct_feedback_system",
    "rational_from_float",
]

# Scaled evaluation kicks in beyond this real exponent (exp(600) is still
# representable but products of two such terms are not).
_EXP_GUARD = 600.0

# |char(lam)| below this puts lam at (or near) a characteristic root
_NEAR_SPECTRUM = 1e-9


class NearSpectrum(ValueError):
    """The requested point is too close to (or at) a characteristic root."""


class NotACharRoot(ValueError):
    """Eigenfunction requested at a point that is not a characteristic root."""


class QuadratureTooCoarse(ValueError):
    """The sampling grid cannot resolve the resolvent quadrature."""


@dataclass(frozen=True)
class Rational:
    """Exact rational value num/den with den > 0 and gcd(|num|, den) = 1."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(abs(self.num), self.den)
        if g != 1:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")

    @classmethod
    def reduced(cls, num: int, den: int) -> "Rational":
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den) or 1
        return cls(num // g, den // g)

    @classmethod
    def from_string(cls, text: str) -> "Rational":
        if "/" in text:
            a, b = text.split("/", 1)
            return cls.reduced(int(a), int(b))
        return cls.reduced(int(text), 1)

    @property
    def value(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _reproduces(rat: Rational, x: float) -> bool:
    """Whether ``rat`` stands for the float ``x``: within 4 ulp of it, and 0 only for 0."""
    return abs(rat.value - x) <= 4.0 * math.ulp(max(1.0, abs(x))) and (rat.num != 0 or x == 0)


def rational_from_float(x: float) -> Optional[Rational]:
    """Small-denominator rational reproducing ``x`` to a few ulps, or None.

    Recovers values that genuinely are small fractions (decimal literals,
    convergents entered exactly); mere good approximations such as pi's
    convergents are rejected so that rationality stays an explicit choice.
    A nonzero ``x`` never gives 0/1, which is within 4 ulp of every |x| below about 8.9e-16.
    """
    if not math.isfinite(x):
        return None
    frac = Fraction(x).limit_denominator(10**6)
    rat = Rational(frac.numerator, frac.denominator)
    return rat if _reproduces(rat, x) else None


@dataclass(frozen=True)
class DelayGains:
    """Feedback gains: c1 on the delay-line output, c2 on the boundary velocity."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("gains must be finite")


class CharKind(Enum):
    """The one-gain family a region function works on; systems carry no tag.

    CASCADE_EQUAL_GAINS    c1 = c2 = c
    DIRECT_DELAY_FEEDBACK  pure delayed velocity feedback z_x(1,t) = -k z_t(1,t-tau),
                           gain k stored in c2 with c1 = 0
    """

    CASCADE_EQUAL_GAINS = "cascade_equal_gains"
    DIRECT_DELAY_FEEDBACK = "direct_delay_feedback"


@dataclass(frozen=True)
class DelaySystem:
    """Closed-loop system parameters: gains and a finite positive delay, with
    optionally a positive fraction reproducing it; one cascade loop for every gain pair."""

    gains: DelayGains
    tau: float
    tau_rational: Optional[Rational] = None

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be finite and positive")
        if self.tau_rational is not None and not _reproduces(self.tau_rational, self.tau):
            raise ValueError("tau_rational is not a positive fraction reproducing tau to 4 ulp")

    @property
    def c1(self) -> float:
        return self.gains.c1

    @property
    def c2(self) -> float:
        return self.gains.c2


def equal_gain_system(c: float, tau: float, tau_rational: Optional[Rational] = None) -> DelaySystem:
    if tau_rational is None:
        tau_rational = rational_from_float(tau)
    return DelaySystem(DelayGains(c, c), tau, tau_rational)


def direct_feedback_system(k: float, tau: float, tau_rational: Optional[Rational] = None) -> DelaySystem:
    if tau_rational is None:
        tau_rational = rational_from_float(tau)
    return DelaySystem(DelayGains(0.0, k), tau, tau_rational)


@dataclass(frozen=True)
class ExpSum:
    """Finite sum  sum_j coef_j * exp(rate_j * lam)  of complex exponentials.

    A Python or NumPy scalar ``lam`` is summed term by term with ``cmath``
    by :meth:`with_slope` and returns a NumPy complex scalar; an array ``lam``
    is evaluated vectorised.  Every evaluation (and the derivative's) rescales
    by :meth:`_shift`, the one rule: by exp(-M) at a point where some
    rate*Re(lam) exceeds ``_EXP_GUARD`` in size, M the largest; the factor is
    real positive, so zeros, arguments and winding numbers are unchanged.
    """

    coefs: tuple
    rates: tuple

    @classmethod
    def of(cls, terms: Sequence[tuple]) -> "ExpSum":
        merged: dict = {}
        for c, a in terms:
            merged[float(a)] = merged.get(float(a), 0j) + complex(c)
        kept = sorted((a, c) for a, c in merged.items() if c != 0)
        return cls(tuple(c for _, c in kept), tuple(a for a, _ in kept))

    def _shift(self, re):
        """Rescaling exponent at the real part(s) ``re`` (a float or an array):
        the largest rate*re where its size exceeds the guard, else 0.  Rates
        are sorted, so the largest sits at an end.  A plain 0.0 means no point needs it.
        """
        if not self.rates:
            return 0.0
        lo, hi = self.rates[0], self.rates[-1]
        if isinstance(re, float):
            top = hi * re if re >= 0.0 else lo * re
            return top if abs(top) > _EXP_GUARD else 0.0
        if np.max(np.abs(re), initial=0.0) * max(abs(lo), abs(hi)) <= _EXP_GUARD:
            return 0.0
        top = np.maximum(lo * re, hi * re)
        return np.where(np.abs(top) > _EXP_GUARD, top, 0.0)

    def __call__(self, lam):
        if isinstance(lam, (complex, float, int, np.number)):
            return np.complex128(self.with_slope(lam)[0])
        lam = np.asarray(lam, dtype=complex)
        shift = self._shift(lam.real)
        out = np.zeros(lam.shape, dtype=complex)
        # each term in place in one work array (two arrays the size of lam, not
        # three), factors in the order of c * exp(a * lam - shift): swapped,
        # numpy's SIMD complex products round differently
        e = np.empty_like(out)
        for c, a in zip(self.coefs, self.rates):
            np.multiply(a, lam, out=e)
            e -= shift
            np.exp(e, out=e)
            np.multiply(c, e, out=e)
            out += e
        return out

    def magnitude(self, lam):
        """sum_j |coef_j exp(rate_j lam)|, rescaled exactly as the sum is at ``lam``.

        The size of the terms that cancel in a zero, so |sum| / magnitude is
        the relative residual of an approximate root.
        """
        re = np.real(lam)
        shift = self._shift(re)
        return sum(abs(c) * np.exp(a * re - shift) for c, a in zip(self.coefs, self.rates))

    def derivative(self) -> "ExpSum":
        """f' on the same rates, coefficients 0j + coef_j * rate_j (0 at rate 0, kept),
        so that it is rescaled wherever and by as much as f."""
        return ExpSum(tuple(0j + c * a for c, a in zip(self.coefs, self.rates)), self.rates)

    def with_slope(self, lam) -> tuple:
        """``(f(lam), f'(lam))`` at a scalar ``lam``, both summed from one set
        of exponentials at one rescaling: bit for bit ``(self(lam),
        self.derivative()(lam))``, as the derivative shares the rates."""
        lam = complex(lam)
        shift = self._shift(lam.real)
        f = df = 0j
        for c, a in zip(self.coefs, self.rates):
            e = cmath.exp(a * lam - shift)
            f += c * e
            df += (0j + c * a) * e
        return f, df


def char_expsum(sys: DelaySystem) -> ExpSum:
    """Characteristic function of ``sys`` as an exponential sum, for every gain pair:
    -cosh(lam)(1 + c1 e^{-tau lam}) - c2 sinh(lam) e^{-tau lam}; a zero coefficient drops its term."""
    c1, c2, tau = sys.c1, sys.c2, sys.tau
    return ExpSum.of(
        [
            (-0.5, 1.0),
            (-0.5, -1.0),
            (-(c1 + c2) / 2.0, 1.0 - tau),
            (-(c1 - c2) / 2.0, -1.0 - tau),
        ]
    )


def eval_char(sys: DelaySystem, lam):
    """Evaluate the characteristic function of ``sys`` at ``lam``.

    Zero exactly at the closed-loop eigenvalues.  Values with very large
    |Re lam| are returned in the rescaled form described in :class:`ExpSum`.
    """
    return char_expsum(sys)(lam)


def eval_g(sys: DelaySystem, lam):
    """Gain map g(lam) = -(exp(tau*lam) + exp((tau-2)*lam)) / 2.

    For equal gains c1 = c2 = c, eval_char(sys, lam) = 0 iff g(lam) = c:
    g(lam) - c = exp((tau-1)*lam) eval_char(sys, lam).
    """
    if sys.c1 != sys.c2:
        raise ValueError("g is defined for equal gains c1 == c2 only")
    return g_expsum(sys.tau)(lam)


def g_expsum(tau: float, offset: float = 0.0) -> ExpSum:
    """g(lam) - offset as an exponential sum (offset enters the constant term)."""
    return ExpSum.of([(-0.5, tau), (-0.5, tau - 2.0), (-offset, 0.0)])


def eigenfunction(sys: DelaySystem, lam: complex, grid_n: int):
    """Sample the eigenfunction triple (f, g, h) at ``grid_n``+1 uniform points.

    For lam != 0:  f = e^{-tau lam} sinh(lam x),  g = lam f,
    h = lam cosh(lam) e^{-tau lam x}.  For lam = 0 (admissible only when
    c1 = -1):  (x, 1, 1).

    Raises :class:`NotACharRoot` if |eval_char(sys, lam)| >= ``_NEAR_SPECTRUM``.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be positive")
    x = np.linspace(0.0, 1.0, grid_n + 1)
    if lam == 0:
        if sys.c1 != -1.0:
            raise NotACharRoot("lambda = 0 is an eigenvalue only when c1 = -1")
        return x, x.copy(), np.ones_like(x), np.ones_like(x)
    res = abs(eval_char(sys, lam))
    if res >= _NEAR_SPECTRUM:
        raise NotACharRoot(f"|char({lam})| = {res:.3e} >= {_NEAR_SPECTRUM:.1e}")
    tau = sys.tau
    f = np.exp(-tau * lam) * np.sinh(lam * x)
    g = lam * f
    h = lam * np.cosh(lam) * np.exp(-tau * lam * x)
    return x, f, g, h


def _cumtrapz(y: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dx), out=out[1:])
    return out


def _resolvent_on_grid(sys: DelaySystem, lam: complex, x, f1, g1, h1):
    c1, c2, tau = sys.c1, sys.c2, sys.tau
    dx = x[1] - x[0]
    u = lam * f1 + g1
    # particular solutions by variation of parameters (cumulative trapezoid)
    C = _cumtrapz(np.cosh(lam * x) * u, dx)
    S = _cumtrapz(np.sinh(lam * x) * u, dx)
    F0 = -(np.sinh(lam * x) * C - np.cosh(lam * x) * S) / lam
    H0 = np.exp(-tau * lam * x) * _cumtrapz(np.exp(tau * lam * x) * (tau * h1), dx)
    F1 = np.trapezoid(np.cosh(lam * (1 - x)) * u, dx=dx) + np.trapezoid(
        np.exp(-tau * lam * (1 - x)) * (tau * h1), dx=dx
    )
    # Boundary datum for the transport/velocity coupling.  The c2*f1(1) term
    # is required for the output to satisfy h(0) = -c1 h(1) - c2 g(1) with
    # g = lam f - f1; without it the boundary condition is violated by
    # exactly c2*f1(1).
    F2 = (
        c2 * np.trapezoid(np.sinh(lam * (1 - x)) * u, dx=dx)
        - c1 * np.trapezoid(np.exp(-tau * lam * (1 - x)) * (tau * h1), dx=dx)
        + c2 * f1[-1]
    )
    M = np.array(
        [
            [lam * np.cosh(lam), -np.exp(-tau * lam)],
            [c2 * lam * np.sinh(lam), 1.0 + c1 * np.exp(-tau * lam)],
        ]
    )
    a, b = np.linalg.solve(M, np.array([F1, F2]))
    f = a * np.sinh(lam * x) + F0
    g = lam * f - f1
    h = b * np.exp(-tau * lam * x) + H0
    return f, g, h


def resolvent_apply(
    sys: DelaySystem,
    lam: complex,
    y,
    quad_tol: float = 1e-5,
):
    """Apply the resolvent (lam I - A)^{-1} to a sampled triple ``y``.

    Parameters
    ----------
    y : tuple of three equal-length 1-D arrays (f1, g1, h1) sampled on the
        uniform grid over [0, 1] (at least 9 points).
    quad_tol : raise :class:`QuadratureTooCoarse` when halving the sample
        count moves the output by more than this in max norm.

    Raises :class:`NearSpectrum` when |eval_char(sys, lam)| falls below
    ``_NEAR_SPECTRUM`` (lam is then at or near an eigenvalue).  Returns the
    triple (f, g, h) on the same grid.  The construction solves
    the shifted generator equations exactly up to quadrature error and
    satisfies the generator's domain boundary conditions.  Intended for
    desk-scale arguments: the transport quadrature carries exp(tau*Re lam)
    factors, so accuracy degrades once tau*|Re lam| exceeds roughly 25.
    """
    f1, g1, h1 = (np.asarray(v, dtype=complex) for v in y)
    n = f1.size - 1
    if g1.size != n + 1 or h1.size != n + 1:
        raise ValueError("component grids differ")
    if n < 8 or n % 2:
        raise ValueError("need an even cell count >= 8")
    lam = complex(lam)
    if abs(lam) < 1e-6:
        raise NearSpectrum("resolvent formula is singular at the origin; shift lam")
    if abs(eval_char(sys, lam)) < _NEAR_SPECTRUM:
        raise NearSpectrum(f"lam = {lam} is within {_NEAR_SPECTRUM:.1e} of the spectrum")
    x = np.linspace(0.0, 1.0, n + 1)
    fine = _resolvent_on_grid(sys, lam, x, f1, g1, h1)
    coarse = _resolvent_on_grid(sys, lam, x[::2], f1[::2], g1[::2], h1[::2])
    err = max(np.abs(c - f[::2]).max() for c, f in zip(coarse, fine))
    if err > quad_tol:
        raise QuadratureTooCoarse(f"coarse/fine disagreement {err:.2e} > {quad_tol:.1e}")
    return fine


def fd_apply_shifted_generator(sys: DelaySystem, lam: complex, x, X):
    """Apply (lam I - A) to a sampled triple by finite differences.

    A(f, g, h) = (g, f'', -h'/tau).  Fourth-order central stencils are used
    for f'' and h', so the returned triple covers the interior nodes
    x[2:-2] only (the first component, which needs no differentiation, is
    restricted to match).  Used to validate the resolvent independently.
    """
    f, g, h = (np.asarray(v, dtype=complex) for v in X)
    dx = x[1] - x[0]
    fpp = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * dx**2)
    hp = (-h[4:] + 8 * h[3:-1] - 8 * h[1:-3] + h[:-4]) / (12 * dx)
    r1 = lam * f[2:-2] - g[2:-2]
    r2 = lam * g[2:-2] - fpp
    r3 = lam * h[2:-2] + hp / sys.tau
    return r1, r2, r3
