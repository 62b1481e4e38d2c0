"""Sensitivity of the stabilised loop to small perturbations of the delay.

A delay perturbed away from a stabilising value (zero or an even integer)
always re-creates unstable roots, but only at frequencies of order 1/|eps|.
This module computes the exclusion/existence bounds for the lowest unstable
frequency lambda_eps, locates it, and constructs the on-axis witness pair
(delta*, beta*) that certifies existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .chareq import DelaySystem, ExpSum, equal_gain_system
from .contour import min_unstable_imag
from .polyform import StabilityState
from .regions import classify, exclusion_constant

__all__ = [
    "PerturbationCase",
    "RobustnessBounds",
    "WitnessFEps",
    "SweepRow",
    "WindowEmpty",
    "LambdaEpsNotFound",
    "bounds_for",
    "perturbed_system",
    "check_low_freq_clear",
    "find_lambda_eps",
    "witness_F_epsilon",
    "h_delta_expsum",
    "sweep",
]


class WindowEmpty(ArithmeticError):
    """No admissible index k* in the witness window (eps too large)."""


class LambdaEpsNotFound(ArithmeticError):
    """No unstable root found below twice the existence cap."""


@dataclass(frozen=True)
class PerturbationCase:
    """Perturbed delay tau = base_tau + epsilon around a stabilising base.

    base_tau is 0 (with c > 0) or an even integer 2l with (2l, c) inside the
    closed-form window.  epsilon may be negative for even bases.
    """

    base_tau: float
    epsilon: float
    c: float

    def __post_init__(self):
        if self.base_tau + self.epsilon <= 0:
            raise ValueError("perturbed delay must stay positive")
        if self.l is None and self.epsilon <= 0:
            raise ValueError("base 0 takes epsilon > 0")
        if self.l is not None and (self.l < 1 or abs(self.base_tau - 2 * self.l) > 1e-12):
            raise ValueError("base_tau must be 0 or an even integer 2l")
        if exclusion_constant(round(self.base_tau), self.c) is None:
            raise ValueError(f"c = {self.c} does not stabilise the delay {self.base_tau}")

    @property
    def l(self) -> Optional[int]:
        """l of the base 2l, None at base 0."""
        return int(round(self.base_tau / 2)) if self.base_tau else None

    @property
    def tau(self) -> float:
        return self.base_tau + self.epsilon


@dataclass(frozen=True)
class RobustnessBounds:
    """Exclusion constant C1, existence constant C2, and the integer caps.

    s_eps is the smallest integer with s*pi > C1/|eps|; S_eps caps the
    existence stripe (largest integer with S*pi < C2/|eps| for even bases,
    smallest integer exceeding 1/eps for base 0).  Both are None at eps = 0.
    """

    c_tilde: Optional[float]
    C1: float
    C2: float
    s_eps: Optional[int]
    S_eps: Optional[int]


def bounds_for(case: PerturbationCase) -> RobustnessBounds:
    """Frequency bounds for the perturbed case.

    C1 is :func:`regions.exclusion_constant`.  Base 0: any fixed C2 > pi
    works for the exclusion side; 1.1*pi is used for reproducibility, while
    the existence cap comes from S_eps.  Base 2l: with
    |c| = sin(c~ pi / (2(2l-1))), C1 = (1 - c~) pi / 2 and C2 = pi / 2.
    """
    eps = abs(case.epsilon)
    C1 = exclusion_constant(round(case.base_tau), case.c)
    if case.base_tau == 0.0:
        c_tilde = None
        C2 = 1.1 * math.pi
        S_eps = math.floor(1.0 / eps) + 1 if eps > 0 else None
    else:
        c_tilde = 1.0 - 2.0 * C1 / math.pi
        C2 = math.pi / 2.0
        S_eps = math.ceil(C2 / (eps * math.pi)) - 1 if eps > 0 else None
    s_eps = math.floor(C1 / (eps * math.pi)) + 1 if eps > 0 else None
    return RobustnessBounds(c_tilde, C1, C2, s_eps, S_eps)


def perturbed_system(case: PerturbationCase) -> DelaySystem:
    return equal_gain_system(case.c, case.tau)


def check_low_freq_clear(case: PerturbationCase) -> bool:
    """True iff no root lies in Re >= 0 with |Im lam| below (1 - 1e-6) C1/|eps|.

    At eps = 0 the base system is exponentially stable, so every height is
    clear and the check reduces to the classifier.  By conjugate symmetry
    only the upper half-plane is scanned, by the strip scan of
    :func:`min_unstable_imag` up to that height, from a base step below
    ``regions.clearance_height`` (C1/eps itself for eps > 0 at base 2l).
    """
    sys = perturbed_system(case)
    if case.epsilon == 0.0:
        return classify(sys).state is StabilityState.STABLE
    height = bounds_for(case).C1 / abs(case.epsilon)
    return min_unstable_imag(sys, height * (1.0 - 1e-6)) is None


def find_lambda_eps(case: PerturbationCase) -> float:
    """Lowest unstable frequency inf{|Im lam| : root with Re lam >= 0}.

    The strip scan of :func:`min_unstable_imag` runs from a step below
    ``regions.clearance_height``, a few steps under lambda_eps at any |eps|,
    up to twice the cap 2*C2/|eps| + 2pi, and stops at the first root; the
    result must satisfy the sandwich C1/|eps| <= lambda_eps <= (S_eps + 1) pi.
    """
    if case.epsilon == 0.0:
        raise ValueError("eps = 0 has no unstable roots; the sweep reports it as absent")
    bounds = bounds_for(case)
    eps = abs(case.epsilon)
    cap = 2.0 * bounds.C2 / eps + 2.0 * math.pi
    val = min_unstable_imag(perturbed_system(case), 2.0 * cap)
    if val is None:
        raise LambdaEpsNotFound(
            f"no unstable root below |Im| = {2 * cap:.2f} for tau = {case.tau}"
        )
    lo = bounds.C1 / eps
    hi = (bounds.S_eps + 1) * math.pi
    if not (lo - 1e-6 <= val <= hi + 1e-6):
        raise LambdaEpsNotFound(
            f"lambda_eps = {val:.6f} violates the sandwich [{lo:.6f}, {hi:.6f}]"
        )
    return float(val)


def h_delta_expsum(l: int, delta: float) -> ExpSum:
    """h_delta(lam) = -e^{delta lam} e^{2l lam} (1 + e^{-2 lam}) / 2."""
    return ExpSum.of([(-0.5, 2 * l + delta), (-0.5, 2 * l + delta - 2.0)])


@dataclass(frozen=True)
class WitnessFEps:
    k_star: int
    l_star: int
    delta_star: float
    beta_star: float
    residual: float


def witness_F_epsilon(l: int, eps: float, c: float) -> WitnessFEps:
    """On-axis witness (delta*, beta*) with h_{delta*}(i beta*) = c, delta* <= eps.

    With n = l, the closed form
    delta* = (2n - 1)(1 - c~) / (2 k* - 1 + c~),
    beta*  = k* pi / (2n - 1 + delta*)
    places beta* at distance (1 - c~) pi / (2(2n - 1)) below k* pi/(2n - 1)
    and satisfies h_{delta*}(i beta*) = c identically provided
    k* = n (mod 2n - 1); the largest such k* not exceeding (2n - 1) S_eps is
    used, and l* = (k* - n)/(2n - 1) records the integer part.  The h
    residual is evaluated and must vanish to 1e-8, delta* must not exceed
    eps, and beta* stays below S_eps pi.
    """
    if l < 1 or eps <= 0:
        raise ValueError("need l >= 1 and eps > 0")
    case = PerturbationCase(2.0 * l, eps, c)
    bounds = bounds_for(case)
    n = l
    c_tilde = bounds.c_tilde
    S = bounds.S_eps
    top = (2 * n - 1) * S
    for k in range(top, top - 2 * (2 * n - 1) - 1, -1):
        if k <= 0:
            break
        if k % (2 * n - 1) != n % (2 * n - 1):
            continue
        l_star = (k - n) // (2 * n - 1)
        delta = (2 * n - 1) * (1.0 - c_tilde) / (2 * k - 1 + c_tilde)
        beta = k * math.pi / (2 * n - 1 + delta)
        if not (0.0 < delta <= eps and beta <= S * math.pi):
            continue
        h = h_delta_expsum(n, delta)
        residual = abs(complex(h(np.array([1j * beta]))[0]) - c)
        if residual < 1e-8:
            return WitnessFEps(k, l_star, delta, beta, residual)
    raise WindowEmpty(
        f"no admissible k* near (2n-1) S_eps = {top}; eps = {eps} too large for the construction"
    )


@dataclass(frozen=True)
class SweepRow:
    eps: float
    lambda_eps: Optional[float]
    eps_lambda_eps: Optional[float]
    low_freq_clear: Optional[bool]
    error: Optional[str] = None


def sweep(case_template: PerturbationCase, eps_list: Sequence[float]) -> List[SweepRow]:
    """Batch lambda_eps / clearance over a list of perturbations.

    Rows keep the input order; failures are captured per row and the sweep
    continues.  A row runs one strip scan, in :func:`find_lambda_eps`, at a
    cost flat in |eps| to 1e-6, and is clear iff lambda_eps >= (1 - 1e-6)
    C1/|eps|; eps = 0 rows report lambda_eps as absent (stable base) and take
    :func:`check_low_freq_clear`.
    """
    rows: List[SweepRow] = []
    for eps in eps_list:
        try:
            case = replace(case_template, epsilon=float(eps))
            if eps == 0.0:
                rows.append(SweepRow(float(eps), None, None, check_low_freq_clear(case)))
                continue
            lam = find_lambda_eps(case)
            clear = lam >= (1.0 - 1e-6) * bounds_for(case).C1 / abs(eps)
            rows.append(SweepRow(float(eps), lam, abs(eps) * lam, clear))
        except Exception as exc:  # per-row capture by contract
            rows.append(SweepRow(float(eps), None, None, None, f"{type(exc).__name__}: {exc}"))
    return rows
