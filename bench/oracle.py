"""Reference computations the benchmark checks delaywave against.

Everything here is derived from the paper's closed forms or built from
numpy primitives, never from delaywave itself, so a check that passes is
an agreement between two independent routes.
"""

import math

import numpy as np


def window(tau: int, kind: str):
    """Closed-form stability window (lower, upper) for an even integer delay.

    Equal gains: sin(pi/(2(tau-1))); direct feedback: tan(pi/(2 tau)); the
    window lies on the negative side for tau = 4l-2, the positive side for
    tau = 4l.  Returns None for any other delay.
    """
    if tau < 2 or tau % 2:
        return None
    if kind == "cascade":
        w = math.sin(math.pi / (2 * (tau - 1)))
    else:
        w = math.tan(math.pi / (2 * tau))
    return (-w, 0.0) if tau % 4 == 2 else (0.0, w)


def critical_gains(m: int, n: int):
    """Equal-gain critical set: 0 and -cos(m k pi / |m - n|), k = 0..2|m-n|-1."""
    d = abs(m - n)
    return sorted({0.0, *(-math.cos(m * k * math.pi / d) for k in range(2 * d))})


def disk_coeffs(m: int, n: int, c1: float, c2: float) -> np.ndarray:
    """Ascending coefficients of (c1-c2) z^(m+2n) + z^(2n) + (c1+c2) z^m + 1."""
    a = np.zeros(m + 2 * n + 1)
    a[0] += 1.0
    a[m] += c1 + c2
    a[2 * n] += 1.0
    a[m + 2 * n] += c1 - c2
    return a


def disk_roots(m: int, n: int, c1: float, c2: float) -> np.ndarray:
    a = disk_coeffs(m, n, c1, c2)
    top = np.nonzero(a)[0].max()
    return np.roots(a[: top + 1][::-1]).astype(complex)


def lam_roots(m: int, n: int, c1: float, c2: float, im_lo: float, im_hi: float) -> np.ndarray:
    """Characteristic roots lam = -n log z + 2 pi i n k with Im in [im_lo, im_hi]."""
    out = []
    for z in disk_roots(m, n, c1, c2):
        base = -n * np.log(z)
        period = 2.0 * math.pi * n
        k0 = math.ceil((im_lo - base.imag) / period)
        k1 = math.floor((im_hi - base.imag) / period)
        out += [base + 2j * math.pi * n * k for k in range(k0, k1 + 1)]
    return np.array(out, dtype=complex)


def spectral_abscissa(m: int, n: int, c1: float, c2: float) -> float:
    return float(-n * np.log(np.abs(disk_roots(m, n, c1, c2)).min()))


def char_residual(lam: complex, tau: float, c1: float, c2: float) -> float:
    """|chi(lam)| relative to the largest term of the cascade characteristic function.

    chi(lam) = cosh(lam) (1 + c1 e^{-tau lam}) + c2 sinh(lam) e^{-tau lam},
    multiplied through by e^{lam} so that no term overflows near the roots.
    """
    lam = complex(lam)
    terms = [
        0.5 * np.exp(2 * lam),
        0.5,
        0.5 * (c1 + c2) * np.exp((2 - tau) * lam),
        0.5 * (c1 - c2) * np.exp(-tau * lam),
    ]
    return abs(sum(terms)) / max(abs(t) for t in terms)


def robustness_bounds(base: float, eps: float, c: float):
    """(C1, S_eps) of the paper for tau = base + eps around a stabilising base.

    Base 0: C1 = pi/2 and S_eps = floor(1/|eps|) + 1.  Base 2l: with
    |c| = sin(c~ pi / (2(2l-1))), C1 = (1 - c~) pi/2, C2 = pi/2 and
    S_eps = ceil(C2 / (|eps| pi)) - 1.
    """
    e = abs(eps)
    if base == 0.0:
        C1 = math.pi / 2
        S = math.floor(1.0 / e) + 1
    else:
        l = round(base / 2)
        c_tilde = (2 * (2 * l - 1) / math.pi) * math.asin(abs(c))
        C1 = (1.0 - c_tilde) * math.pi / 2
        S = math.ceil((math.pi / 2) / (e * math.pi)) - 1
    return C1, S
