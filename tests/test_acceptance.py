"""Acceptance gate: every criterion at its stated tolerance and runtime cap.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints ``ACCEPTANCE <nn> PASS/FAIL <name>`` and then
asserts, so a failure is visible both in the line and in the pytest report.
"""

import math
import time

import numpy as np

from delaywave.chareq import (
    CharKind,
    DelayGains,
    DelaySystem,
    Rational,
    equal_gain_system,
    eval_char,
    fd_apply_shifted_generator,
    resolvent_apply,
)
from delaywave.contour import ComplexRect, count_in_disk, isolate_and_refine
from delaywave.pdesim import (
    SimConfig,
    decay_rate,
    default_fit_window,
    named_ic,
    simulate,
)
from delaywave.polyform import StabilityState, disk_roots, jury_all_inside, PolyReal, reduce_to_polynomial
from delaywave.regions import classify, hale_two_delay, region_boundaries_bisect
from delaywave.robustness import (
    PerturbationCase,
    bounds_for,
    check_low_freq_clear,
    find_lambda_eps,
    witness_F_epsilon,
)
from delaywave.contour import spectral_abscissa

PI = math.pi


class _Gate:
    def __init__(self, number, name, runtime_cap):
        self.number = number
        self.name = name
        self.cap = runtime_cap

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.checks = []
        return self

    def check(self, ok, detail=""):
        self.checks.append((bool(ok), detail))

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        failed = [d for ok, d in self.checks if not ok]
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} FAIL {self.name} ({elapsed:.2f}s) raised {exc}")
            return False
        ok = not failed and elapsed < self.cap
        status = "PASS" if ok else "FAIL"
        extra = f" violations: {failed}" if failed else ""
        if elapsed >= self.cap:
            extra += f" runtime {elapsed:.2f}s exceeds {self.cap}s"
        print(f"ACCEPTANCE {self.number:02d} {status} {self.name} ({elapsed:.2f}s){extra}")
        assert ok, f"criterion {self.number} {self.name}:{extra}"
        return False


def test_01_region_endpoints_cascade():
    with _Gate(1, "region endpoints (cascade)", 5.0) as g:
        lo, hi = region_boundaries_bisect(2.0, CharKind.CASCADE_EQUAL_GAINS)
        g.check(abs(lo - (-math.sin(PI / 2))) < 1e-6, f"tau=2 lower {lo}")
        g.check(abs(hi - 0.0) < 1e-6, f"tau=2 upper {hi}")
        lo, hi = region_boundaries_bisect(4.0, CharKind.CASCADE_EQUAL_GAINS)
        g.check(abs(lo - 0.0) < 1e-6, f"tau=4 lower {lo}")
        g.check(abs(hi - math.sin(PI / 6)) < 1e-6, f"tau=4 upper {hi}")


def test_02_region_endpoints_direct():
    with _Gate(2, "region endpoints (direct feedback)", 5.0) as g:
        lo, hi = region_boundaries_bisect(2.0, CharKind.DIRECT_DELAY_FEEDBACK)
        g.check(abs(lo - (-math.tan(PI / 4))) < 1e-6, f"tau=2 lower {lo}")
        g.check(abs(hi - 0.0) < 1e-6, f"tau=2 upper {hi}")
        lo, hi = region_boundaries_bisect(4.0, CharKind.DIRECT_DELAY_FEEDBACK)
        g.check(abs(lo - 0.0) < 1e-6, f"tau=4 lower {lo}")
        g.check(abs(hi - math.tan(PI / 8)) < 1e-6, f"tau=4 upper {hi}")


def test_03_emptiness_grid():
    with _Gate(3, "emptiness off the even delays", 30.0) as g:
        for num, den in [(1, 2), (1, 1), (3, 2), (3, 1), (5, 1)]:
            rat = Rational(num, den)
            stable_hits = 0
            for c in np.linspace(-3.0, 3.0, 601):
                sysd = equal_gain_system(float(round(c, 10)), rat.value, rat)
                if classify(sysd).state is StabilityState.STABLE:
                    stable_hits += 1
            g.check(stable_hits == 0, f"tau={num}/{den}: {stable_hits} stable hits")


def test_04_irrational_delay_instability():
    with _Gate(4, "two-delay criterion empty region", 1.0) as g:
        grid = np.linspace(-3.0, 3.0, 50)
        hits = 0
        for c1 in grid:
            for c2 in grid:
                if hale_two_delay(-1.0, -(c1 + c2), -(c1 - c2)):
                    hits += 1
        g.check(hits == 0, f"{hits} stable grid points")


def test_05_counting_laws():
    with _Gate(5, "argument-principle counting laws", 10.0) as g:
        for m, n in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]:
            for c in (1.5, -1.5):
                N = count_in_disk(reduce_to_polynomial(equal_gain_system(c, m / n, Rational(m, n))))
                g.check(N == m, f"N({c}; {m}/{n}) = {N} != {m}")
        rng = np.random.default_rng(2024)
        done = mismatches = 0
        while done < 100:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            if math.gcd(m, n) != 1:
                continue
            c = float(rng.uniform(-2.0, 2.0))
            p = reduce_to_polynomial(equal_gain_system(c, m / n, Rational(m, n)))
            rep = disk_roots(p)
            if p.degree == 0 or min(abs(abs(z) - 1.0) for z in rep.roots) < 1e-6:
                continue
            if count_in_disk(p) != rep.count_inside:
                mismatches += 1
            done += 1
        g.check(mismatches == 0, f"{mismatches} winding/oracle mismatches")


def test_06_jury_cross_check():
    with _Gate(6, "Jury vs modulus oracle", 5.0) as g:
        rng = np.random.default_rng(77)
        mismatches = 0
        for _ in range(200):
            deg = int(rng.integers(1, 9))
            roots = []
            while len(roots) < deg:
                r = float(rng.uniform(0.05, 2.0))
                if abs(r - 1.0) < 1e-3:
                    continue
                if deg - len(roots) >= 2 and rng.random() < 0.6:
                    th = float(rng.uniform(0.05, PI - 0.05))
                    roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
                else:
                    roots.append(r if rng.random() < 0.5 else -r)
            coeffs = np.real(np.poly(roots))[::-1]
            p = PolyReal.from_coeffs(coeffs)
            want = all(abs(z) < 1.0 for z in roots)
            if jury_all_inside(p) != want:
                mismatches += 1
        g.check(mismatches == 0, f"{mismatches} mismatches in 200")


def test_07_spectrum_structure():
    with _Gate(7, "spectrum structure (mult/sep/lines)", 10.0) as g:
        cases = [(2, 1, -0.25), (2, 1, -0.75), (2, 1, 0.4), (4, 1, 0.25), (4, 1, 0.125), (4, 1, 0.45)]
        for m, n, c in cases:
            sysd = equal_gain_system(c, m / n, Rational(m, n))
            p = reduce_to_polynomial(sysd)
            rep = disk_roots(p)
            mods = np.abs(np.asarray(rep.roots))
            re_lo = -n * math.log(mods.max()) - 0.3
            re_hi = -n * math.log(mods.min()) + 0.3
            # fundamental strip, half-open at the period so each root family
            # appears exactly once (real-axis roots included)
            rect = ComplexRect(re_lo, re_hi, -1e-3, 2 * PI * n - 1e-3)
            roots = isolate_and_refine(sysd, rect)
            total = sum(r.multiplicity for r in roots)
            g.check(total == p.degree, f"{m}/{n},{c}: {total} roots vs degree {p.degree}")
            g.check(all(r.multiplicity <= 2 for r in roots), f"{m}/{n},{c}: multiplicity > 2")
            lams = [r.lam for r in roots]
            if len(lams) > 1:
                sep = min(abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1 :])
                g.check(sep > 0.1, f"{m}/{n},{c}: separation {sep:.3f}")
            res = {round(r.lam.real, 6) for r in roots}
            g.check(len(res) <= p.degree, f"{m}/{n},{c}: {len(res)} lines vs degree {p.degree}")


def test_08_robustness_sandwich_even_base():
    with _Gate(8, "perturbed even delay: exclusion + location", 10.0) as g:
        case = PerturbationCase(2.0, 0.05, -0.3)
        b = bounds_for(case)
        c_tilde = (2.0 / PI) * math.asin(0.3)
        g.check(abs(b.C1 - (1 - c_tilde) * PI / 2) < 1e-12, "C1 formula")
        g.check(abs(b.C1 - 1.26637) < 1e-3, f"C1 = {b.C1:.6f} vs quoted 1.26637")
        g.check(check_low_freq_clear(case), "no RHP roots below C1/eps")
        lam = find_lambda_eps(case)
        g.check(25.33 <= lam <= 31.42, f"lambda_eps = {lam:.4f} outside [25.33, 31.42]")


def test_09_robustness_scaling_base_zero():
    with _Gate(9, "perturbed zero delay: 1/eps scaling", 20.0) as g:
        for eps in (0.1, 0.05, 0.02):
            case = PerturbationCase(0.0, eps, 1.0)
            g.check(check_low_freq_clear(case), f"eps={eps}: clearance at pi/(2 eps)")
            lam = find_lambda_eps(case)
            prod = eps * lam
            g.check(
                PI / 2 - 1e-9 <= prod <= PI + eps * PI + 1e-9,
                f"eps={eps}: eps*lambda_eps = {prod:.6f}",
            )


def test_10_spectrum_time_domain_consistency():
    with _Gate(10, "spectral abscissa vs energy decay", 30.0) as g:
        for m, n, c in [(2, 1, -0.25), (4, 1, 0.25), (2, 1, -0.75)]:
            rat = Rational(m, n)
            cfg = SimConfig(rat, DelayGains(c, c), 40, 40.0, named_ic("mixed"))
            trace = simulate(cfg)
            target = 2 * spectral_abscissa(equal_gain_system(c, rat.value, rat))
            t0, t1 = default_fit_window(target, 40.0)
            rate = decay_rate(trace, t0, t1)
            rel = abs(rate - target) / abs(target)
            g.check(rel < 0.05, f"tau={m}/{n}, c={c}: rel gap {rel:.3%}")
        cons = SimConfig(Rational(2, 1), DelayGains(0.0, 0.0), 40, 20.0, named_ic("halfsine"))
        _, E = simulate(cons).arrays()
        g.check(np.abs(E - E[0]).max() < 1e-10, f"conservative drift {np.abs(E - E[0]).max():.2e}")
        ext = SimConfig(Rational(2, 1), DelayGains(-0.5, -0.5), 40, 10.0, named_ic("mixed"))
        late = [e for t, e in simulate(ext).samples if t >= 6.0]
        g.check(max(late) <= 1e-12, f"extinction max {max(late):.2e}")


def test_11_resolvent_residual():
    with _Gate(11, "resolvent residual at grid 4000", 10.0) as g:
        rng = np.random.default_rng(404)
        x = np.linspace(0.0, 1.0, 4001)
        worst = 0.0
        done = 0
        while done < 20:
            tau_choices = [(2.0, Rational(2, 1)), (1.0, Rational(1, 1)), (1.5, Rational(3, 2))]
            tau, rat = tau_choices[int(rng.integers(0, 3))]
            c1, c2 = (float(rng.uniform(-0.8, 0.8)) for _ in range(2))
            sysd = DelaySystem(DelayGains(c1, c2), tau, rat)
            lam = complex(rng.uniform(0.2, 1.5), rng.uniform(0.3, 2.0))
            if abs(eval_char(sysd, lam)) < 1e-3:
                continue
            f1 = rng.uniform(-1, 1) * np.sin(PI * x / 2) + rng.uniform(-1, 1) * np.sin(PI * x)
            g1 = rng.uniform(-1, 1) * np.cos(PI * x) + rng.uniform(-1, 1) * np.sin(PI * x / 2)
            h1 = rng.uniform(-1, 1) * np.cos(PI * x / 2) + rng.uniform(-1, 1)
            X = resolvent_apply(sysd, lam, (f1, g1, h1))
            R = fd_apply_shifted_generator(sysd, lam, x, X)
            err = max(np.abs(r - y[2:-2]).max() for r, y in zip(R, (f1, g1, h1)))
            worst = max(worst, err)
            done += 1
        g.check(worst < 1e-6, f"worst max-norm residual {worst:.2e}")


def test_12_existence_witness():
    with _Gate(12, "on-axis existence witness", 1.0) as g:
        w = witness_F_epsilon(1, 0.05, -0.3)
        b = bounds_for(PerturbationCase(2.0, 0.05, -0.3))
        g.check(w.residual < 1e-8, f"|h(i beta*) - c| = {w.residual:.2e}")
        g.check(0 < w.delta_star <= 0.05, f"delta* = {w.delta_star:.6f}")
        g.check(w.beta_star < b.S_eps * PI, f"beta* = {w.beta_star:.4f} vs {b.S_eps * PI:.4f}")
