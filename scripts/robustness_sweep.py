#!/usr/bin/env python3
"""Sweep delay perturbations and report the lowest unstable frequency.

Checks the exclusion/existence sandwich C1/|eps| <= lambda_eps <= (S_eps+1) pi
row by row and prints whether eps * lambda_eps stays bounded (it should: the
destabilising mode frequency scales like 1/|eps|).  Exits 1 when any row
failed (printed as ERROR).

    python scripts/robustness_sweep.py --base 2 --c -0.3 --eps 0.1,0.05,0.02,0.01
"""

import argparse
import sys

from delaywave.robustness import PerturbationCase, bounds_for, sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=float, default=2.0, help="0 or an even integer 2l")
    ap.add_argument("--c", type=float, default=-0.3)
    ap.add_argument("--eps", default="0.1,0.05,0.02,0.01")
    args = ap.parse_args()

    eps_list = [float(v) for v in args.eps.split(",")]
    template = PerturbationCase(args.base, eps_list[0], args.c)
    rows = sweep(template, eps_list)
    print(f"{'eps':>8} {'lambda_eps':>12} {'eps*lam':>10} {'clear':>6} {'C1/eps':>10} {'(S+1)pi':>10}")
    for row in rows:
        if row.error:
            print(f"{row.eps:>8} ERROR {row.error}")
            continue
        b = bounds_for(PerturbationCase(args.base, row.eps, args.c))
        lo = b.C1 / abs(row.eps) if row.eps else float("nan")
        hi = (b.S_eps + 1) * 3.141592653589793 if b.S_eps is not None else float("nan")
        lam = "absent" if row.lambda_eps is None else f"{row.lambda_eps:.4f}"
        el = "" if row.eps_lambda_eps is None else f"{row.eps_lambda_eps:.4f}"
        print(f"{row.eps:>8} {lam:>12} {el:>10} {str(row.low_freq_clear):>6} {lo:>10.4f} {hi:>10.4f}")
    return 1 if any(row.error for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
