#!/usr/bin/env python3
"""Dump the characteristic roots of equal-gain systems in a rectangle.

Produces plot-ready CSV (one row per root) for a sweep of gains at a fixed
rational delay, e.g. to watch the root lines cross the imaginary axis:

    python scripts/spectrum_portrait.py --tau 2/1 --gains -1.2:0.2:0.1 --im-max 20 -o portrait.csv

The residual column is |char(lam)| of the cascade function that
``delaywave.chareq.char_expsum`` gives every gain pair.  A gain whose roots
cannot be located is reported on stderr and left out of the CSV; the sweep
goes on and the script exits 1.
"""

import argparse
import csv
import sys

import numpy as np

from delaywave.chareq import Rational, equal_gain_system
from delaywave.contour import ComplexRect, isolate_and_refine, re_bound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", default="2/1")
    ap.add_argument("--gains", default="-1.2:0.2:0.1", help="lo:hi:step")
    ap.add_argument("--re-min", type=float, default=-2.0)
    ap.add_argument("--im-max", type=float, default=20.0)
    ap.add_argument("-o", "--output", default="-")
    args = ap.parse_args()

    rat = Rational.from_string(args.tau)
    lo, hi, step = (float(v) for v in args.gains.split(":"))
    fh = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["c", "re", "im", "residual", "multiplicity"])
    failed = 0
    for c in np.arange(lo, hi + 0.5 * step, step):
        c = float(round(c, 12))
        sysd = equal_gain_system(c, rat.value, rat)
        try:
            rect = ComplexRect(args.re_min, re_bound(sysd), 1e-3, args.im_max)
            found = isolate_and_refine(sysd, rect)
        except (ValueError, ArithmeticError) as exc:
            print(f"ERROR c={c:.12g}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        for rec in found:
            writer.writerow(
                [f"{c:.12g}", f"{rec.lam.real:.12g}", f"{rec.lam.imag:.12g}",
                 f"{rec.residual:.3e}", rec.multiplicity]
            )
    if fh is not sys.stdout:
        fh.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
