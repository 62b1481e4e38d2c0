#!/usr/bin/env python3
"""Classify a gain grid for several delays and dump the verdicts as CSV.

Example:
    python scripts/region_scan.py --taus 2/1,4/1,3/1,3/2 --lo -1.5 --hi 1.5 --step 0.01 -o regions.csv

A gain whose classification fails is reported on stderr and left out of the
CSV; the scan goes on and the script exits 1.
"""

import argparse
import csv
import sys

from delaywave.chareq import Rational, equal_gain_system
from delaywave.regions import classify, stability_region
from delaywave.chareq import CharKind


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--taus", default="2/1,4/1,3/1,3/2", help="comma-separated rational delays")
    ap.add_argument("--lo", type=float, default=-1.5)
    ap.add_argument("--hi", type=float, default=1.5)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("-o", "--output", default="-")
    args = ap.parse_args()

    fh = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["tau", "c", "state", "closed_form_lower", "closed_form_upper"])
    steps = int(round((args.hi - args.lo) / args.step))
    failed = 0
    for tau_text in args.taus.split(","):
        rat = Rational.from_string(tau_text)
        region = stability_region(rat.value, CharKind.CASCADE_EQUAL_GAINS)
        for i in range(steps + 1):
            c = round(args.lo + i * args.step, 12)
            try:
                verdict = classify(equal_gain_system(c, rat.value, rat))
            except (ValueError, ArithmeticError) as exc:
                print(f"ERROR tau={tau_text} c={c:.12g}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            writer.writerow(
                [
                    tau_text,
                    f"{c:.12g}",
                    verdict.state.value,
                    "" if region.empty else f"{region.lower:.12g}",
                    "" if region.empty else f"{region.upper:.12g}",
                ]
            )
    if fh is not sys.stdout:
        fh.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
