"""Deterministic command-line front end.

Subcommands mirror the analysis modules: ``region`` (closed-form window and
exact crossing-count boundaries), ``roots`` (isolate in a rectangle), ``count``
(disk or strip root counts), ``sweep-eps`` (delay-perturbation table),
``simulate`` (energy trace plus spectral cross-check), ``critical``
(critical gain set).  Output is CSV (header row, 12 significant digits) or
JSON with a versioned ``schema`` field.  Exit codes: 0 success, 1 usage
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import re
import sys
from typing import List, Optional

import numpy as np

from . import chareq, contour, pdesim, regions, robustness
from .chareq import CharKind, DelayGains, DelaySystem, Rational

__all__ = ["main"]

SCHEMA = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts like a negative number is a value, not an
        # option, in exponent notation or as a comma-separated list too
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def fmt(x) -> str:
    """Shortest float form capped at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _arg(convert, ok, expected: str, hint: str = ""):
    """argparse type: ``convert(text)`` if that succeeds and passes ``ok``,
    else a usage error (exit 1) naming what was ``expected``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}{hint}")
        return value

    return parse


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _delay(hint: str):
    return _arg(Rational.from_string, lambda r: r.num > 0, "a positive rational delay M/N", hint)


_POSITIVE_INT = _arg(int, lambda v: v > 0, "a positive integer")
_NONZERO_INT = _arg(int, lambda v: v != 0, "a nonzero integer")
_POSITIVE = _arg(float, lambda v: math.isfinite(v) and v > 0, "a positive number")
_FINITE = _arg(float, math.isfinite, "a finite number")
_MAX_SCAN_POINTS = 10**5
_SCAN = _arg(
    lambda t: tuple(float(v) for v in t.split(":")),
    lambda s: len(s) == 3 and _finite(s) and s[0] <= s[1] and s[2] > 0
    and (s[1] - s[0]) / s[2] < _MAX_SCAN_POINTS,
    f"lo:hi:step with finite lo <= hi, step > 0 and at most {_MAX_SCAN_POINTS} points",
)
_BASE = _arg(float, lambda b: b == 0 or (b > 0 and b % 2 == 0), "0 or an even integer 2l")
_FLOATS = _arg(lambda t: [float(v) for v in t.split(",")], _finite, "comma-separated numbers")


def _parse_tau(args) -> tuple:
    """Returns (tau, tau_rational or None)."""
    if args.tau is not None:
        return args.tau.value, args.tau
    if args.tau_real is not None:
        return args.tau_real, chareq.rational_from_float(args.tau_real)
    raise UsageError("provide --tau M/N or --tau-real X")


def _kind(name: str) -> CharKind:
    return {"cascade": CharKind.CASCADE_EQUAL_GAINS, "direct": CharKind.DIRECT_DELAY_FEEDBACK}[name]


@contextlib.contextmanager
def _out(path: Optional[str]):
    """The output stream: stdout for None or '-', else the file at ``path``."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


# CSV cells that fmt formats as f"{v:.12g}", formatted so without its isinstance
# chain, which was most of the cost of a row
_FLOAT_TYPES = (float, np.float64)


def _write_csv(path, header, rows):
    with _out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if type(v) in _FLOAT_TYPES else v if isinstance(v, str) else fmt(v) for v in row])


def _write_json(path, payload):
    with _out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return float(fmt(x))


def cmd_region(args) -> int:
    tau, rat = _parse_tau(args)
    if args.treat_as_irrational:
        if args.tau is not None:
            raise UsageError("--treat-as-irrational takes a decimal --tau-real, not --tau M/N")
        rat = None
    elif rat is None:
        raise UsageError(f"--tau-real {tau!r} has no small fraction; add --treat-as-irrational")
    kind = _kind(args.kind)
    closed = regions.stability_region(tau, kind)
    window = (None, None) if closed.empty else (closed.lower, closed.upper)
    bisected = None if args.treat_as_irrational else regions.region_boundaries_bisect(tau, kind, tau_rational=rat)
    scan_rows: Optional[List] = None
    if args.scan:
        lo, hi, step = args.scan
        system = chareq.equal_gain_system if kind is CharKind.CASCADE_EQUAL_GAINS else chareq.direct_feedback_system
        scan_rows = []
        for i in range(int(round((hi - lo) / step)) + 1):
            c = round(lo + i * step, 12)
            if args.treat_as_irrational:
                state = regions.classify(system(c, tau, rat), treat_as_irrational=True).state
            else:
                # the endpoint read above resolved tau to m/n; a row needs only the state
                state = regions.one_gain_state(kind, rat.num, rat.den, c)
            scan_rows.append((c, state.value))
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "region",
            "kind": args.kind,
            "tau": str(rat) if rat else _jsonable(tau),
            "closed_form": {"empty": closed.empty, "lower": _jsonable(window[0]), "upper": _jsonable(window[1])},
            "bisected": None if bisected is None else {"lower": _jsonable(bisected[0]), "upper": _jsonable(bisected[1])},
            "scan": None if scan_rows is None else [{"c": _jsonable(c), "state": s} for c, s in scan_rows],
        }
        _write_json(args.output, payload)
    else:
        if scan_rows is not None:
            _write_csv(args.output, ["c", "state"], scan_rows)
        else:
            header = ["empty", "lower", "upper", "bisected_lower", "bisected_upper"]
            _write_csv(args.output, header, [(closed.empty, *window, *(bisected or (None, None)))])
    return 0


def cmd_roots(args) -> int:
    tau, rat = _parse_tau(args)
    try:
        rect = contour.ComplexRect(*args.rect)
    except ValueError as exc:
        raise UsageError(f"--rect: {exc}")
    sysd = DelaySystem(DelayGains(args.c1, args.c2), tau, rat)
    roots = contour.isolate_and_refine(sysd, rect)
    rows = [(r.lam.real, r.lam.imag, r.residual, r.multiplicity) for r in roots]
    _write_csv(args.output, ["re", "im", "residual", "multiplicity"], rows)
    return 0


def cmd_count(args) -> int:
    tau, rat = _parse_tau(args)
    sysd = chareq.equal_gain_system(args.c, tau, rat)
    if args.disk:
        if rat is None:
            raise UsageError("--disk needs a rational delay")
        count = regions.crossing_state(CharKind.CASCADE_EQUAL_GAINS, rat.num, rat.den, args.c)[0]
    else:
        a, b = args.strip
        if a >= b:
            raise UsageError("--strip needs A < B")
        count = contour.count_in_strip(sysd, a, b)
    if args.format == "json":
        _write_json(args.output, {"schema": SCHEMA, "command": "count", "count": count})
    else:
        with _out(args.output) as fh:
            fh.write(f"{count}\n")
    return 0


def cmd_sweep_eps(args) -> int:
    try:
        template = robustness.PerturbationCase(args.base, args.eps[0], args.c)
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = robustness.sweep(template, args.eps)
    _write_csv(
        args.output,
        ["eps", "lambda_eps", "eps_lambda_eps", "low_freq_clear", "error"],
        [(r.eps, r.lambda_eps, r.eps_lambda_eps, r.low_freq_clear, r.error or "") for r in rows],
    )
    return 0


def cmd_simulate(args) -> int:
    rat = args.tau
    try:
        ic = pdesim.named_ic(args.ic)
        config = pdesim.SimConfig(rat, DelayGains(args.c1, args.c2), args.K, args.T, ic, args.sample_every)
    except ValueError as exc:
        raise UsageError(str(exc))
    trace = pdesim.simulate(config)
    _write_csv(args.output, ["t", "E"], list(trace.samples))
    if args.dump_state:
        _write_json(args.dump_state, pdesim.state_dict(trace.final_state))
    sysd = DelaySystem(DelayGains(args.c1, args.c2), rat.value, rat)
    s_abs = contour.spectral_abscissa(sysd)
    two_s = None if s_abs == contour.NO_ROOTS else 2.0 * s_abs
    t0, t1 = pdesim.default_fit_window(two_s or 0.0, args.T)
    rate = pdesim.decay_rate(trace, t0, t1)
    fitted = None if rate == pdesim.EXTINCT else rate
    gap = None
    if fitted is not None and two_s not in (None, 0.0):
        # a difference of two nearly equal rates: digits past the 3rd are rounding noise
        gap = float(f"{abs(fitted - two_s) / abs(two_s):.3g}")
    summary = {
        "schema": SCHEMA,
        "command": "simulate",
        "fitted_rate": _jsonable(fitted),
        "two_s": _jsonable(two_s),
        "relative_gap": gap,
        "extinct": rate == pdesim.EXTINCT,
        "fit_window": [_jsonable(t0), _jsonable(t1)],
    }
    if args.output not in (None, "-"):
        _write_json("-", summary)
    return 0


def cmd_critical(args) -> int:
    if math.gcd(args.m, args.n) != 1:
        raise UsageError("--m and --n must be coprime")
    if args.m == args.n:
        raise UsageError("tau = 1 (m = n) is handled by its dedicated analysis")
    cs = regions.critical_set_E(args.m, args.n, validate=args.validate)
    _write_csv(args.output, ["c"], [(v,) for v in cs.values])
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="delaywave", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, tau=True, fmt=False):
        if fmt:
            sp.add_argument("--format", choices=["csv", "json"], default=sp.get_default("format") or "csv")
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")
        if tau:
            sp.add_argument("--tau", type=_delay("; use --tau-real for a decimal"), help="rational delay M/N")
            sp.add_argument("--tau-real", type=_POSITIVE, help="delay as a decimal")

    sp = sub.add_parser("region", help="stability window for the gain")
    sp.set_defaults(func=cmd_region, format="json")
    add_common(sp, fmt=True)
    sp.add_argument("--treat-as-irrational", action="store_true", help="with --tau-real: the two-delay criterion")
    sp.add_argument("--kind", choices=["cascade", "direct"], default="cascade")
    sp.add_argument("--scan", type=_SCAN, help="lo:hi:step grid of gains to classify (use --scan=-1:1:0.1 for negative lo)")

    sp = sub.add_parser("roots", help="characteristic roots in a rectangle")
    sp.set_defaults(func=cmd_roots)
    add_common(sp)
    sp.add_argument("--c1", type=_FINITE, required=True)
    sp.add_argument("--c2", type=_FINITE, required=True)
    sp.add_argument("--rect", type=_FINITE, nargs=4, required=True, metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))

    sp = sub.add_parser("count", help="root counts in the disk or a strip")
    sp.set_defaults(func=cmd_count)
    add_common(sp, fmt=True)
    sp.add_argument("--c", type=_FINITE, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--disk", action="store_true")
    group.add_argument("--strip", type=_NONZERO_INT, nargs=2, metavar=("A", "B"))

    sp = sub.add_parser("sweep-eps", help="delay-perturbation sweep")
    sp.set_defaults(func=cmd_sweep_eps)
    add_common(sp, tau=False)
    sp.add_argument("--base", type=_BASE, required=True, help="0 or an even integer 2l")
    sp.add_argument("--c", type=_FINITE, required=True)
    sp.add_argument("--eps", type=_FLOATS, required=True, help="comma-separated perturbations")

    sp = sub.add_parser("simulate", help="energy trace of the exact simulator")
    sp.set_defaults(func=cmd_simulate)
    add_common(sp, tau=False)
    sp.add_argument(
        "--tau",
        type=_delay(
            "; pick a convergent such as 41/20 for 2.05 - interpolating a "
            "non-commensurate delay would add artificial dissipation"
        ),
        required=True,
        help="rational delay M/N",
    )
    sp.add_argument("--c1", type=_FINITE, required=True)
    sp.add_argument("--c2", type=_FINITE, required=True)
    sp.add_argument("--K", type=_POSITIVE_INT, default=40, help="cells per unit length")
    sp.add_argument("--T", type=_POSITIVE, default=40.0, help="final time")
    sp.add_argument("--ic", default="mixed", help="named initial condition")
    sp.add_argument("--sample-every", type=_POSITIVE, default=1.0)
    sp.add_argument("--dump-state", help="write the final state as JSON to this path")

    sp = sub.add_parser("critical", help="critical gain set for tau = m/n")
    sp.set_defaults(func=cmd_critical)
    add_common(sp, tau=False)
    sp.add_argument("--m", type=_POSITIVE_INT, required=True)
    sp.add_argument("--n", type=_POSITIVE_INT, required=True)
    sp.add_argument("--validate", action="store_true", help="certify each value")

    return p


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The process's one parser; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, chareq.NearSpectrum) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
