"""One workload in one fresh process; prints a JSON record as its last line.

    python3 bench/worker.py WORKLOAD --seed N --seconds S [--trace] [--rounds R] [--setup-only]

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
process imports numpy and delaywave from ``src/`` next to this directory,
draws the workload's inputs from the seed and warms up each operation kind
on its smallest input; that moment is "ready" and is reported on the
monotonic clock so that the parent can time set-up from its spawn call.
It then runs whole rounds of the workload's operation list until the next
round would overrun the time budget and checks every output after each
round; with ``--trace`` every second round runs with the tracer installed.
Times are in reference seconds (see calibrate.py); the record also keeps
each round's raw wall and CPU time, and the slowdown measured right after
ready, by which the parent divides the set-up time.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import delaywave  # noqa: E402

if not Path(delaywave.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"delaywave imported from {delaywave.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu():
    """User + system CPU of this process and its children, in seconds."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def run_round(ops, problems, cal, tracer=None):
    """Run every operation once, timed, then check the outputs.

    The reference loop is sampled from a timer signal in a plain round and
    between operations in a traced one, so that no sample lands in a span.
    Each operation's wall and CPU time, less the samples taken inside it, is
    divided by the loop's slowdown around it (see calibrate.py).
    """
    results, marks = [], []
    clock = time.perf_counter
    calls = [tracer.wrap(op.call, f"bench.{op.kind}") if tracer else op.call for op in ops]
    cal.sample()
    with contextlib.nullcontext() if tracer else cal.sampling():
        for call in calls:
            if tracer:
                cal.maybe_sample()
            cpu0 = _cpu()
            start = clock()
            try:
                out, exc = call(), None
            except Exception as e:  # every failure is recorded and reported
                out, exc = None, e
            end = clock()
            marks.append((start, end, _cpu() - cpu0))
            results.append((out, exc))
        failed = 0
        for op, (out, exc) in zip(ops, results):
            if exc is not None:
                failed += 1
                if type(exc).__name__ != op.fault:
                    problems.append(f"{op.label}: {''.join(traceback.format_exception_only(exc)).strip()}")
                continue
            msg = op.check(out)
            if msg:
                problems.append(f"{op.label}: {msg}")
    cal.sample()
    raw_wall, raw_cpu, lat_s, cpu_s = [], [], [], []
    for start, end, cpu in marks:
        in_wall, in_cpu = cal.inside(start, end)
        f = cal.slowdown(start, end)
        raw_wall.append(end - start - in_wall)
        raw_cpu.append(cpu - in_cpu)
        lat_s.append(raw_wall[-1] / f)
        cpu_s.append(raw_cpu[-1] / f)
    return {"wall_s": sum(lat_s), "cpu_s": sum(cpu_s),
            "raw_wall_s": sum(raw_wall), "raw_cpu_s": sum(raw_cpu),
            "lat_s": lat_s, "failed": failed}


def run_rounds(ops, budget_s, problems, cal, tracer=None, fixed=None):
    """Whole rounds until the next one would end past ``budget_s``.

    With a tracer every second round is traced, so that traced and plain
    rounds see the same machine conditions.  Returns the plain rounds, the
    traced rounds and the spans of each traced round.
    """
    plain, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        n = len(plain) + len(traced)
        if fixed is not None:
            if n >= fixed:
                break
        elif n >= 2 and (time.perf_counter() - start) * (n + 1) / n > budget_s:
            break
        if tracer and n % 2:
            tracer.install()
            try:
                traced.append(run_round(ops, problems, cal, tracer))
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
        else:
            plain.append(run_round(ops, problems, cal))
    return plain, traced, spans


_ROUND_FIELDS = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "failed")


def _reference_layers(metrics, rnd):
    """Per-layer times of one traced round in reference seconds."""
    slow = rnd["raw_wall_s"] / rnd["wall_s"]
    out = {}
    for k, v in metrics.items():
        if k.endswith("_per_s"):
            v = v * slow
        elif k.endswith("_s"):
            v = v / slow
        out[k] = v
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--rounds", type=int, help="run exactly this many plain (and as many traced) rounds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", help="write the first traced round's spans here")
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    problems = []
    smallest = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    cal = calibrate.Calibrator()
    run_round(list(smallest.values()), problems, cal)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record = {
        "ready_ns": ready_ns,
        "setup_slowdown": cal.settle(),
        "ops_per_round": len(ops),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.setup_only:
        record["problems"] = problems
        print(json.dumps(record))
        return

    tr = tracing.Tracer() if args.trace else None
    fixed = args.rounds * (2 if tr else 1) if args.rounds else None
    plain, traced, spans = run_rounds(ops, args.seconds, problems, cal, tr, fixed)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["rounds"] = [{k: r[k] for k in _ROUND_FIELDS} for r in plain]
    record["op_p50_ms"] = statistics.median(s * 1e3 for r in plain for s in r["lat_s"])
    if tr:
        per_round = [_reference_layers(tracing.layer_metrics(s)[0], r) for s, r in zip(spans, traced)]
        layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        untraced = statistics.median(r["wall_s"] for r in plain)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(r["wall_s"] for r in traced) / untraced - 1.0)
        record["layers"] = layers
        record["traced_rounds"] = [{k: r[k] for k in _ROUND_FIELDS} for r in traced]
        if args.trace_file:
            names = sorted({s[0] for s in spans[0]})
            index = {n: i for i, n in enumerate(names)}
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "parent", "start_ns", "end_ns", "points", "error"],
                           "names": names,
                           "spans": [[index[s[0]], *s[1:]] for s in spans[0]]}, fh)
    record["problems"] = problems
    print(json.dumps(record))


if __name__ == "__main__":
    main()
