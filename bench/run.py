#!/usr/bin/env python3
"""delaywave benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --short [--seed N]

Run from the root of a checkout.  Each workload runs in a fresh worker
process (bench/worker.py) with BLAS pinned to one thread.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics
(setup_s, wall_s, cpu_s, op_p50_ms, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of a traced run and the tracing overhead.  Times are
reference seconds: each is divided by the slowdown of a fixed reference loop
timed beside it in the same process (bench/calibrate.py).  --short
runs one round of every workload, untraced and traced, with all checks.
Full records go to bench/out/.  Uses the standard library only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("region_atlas", "gain_scan", "spectrum", "simulate")
DEFAULT_SEED = 20230727
SETUP_PROBES = 4          # extra set-up-only processes; the median takes 5 samples
WORKER_TIMEOUT_S = 170


def _git_sha():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "delaywave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _spawn(workload, seed, seconds, extra=(), timeout=WORKER_TIMEOUT_S):
    """Run one worker; returns (record, reference seconds from spawn to its ready mark)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), *extra]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    return record, (record["ready_ns"] - t0) / 1e9 / record["setup_slowdown"]


def _env(record):
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": record["python"],
        "numpy": record["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }


def measure(workload, seed, seconds, trace):
    extra = ["--trace", "--trace-file", str(OUT / f"trace-{workload}-{seed}.json")] if trace else []
    record, setup = _spawn(workload, seed, seconds, extra)
    rounds = record["rounds"] + record.get("traced_rounds", [])
    attempted = record["ops_per_round"] * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in record["layers"].items()}
    else:
        setups = [setup] + [_spawn(workload, seed, seconds, ["--setup-only"], 60)[1]
                            for _ in range(SETUP_PROBES)]
        record["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "op_p50_ms": {"value": record["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not record["problems"], "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def _unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def short(seed):
    """One untraced and one traced round of every workload, all checks on."""
    ok = True
    for workload in WORKLOADS:
        record, setup = _spawn(workload, seed, 0, ["--rounds", "1", "--trace"])
        layers = record["layers"]
        shares = ", ".join(f"{k.split('.')[0]} {v:.0f}%" for k, v in layers.items()
                           if k.endswith(".share_pct") and v >= 0.5)
        failed = record["rounds"][0]["failed"]
        print(f"{workload}: {record['ops_per_round']} ops, {failed} failed, setup {setup:.2f} s, "
              f"round {record['rounds'][0]['wall_s']:.2f} s, tracing {layers['trace.overhead_pct']:+.0f}%; "
              f"self time: {shares}")
        for p in record["problems"]:
            print(f"  PROBLEM {p}")
        ok = ok and not record["problems"]
    print("all checks passed" if ok else "checks FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="one round of every workload with all checks")
    args = ap.parse_args()
    if not (ROOT / "src" / "delaywave" / "__init__.py").is_file():
        sys.exit(f"no delaywave sources under {ROOT / 'src'}; run from a full checkout")
    if args.short:
        return short(args.seed)
    if not args.workload:
        ap.error("--workload is required unless --short is given")
    OUT.mkdir(exist_ok=True)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=_env(record), result=result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(record["env"], sort_keys=True))
    for p in record["problems"]:
        print(f"PROBLEM {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
