"""The experiment scripts exit 1 when a row fails, so a CI smoke run catches it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_robustness_sweep_failed_row_exits_1():
    # eps = -2.5 makes the perturbed delay negative
    r = run_script("robustness_sweep.py", "--base", "2", "--c", "-0.5", "--eps", "0.1,-2.5,0.05")
    assert r.returncode == 1
    assert "ERROR ValueError" in r.stdout
    assert "    0.05 " in r.stdout  # the rows after the failure are still printed


def test_robustness_sweep_clean_run_exits_0():
    r = run_script("robustness_sweep.py", "--eps", "0.1,0.05")
    assert r.returncode == 0 and "ERROR" not in r.stdout


def test_region_scan_failed_gain_exits_1():
    # a zero delay fails every gain ("tau must be finite and positive"); the 2/1 rows are still written
    r = run_script("region_scan.py", "--taus", "2/1,0/1", "--lo", "-0.75", "--hi", "-0.25", "--step", "0.25")
    assert r.returncode == 1
    assert r.stdout.count("\n2/1,") == 3 and "0/1," not in r.stdout
    assert r.stderr.count("ERROR tau=0/1") == 3


def test_spectrum_portrait_failed_gain_exits_1():
    # the rectangle [re_min, re_bound] is empty when re_min lies beyond re_bound
    r = run_script("spectrum_portrait.py", "--gains=-0.5:-0.5:0.1", "--re-min", "50")
    assert r.returncode == 1 and "ERROR c=-0.5" in r.stderr
