import contextlib
import csv
import io
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaywave import regions
from delaywave.chareq import CharKind, Rational, equal_gain_system
from delaywave.cli import _write_csv, fmt, main
from delaywave.contour import count_in_disk
from delaywave.polyform import reduce_to_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- region


class TestRegion:
    def test_cascade_tau_two(self, capsys):
        code, out, _ = run(capsys, "region", "--tau", "2/1", "--kind", "cascade")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        cf = payload["closed_form"]
        assert not cf["empty"]
        assert cf["lower"] == -1.0 and cf["upper"] == 0.0
        assert abs(payload["bisected"]["lower"] + 1.0) < 1e-6
        assert abs(payload["bisected"]["upper"]) < 1e-6

    def test_direct_tau_four(self, capsys):
        code, out, _ = run(capsys, "region", "--tau", "4/1", "--kind", "direct")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["upper"] == pytest.approx(math.tan(math.pi / 8), abs=1e-9)
        assert payload["bisected"]["upper"] == pytest.approx(math.tan(math.pi / 8), abs=1e-6)

    def test_cascade_tau_three_empty(self, capsys):
        code, out, _ = run(capsys, "region", "--tau", "3/1", "--kind", "cascade")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["empty"]
        assert payload["bisected"] is None

    def test_scan_csv(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "region", "--tau", "2/1", "--kind", "cascade",
            "--scan=-1.2:0.2:0.2", "--format", "csv", "--output", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        states = {row["c"]: row["state"] for row in rows}
        assert states["-0.6"] == "stable"
        assert states["0.2"] == "unstable"

    def test_scan_keeps_circle_only_gain_marginal(self, capsys):
        # z^4 + z^2 + 1 has only circle zeros; the grid's 0.5 and the crossing
        # gain -cos(4 pi / 3) differ by rounding, not by a crossing
        code, out, _ = run(capsys, "region", "--tau", "4/1", "--scan=-0.5:0.5:0.05")
        assert code == 0
        states = {row["c"]: row["state"] for row in json.loads(out)["scan"]}
        assert states[0.5] == "marginal" and states[0.0] == "marginal" and states[0.25] == "stable"

    @pytest.mark.parametrize("kind", ["cascade", "direct"])
    def test_scan_beyond_companion_degree(self, capsys, kind):
        # degree 40001: no window for a non-even delay, and no degree cap
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "region", "--tau", "20001/10000", "--kind", kind, "--scan=-0.5:0.5:0.05")
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["empty"] and payload["bisected"] is None
        states = {row["c"]: row["state"] for row in payload["scan"]}
        assert len(states) == 21 and states.pop(0.0) == "marginal"
        assert set(states.values()) == {"unstable"}

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(capsys, "region", "--tau", "4/1", "--kind", "cascade", "--output", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_scan_is_usage_error(self, capsys):
        code, _, err = run(capsys, "region", "--tau", "2/1", "--scan", "oops")
        assert code == 1 and "usage error" in err

    def test_irrational_scan_of_a_decimal_delay(self, capsys):
        code, out, _ = run(capsys, "region", "--tau-real", "2.001", "--treat-as-irrational", "--scan=-0.6:-0.4:0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["bisected"] is None
        assert [row["state"] for row in payload["scan"]] == ["unstable"] * 3

    def test_empty_window_csv(self, capsys):
        code, out, _ = run(capsys, "region", "--tau", "3/2", "--format", "csv")
        assert code == 0 and out.splitlines()[1] == "true,,,,"


# ---------------------------------------------------------------- roots / count


class TestRoots:
    def test_two_roots_csv(self, capsys):
        code, out, _ = run(
            capsys, "roots", "--tau", "2/1", "--c1", "-0.25", "--c2", "-0.25",
            "--rect", "-1", "0.5", "0", "7",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        for row in rows:
            assert float(row["re"]) == pytest.approx(math.log(0.5) / 2, abs=1e-9)
            assert int(row["multiplicity"]) == 1
            assert float(row["residual"]) < 1e-10

    def test_double_root_next_to_an_edge(self, capsys):
        # i pi is a double root of (e^lam + 1)^2, 1.6e-6 below the top edge
        code, out, _ = run(
            capsys, "roots", "--tau", "1/1", "--c1", "1", "--c2", "1",
            "--rect", " -1.6e-6", "1.38", " -1.6e-6", "3.1415943",
        )
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        assert float(row["im"]) == pytest.approx(math.pi, abs=1e-9)
        assert int(row["multiplicity"]) == 2

    def test_tall_rectangle_refused_fast(self, capsys):
        # a side of 1e7 turns the phase beyond the budget of one winding
        t0 = time.perf_counter()
        code, _, err = run(
            capsys, "roots", "--tau", "2/1", "--c1", "-0.25", "--c2", "-0.25",
            "--rect", "-1", "0.5", "0", "1e7",
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and "ValueError" in err


class TestNegativeExponent:
    """A negative number in exponent notation is a value, not an option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-eps", "--base", "2", "--c", "-0.5", "--eps", "-1e-3"),
            ("roots", "--tau", "1/1", "--c1", "1", "--c2", "1", "--rect", "-1.6e-6", "1.38", "-1.6e-6", "3.14"),
            ("count", "--tau", "2/1", "--c", "-2.5e-1", "--disk"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_accepted(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out

    def test_values_as_typed(self, capsys):
        code, out, _ = run(capsys, "sweep-eps", "--base", "2", "--c", "-5e-1", "--eps", "-1e-3,1e-3")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["eps"]) for r in rows] == [-1e-3, 1e-3]
        assert all(r["error"] == "" for r in rows)
        assert float(rows[0]["lambda_eps"]) == pytest.approx(1047.1975512, abs=1e-6)
        assert float(rows[1]["lambda_eps"]) == pytest.approx(1048.2444868, abs=1e-6)


class TestCount:
    def test_disk(self, capsys):
        code, out, _ = run(capsys, "count", "--tau", "2/1", "--c", "1.5", "--disk")
        assert code == 0 and out.strip() == "2"

    def test_strip(self, capsys):
        code, out, _ = run(capsys, "count", "--tau", "3/2", "--c", "2.0", "--strip", "-1", "1")
        assert code == 0
        assert int(out.strip()) >= 1

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--tau", "2/1", "--c", "1.5", "--disk", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_contact_is_numerical_failure(self, capsys):
        # c = 0 puts roots on the strip contour
        code, _, err = run(capsys, "count", "--tau", "5/2", "--c", "0", "--strip", "-2", "2")
        assert code == 2 and "numerical failure" in err

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_disk_with_zeros_on_the_circle(self, capsys, c):
        # the exact crossing count: none inside, although zeros sit on the circle
        code, out, _ = run(capsys, "count", "--tau", "2/1", "--c", c, "--disk")
        assert code == 0 and out == "0\n"

    GAIN = st.integers(-3_000_000, 3_000_000).map(lambda k: k / 1e6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), GAIN)
    def test_disk_matches_the_winding_count(self, n, m, c):
        assume(m + 2 * n <= 60 and math.gcd(m, n) == 1)
        if m == n:
            # tau = 1: both zeros on the circle for every |c| <= 1
            assume(abs(c) >= 1.0 + 1e-6)
        else:
            gains = [0.0, *regions._crossing_table(CharKind.CASCADE_EQUAL_GAINS, m, n).gains]
            assume(min(abs(c - g) for g in gains) >= 1e-6)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["count", "--tau", f"{m}/{n}", f"--c={c!r}", "--disk"]) == 0
        p = reduce_to_polynomial(equal_gain_system(c, m / n, Rational(m, n)))
        assert int(out.getvalue()) == count_in_disk(p)

    def test_disk_needs_rational(self, capsys):
        code, _, err = run(capsys, "count", "--tau-real", "3.14159265358979", "--c", "0.5", "--disk")
        assert code == 1
        assert "--disk needs a rational delay" in err


# ---------------------------------------------------------------- sweep / simulate / critical


class TestSweep:
    def test_base_zero_table(self, capsys):
        code, out, _ = run(capsys, "sweep-eps", "--base", "0", "--c", "1", "--eps", "0.1,0.05")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["eps"] for r in rows] == ["0.1", "0.05"]
        for r in rows:
            assert r["low_freq_clear"] == "true"
            assert float(r["eps_lambda_eps"]) == pytest.approx(math.pi, abs=1e-6)


class TestSimulate:
    def test_trace_and_summary(self, capsys, tmp_path):
        trace_path = tmp_path / "energy.csv"
        code, out, _ = run(
            capsys, "simulate", "--tau", "2/1", "--c1", "-0.25", "--c2", "-0.25",
            "--K", "20", "--T", "40", "--output", str(trace_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["relative_gap"] < 0.05
        assert summary["two_s"] == pytest.approx(math.log(0.5), rel=1e-9)
        rows = list(csv.DictReader(trace_path.open()))
        assert len(rows) == 41
        assert float(rows[0]["t"]) == 0.0

    def test_relative_gap_three_significant_digits(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--tau", "41/20", "--c1", "-0.285584", "--c2", "-0.285584",
            "--K", "20", "--T", "60", "--output", str(tmp_path / "energy.csv"),
        )
        assert code == 0
        printed = re.search(r'"relative_gap": (\S+?),?\n', out).group(1)
        summary = json.loads(out)
        gap = abs(summary["fitted_rate"] - summary["two_s"]) / abs(summary["two_s"])
        assert printed == repr(float(f"{gap:.3g}")) == "0.0375"

    def test_state_dump(self, capsys, tmp_path):
        trace_path = tmp_path / "energy.csv"
        state_path = tmp_path / "state.json"
        code, _, _ = run(
            capsys, "simulate", "--tau", "3/2", "--c1", "0.2", "--c2", "0.2",
            "--K", "4", "--T", "3", "--output", str(trace_path),
            "--dump-state", str(state_path),
        )
        assert code == 0
        state = json.loads(state_path.read_text())
        assert state["schema"] == 1
        assert state["t"] == 3.0
        assert len(state["p"]) == len(state["q"]) == 2 * 4 + 1
        assert len(state["w"]) == 3 * 4 + 1

    def test_stdout_trace_only(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--tau", "2/1", "--c1", "0", "--c2", "0",
            "--K", "10", "--T", "5",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 6

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_a_numerical_failure(self, capsys, tmp_path):
        # unstable at 41/20: the energy passes 1e308 near t = 1773, before the horizon
        trace_path, state_path = tmp_path / "energy.csv", tmp_path / "state.json"
        code, out, err = run(
            capsys, "simulate", "--tau", "41/20", "--c1", "-0.25", "--c2", "-0.25",
            "--K", "20", "--T", "2000", "--output", str(trace_path), "--dump-state", str(state_path),
        )
        assert code == 2 and "numerical failure: FloatingPointError: energy at t = " in err
        assert out == "" and not trace_path.exists() and not state_path.exists()

    def test_unknown_ic_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--tau", "2/1", "--c1", "0", "--c2", "0", "--ic", "wavey",
        )
        assert code == 1

    def test_decimal_delay_guidance(self, capsys):
        code, _, err = run(capsys, "simulate", "--tau", "2.05", "--c1", "0", "--c2", "0")
        assert code == 1 and "convergent" in err


class TestCritical:
    def test_four_one(self, capsys):
        code, out, _ = run(capsys, "critical", "--m", "4", "--n", "1", "--validate")
        assert code == 0
        vals = [float(r["c"]) for r in csv.DictReader(out.splitlines())]
        assert vals == [-1.0, 0.0, 0.5]

    def test_tau_one_rejected(self, capsys):
        code, _, err = run(capsys, "critical", "--m", "1", "--n", "1")
        assert code == 1


class TestWriteCsv:
    def test_cells_as_fmt_gives_them(self, tmp_path):
        # a float skips fmt's isinstance chain, yet every row must come out
        # byte for byte as fmt and csv.writer's quoting of strings give it
        rng = np.random.default_rng(3)
        row = [
            None, True, False, np.bool_(True), np.bool_(False), 7, -(2**70), np.int64(-3),
            0.1, 1 / 3, -0.0, 1e300, 5e-324, np.float64(2.5e-300), np.float64(-1 / 7),
            np.float32(0.1), np.float32(-3.4e38), math.nan, math.inf, -math.inf,
            np.float64(np.nan), np.float64(np.inf), np.float64(-np.inf), "Error: a, b \"c\"", "",
        ]
        rows = [row, row[::-1], list(rng.normal(size=8) * 10.0 ** rng.integers(-20, 20, 8)),
                rng.normal(size=8).tolist()]
        path = tmp_path / "cells.csv"
        _write_csv(str(path), ["h"] * len(row), rows)
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["h"] * len(row))
        for r in rows:
            writer.writerow([fmt(v) if not isinstance(v, str) else v for v in r])
        assert path.read_bytes() == ref.getvalue().encode()


class TestUsage:
    def test_missing_subcommand_flag(self, capsys):
        code, _, err = run(capsys, "roots", "--tau", "2/1")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_usage_error_leaves_no_parser_state(self, capsys):
        # the parser is built once per process; a call that fails after
        # parsing --format csv must not change the next call's default (json)
        valid = ("region", "--tau", "4/1", "--kind", "direct")
        alone = run(capsys, *valid)
        code, out, _ = run(capsys, "region", "--tau", "4/1", "--format", "csv", "--scan=0:1:0")
        assert code == 1 and out == ""
        assert run(capsys, *valid)[:2] == alone[:2]
        assert alone[0] == 0 and json.loads(alone[1])["command"] == "region"


class TestBadInput:
    """Bad input is a usage error (exit 1), never a numerical failure (exit 2)."""

    SIM = ("simulate", "--tau", "2/1", "--c1", "0", "--c2", "0")

    @pytest.mark.parametrize(
        "argv",
        [
            SIM + ("--K", "0"),
            SIM + ("--T", "0"),
            SIM + ("--sample-every", "0.7", "--K", "3"),
            ("simulate", "--tau", "2/1", "--c1", "-0.2", "--c2", "-0.2", "--K", "10", "--T", "1.5"),
            ("simulate", "--tau", "2/1", "--c1", "-0.2", "--c2", "-0.2", "--K", "1", "--T", "0.4"),
            ("simulate", "--tau", "0/1", "--c1", "0", "--c2", "0"),
            ("region", "--tau", "2/0"),
            ("region", "--tau", "abc"),
            ("region", "--tau", "2/1", "--scan=0:1:0"),
            ("region", "--tau", "2/1", "--scan=0:1:-0.1"),
            ("region", "--tau-real", "nan"),
            ("sweep-eps", "--base", "3", "--c", "-0.3", "--eps", "0.1"),
            ("sweep-eps", "--base", "2", "--c", "-0.3", "--eps", "abc"),
            ("sweep-eps", "--base", "2", "--c", "nan", "--eps", "0.1"),
            ("sweep-eps", "--base", "2", "--c", "0.5", "--eps", "0.01"),
            ("sweep-eps", "--base", "0", "--c", "1", "--eps", "0"),
            ("count", "--tau", "2/1", "--c", "nan", "--disk"),
            ("roots", "--tau", "2/1", "--c1", "nan", "--c2", "0", "--rect", "-1", "1", "-1", "1"),
            ("roots", "--tau", "2/1", "--c1", "0", "--c2", "inf", "--rect", "-1", "1", "-1", "1"),
            ("region", "--tau", "2/1", "--scan=0:1:1e-12"),
            ("region", "--tau", "2/1", "--tol", "0"),
            ("region", "--tau", "2/1", "--tol=-1"),
            ("region", "--tau", "2/1", "--tol", "nan"),
            ("roots", "--tau", "2/1", "--c1", "0", "--c2", "0", "--rect", "nan", "0", "0", "1"),
            ("roots", "--tau", "2/1", "--c1", "0", "--c2", "0", "--rect", "1", "0", "0", "1"),
            ("count", "--tau", "2/1", "--c", "0.5", "--strip", "0", "1"),
            ("count", "--tau", "2/1", "--c", "0.5", "--strip", "2", "1"),
            ("critical", "--m", "0", "--n", "1"),
            ("critical", "--m", "-3", "--n", "1"),
            ("critical", "--m", "4", "--n", "2"),
            ("region", "--tau-real", "3.141592653589793"),
            ("region", "--tau-real", "3.141592653589793", "--scan=0:0.1:0.1"),
            ("region", "--tau", "2/1", "--treat-as-irrational"),
            ("region", "--tau", "2/1", "--treat-as-irrational", "--scan=-0.6:-0.4:0.1"),
            ("count", "--tau-real", "3.14159265358979", "--c", "0.5", "--disk"),
            ("roots", "--tau-real", "2.5", "--treat-as-irrational", "--c1", "0", "--c2", "0", "--rect", "-1", "1", "0", "1"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "usage error" in err and out == ""


class TestUlpRational:
    """A delay a few ulp from a small fraction takes that fraction's analysis."""

    def test_region_matches_exact_fraction(self, capsys):
        code, near, _ = run(capsys, "region", "--tau-real", "0.30000000000000004")
        assert code == 0
        code, exact, _ = run(capsys, "region", "--tau", "3/10")
        assert code == 0 and json.loads(near) == json.loads(exact)

    def test_far_right_roots_have_no_error_row(self, capsys):
        # base 0, eps = 0.01 sqrt(2): the roots sit near Re 49, where the
        # terms of the characteristic function are about e^98
        code, out, _ = run(capsys, "sweep-eps", "--base", "0", "--c", "1", "--eps", "0.0141421356")
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        assert row["error"] == "" and float(row["lambda_eps"]) == pytest.approx(222.144, abs=1e-3)

    def test_sweep_row_has_no_error(self, capsys):
        code, out, _ = run(capsys, "sweep-eps", "--base", "2", "--c", "-0.3", "--eps=-0.14")
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        assert row["error"] == "" and float(row["lambda_eps"]) > 0
