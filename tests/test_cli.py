"""CLI behaviour: exit codes, CSV shape, determinism, library agreement."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import secgauss
from secgauss import (
    STANDARD_SOURCE,
    RatePair,
    SimResult,
    bob_distortion,
    build_bin_table,
    enumerate_subset_candidates,
    eve_mmse_given_magnitude,
    output_entropy,
    weak_eavesdropper_payoff,
)
from secgauss.cli import _MAX_GRID_POINTS, CSV_HEADER, _parse_grid, build_parser, main
from secgauss.sim import _MAX_SYMBOLS


def run_cli(argv):
    """Invoke the entry point in process; argparse exits become codes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCurve:
    def test_header_and_weak_value(self, capsys):
        code = run_cli(["curve", "--schemes", "weak", "--r", "2.7", "--rs", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER
        rows = parse_csv(out)
        assert len(rows) == 1
        expect = weak_eavesdropper_payoff(RatePair(2.7, 0.3)).value
        assert float(rows[0]["payoff"]) == pytest.approx(expect, abs=1e-12)
        assert rows[0]["feasible"] == "true"

    def test_range_grid_inclusive(self, capsys):
        code = run_cli(
            ["curve", "--schemes", "weak", "--r", "2.0", "--rs-range", "0.1:0.5:0.1"]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [float(r["Rs_bits"]) for r in rows] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5]
        )

    def test_weak_zero_key_infeasible_row(self, capsys):
        code = run_cli(["curve", "--schemes", "weak", "--r", "2.0", "--rs", "0.0"])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["feasible"] == "false"
        assert rows[0]["payoff"] == "nan"
        assert rows[0]["notes"]

    def test_multiple_schemes_stack(self, capsys):
        code = run_cli(
            [
                "curve",
                "--schemes",
                "weak,jointly_gaussian,optimal_high_key",
                "--r",
                "2.0",
                "--rs",
                "1.5",
            ]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["scheme"] for r in rows] == [
            "weak",
            "jointly_gaussian",
            "optimal_high_key",
        ]

    def test_unknown_scheme_is_usage_error(self, capsys):
        code = run_cli(["curve", "--schemes", "psychic", "--r", "2.0", "--rs", "1.0"])
        assert code == 2

    def test_missing_rs_flags(self):
        assert run_cli(["curve", "--schemes", "weak", "--r", "2.0"]) == 2

    def test_both_rs_flags(self):
        code = run_cli(
            ["curve", "--schemes", "weak", "--r", "2.0", "--rs", "1.0",
             "--rs-range", "0:1:0.5"]
        )
        assert code == 2

    def test_bad_range_step(self):
        code = run_cli(
            ["curve", "--schemes", "weak", "--r", "2.0", "--rs-range", "1:0.5:0.1"]
        )
        assert code == 2

    def test_deterministic_file_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curve", "--schemes", "weak,jointly_gaussian", "--r-range",
                "1:3:0.5", "--rs-range", "0.2:1.2:0.2"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_one_parser_serves_every_call(capsys):
    # main parses with the one shared parser; a usage error, --help and an
    # infeasible command leave the next command as a first call sees it.
    assert build_parser() is build_parser()
    valid = [["curve", "--schemes", "weak,quantized_greedy", "--r", "1.5", "--rs", "0.5"],
             ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "0", "--n", "1000"]]
    build_parser.cache_clear()
    first = []
    for argv in valid:
        first.append((run_cli(argv), *capsys.readouterr()))
    others = [(["curve", "--schemes"], 2), (["sim", "--scheme", "nope", "--seed", "1"], 2),
              (["curve", "--help"], 0),
              (["sim", "--scheme", "sign_pad", "--rs", "0.5", "--seed", "1", "--n", "100"], 3)]
    for argv, code in others:
        assert run_cli(argv) == code, argv
        capsys.readouterr()
        for again, want in zip(valid, first):
            assert (run_cli(again), *capsys.readouterr()) == want, (argv, again)


class TestSim:
    def test_missing_seed(self):
        assert run_cli(["sim", "--scheme", "sign_pad"]) == 2

    def test_sign_pad_low_key_infeasible(self):
        code = run_cli(
            ["sim", "--scheme", "sign_pad", "--rs", "0.5", "--seed", "1", "--n", "100"]
        )
        assert code == 3

    def test_full_encryption_rejects_step(self):
        code = run_cli(
            ["sim", "--scheme", "full_encryption", "--r", "2.0", "--t", "0.5",
             "--seed", "1", "--n", "100"]
        )
        assert code == 2

    def test_bad_scheme_choice(self):
        assert run_cli(["sim", "--scheme", "nope", "--seed", "1"]) == 2

    def test_no_key_payoff_zero(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run_cli(
            ["sim", "--scheme", "no_key", "--seed", "3", "--n", "5000",
             "--out", str(out)]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert float(rows[0]["empirical_payoff"]) == 0.0
        assert float(rows[0]["std_error"]) == 0.0

    def test_deterministic_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sim", "--scheme", "sign_pad", "--t", "0.4", "--seed", "12",
                "--n", "20000"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_scenario_invariance(self, tmp_path, capsys):
        rows = []
        for i, scenario in enumerate(("weak", "causal_source")):
            out = tmp_path / f"{i}.csv"
            code = run_cli(
                ["sim", "--scheme", "sign_pad", "--scenario", scenario,
                 "--t", "0.6", "--seed", "77", "--n", "10000", "--out", str(out)]
            )
            assert code == 0
            rows.append(parse_csv(out.read_text())[0])
        capsys.readouterr()
        assert rows[0]["eve_mse"] == rows[1]["eve_mse"]
        assert rows[0]["empirical_payoff"] == rows[1]["empirical_payoff"]

    @pytest.mark.parametrize("scheme", ["sign_pad", "no_key"])
    def test_one_bin_table_per_run(self, scheme, capsys, monkeypatch):
        # The default --r is the rate of the table the run builds; the
        # command must not build that table a second time to find it.
        calls = []

        def spy(source, step):
            calls.append(step)
            return build_bin_table(source, step)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("secgauss")
                    and getattr(module, "build_bin_table", None) is build_bin_table):
                monkeypatch.setattr(module, "build_bin_table", spy)
        argv = ["sim", "--scheme", scheme, "--t", "0.5", "--seed", "7", "--n", "1000"]
        assert run_cli(argv) == 0
        assert calls == [0.5]
        row = parse_csv(capsys.readouterr().out)[0]
        assert row["R_bits"] == row["model_rate_bits"]
        # An explicit --r is reported as given.
        assert run_cli(argv + ["--r", "4"]) == 0
        assert calls == [0.5, 0.5]
        assert parse_csv(capsys.readouterr().out)[0]["R_bits"] == "4"


class TestLp:
    def test_zero_key_zero_payoff(self, capsys):
        code = run_cli(
            ["lp", "--t", "0.8", "--r", "5.0", "--rs", "0.0", "--max-support", "9"]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["payoff"]) == pytest.approx(0.0, abs=1e-10)
        assert rows[0]["feasible"] == "true"
        assert "D=" in rows[0]["notes"] and "active=" in rows[0]["notes"]

    def test_rate_gate_row(self, capsys):
        code = run_cli(
            ["lp", "--t", "0.8", "--r", "0.5", "--rs", "1.0", "--max-support", "9"]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["feasible"] == "false"
        assert math.isnan(float(rows[0]["payoff"]))

    def test_rate_gate_builds_no_candidates(self, capsys, monkeypatch):
        # Below the pmf entropy every key rate is infeasible, so the
        # 2**19 - 1 candidates of support 19 must never be built.
        calls = []

        def spy(pmf, mode):
            calls.append(pmf.points.size)
            if pmf.points.size > 9:
                raise AssertionError("candidates enumerated for an infeasible message rate")
            return enumerate_subset_candidates(pmf, mode)

        monkeypatch.setattr(secgauss.cli, "enumerate_subset_candidates", spy)
        code = run_cli(["lp", "--t", "0.3", "--r", "1", "--rs-range", "0:1:0.5",
                        "--max-support", "19"])
        assert code == 0 and calls == []
        assert capsys.readouterr().out == "".join(
            f"{line}\n" for line in [
                CSV_HEADER,
                "lp_quantized,1,0,nan,0.3,,false,rate below quantized entropy",
                "lp_quantized,1,0.5,nan,0.3,,false,rate below quantized entropy",
                "lp_quantized,1,1,nan,0.3,,false,rate below quantized entropy",
            ]
        )
        # The spy sits where the command looks the enumeration up.
        assert run_cli(["lp", "--t", "0.8", "--r", "5", "--rs-range", "0:1:0.5",
                        "--max-support", "9"]) == 0
        assert calls == [9]

    def test_even_support_rejected(self):
        code = run_cli(["lp", "--t", "0.8", "--r", "5.0", "--rs", "0.5",
                        "--max-support", "8"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["lp", "--t", "0.6", "--r", "3", "--rs", "0.5", "--max-support", "1"],
        ["curve", "--schemes", "lp_quantized", "--r", "2.7", "--rs", "0.25",
         "--lp-max-support", "1"],
    ])
    def test_support_one_rejected_by_its_flag_name(self, capsys, argv):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: max_support")

    def test_support_above_the_largest_rejected_below_the_entropy(self, capsys):
        # At r = 1 the pmf's entropy exceeds the rate: the cap must be
        # checked before the message-rate gate, which would print an
        # infeasible row and exit 0.
        assert run_cli(["lp", "--t", "0.3", "--r", "1", "--rs", "0.5", "--max-support", "41"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: support cap 41 exceeds the largest supported, 19")

    def test_key_rate_past_every_entropy(self, capsys):
        # Every key rate above the largest candidate entropy (log2(11)
        # bits at most) has the same D and exits 0, however large: the
        # solver must not see a key row with such a right-hand side.
        d = []
        for rs in ("10", "1e5", "1e308"):
            assert run_cli(["lp", "--t", "0.6", "--r", "30", "--rs", rs,
                            "--max-support", "11"]) == 0
            (row,) = parse_csv(capsys.readouterr().out)
            d.append(row["notes"].split(";")[0])
        assert d == ["D=0.970487883166"] * 3


class TestRateChecks:
    # A rate that RatePair refuses exits 2, whichever scheme or gate it would reach.
    @pytest.mark.parametrize("argv", [
        ["lp", "--t", "1", "--r", "2", "--rs", "-1"],
        ["lp", "--t", "1", "--r", "2", "--rs", "nan"],
        ["lp", "--t", "1", "--r", "5", "--rs", "-1"],
        ["curve", "--schemes", "quantized_greedy", "--r", "inf", "--rs", "0.5"],
        ["curve", "--schemes", "weak", "--r", "inf", "--rs", "0.5"],
        ["curve", "--schemes", "quantized_greedy,lp_quantized", "--r", "-1", "--rs", "0.5"],
    ])
    def test_bad_rate_is_a_usage_error(self, argv, capsys):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be finite and >= 0" in err

    def test_rates_checked_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the rates were checked")

        monkeypatch.setattr(secgauss.cli, "GreedyQuantizedScheme", refuse)
        monkeypatch.setattr(secgauss.cli, "step_size_for_entropy", refuse)
        argv = ["curve", "--schemes", "quantized_greedy,lp_quantized", "--r", "2.7",
                "--rs-range=-0.5:0.5:0.5"]
        assert run_cli(argv) == 2
        assert "key_rate must be finite and >= 0, got -0.5" in capsys.readouterr().err

    def test_zero_rate_stays_an_infeasible_row(self, capsys):
        argv = ["curve", "--schemes", "quantized_greedy,lp_quantized", "--r", "0", "--rs", "0.5"]
        assert run_cli(argv) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [(r["scheme"], r["feasible"], r["payoff"]) for r in rows] == [
            ("quantized_greedy", "false", "nan"), ("lp_quantized", "false", "nan")]

    # A target past the bin limit names itself and the limit, not a step the
    # user never gave.  At a mean so large that half a step rounds away (the
    # float spacing is 2 at 1e16), neighbouring bin edges coincide, and the
    # refusal names the mean, not an interval the user never gave.
    @pytest.mark.parametrize("argv, message", [
        (["curve", "--schemes", "quantized_greedy", "--r", "30", "--rs", "1"],
         "an output entropy of 30.0 bits needs more than the 1000000 supported bins"),
        (["curve", "--schemes", "quantized_greedy", "--r", "1100", "--rs", "1"],
         "an output entropy of 1100.0 bits needs more than the 1000000 supported bins"),
        (["sim", "--scheme", "full_encryption", "--r", "1100", "--rs", "1100", "--seed", "1",
          "--n", "10"], "an output entropy of 1100.0 bits needs more than the 1000000"),
        (["curve", "--schemes", "quantized_greedy", "--r", "2", "--rs", "1", "--mu", "1e17"],
         "source mean 1e+17"),
        (["quantizer-stats", "--t", "1e-320"],
         "step 1e-320 needs more than the 1000000 supported bins"),
        (["quantizer-stats", "--t", "1", "--mu", "1e16"], "source mean 1e+16"),
        (["lp", "--t", "1", "--r", "5", "--rs", "0.5", "--mu", "1e16"], "source mean 1e+16"),
        (["curve", "--schemes", "quantized_greedy", "--r", "2", "--rs", "1", "--mu", "1e16"],
         "source mean 1e+16"),
        (["curve", "--schemes", "lp_quantized", "--r", "2", "--rs", "1", "--mu", "1e16"],
         "source mean 1e+16"),
        (["sim", "--scheme", "sign_pad", "--t", "1", "--seed", "1", "--n", "10", "--mu", "1e16"],
         "source mean 1e+16"),
        (["sim", "--scheme", "full_encryption", "--r", "3", "--seed", "1", "--n", "10",
          "--mu", "1e16"], "source mean 1e+16"),
    ])
    def test_unreachable_step_is_a_usage_error(self, argv, message, capsys):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    # The entropy step search names the target it could not reach; a step
    # the user gives is named as given.
    @pytest.mark.parametrize("argv, message", [
        (["curve", "--schemes", "quantized_greedy", "--r", "2", "--rs", "1", "--mu", "1e16"],
         "error: an output entropy of 2.0 bits needs a step too fine for floats at the"
         " source mean 1e+16\n"),
        (["curve", "--schemes", "lp_quantized", "--r", "2.5", "--rs", "1", "--mu", "1e16"],
         "error: an output entropy of 2.5 bits needs a step too fine for floats at the"
         " source mean 1e+16\n"),
        (["quantizer-stats", "--t", "1", "--mu", "1e16"],
         "error: step 1.0 is too fine for floats at the source mean 1e+16\n"),
    ])
    def test_huge_mean_names_the_target_or_the_given_step(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", message)


class TestQuantizerStats:
    def test_matches_library(self, capsys):
        code = run_cli(["quantizer-stats", "--t", "0.5", "--n-mod", "3"])
        assert code == 0
        got = {r["quantity"]: float(r["value"])
               for r in parse_csv(capsys.readouterr().out)}
        table = build_bin_table(STANDARD_SOURCE, 0.5)
        assert got["entropy_bits"] == pytest.approx(output_entropy(table), abs=1e-10)
        assert got["bob_mse_lattice"] == pytest.approx(
            bob_distortion(table, "lattice"), abs=1e-10
        )
        assert got["eve_mmse_magnitude"] == pytest.approx(
            eve_mmse_given_magnitude(table), abs=1e-10
        )
        assert "entropy_given_mod3_bits" in got

    def test_bad_step(self):
        assert run_cli(["quantizer-stats", "--t", "-1.0"]) == 2

    def test_modulus_bounds(self, capsys):
        assert run_cli(["quantizer-stats", "--t", "0.5", "--n-mod", "0"]) == 2
        assert "modulus must be an integer >= 1" in capsys.readouterr().err
        assert run_cli(["quantizer-stats", "--t", "0.5", "--n-mod", str(10**21)]) == 0
        got = {r["quantity"]: r["value"] for r in parse_csv(capsys.readouterr().out)}
        assert got[f"entropy_given_mod{10**21}_bits"] == "0"

    def test_point_mass_entropy_is_zero_not_negative(self, capsys):
        # Every bin but the centre lies 150 sigma out: a point mass.
        assert run_cli(["quantizer-stats", "--t", "3", "--sigma2", "1e-4"]) == 0
        got = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert got["entropy_bits"] == "0"
        assert got["entropy_given_magnitude_bits"] == "0"

    def test_large_mean_matches_zero_mean_twin(self, capsys):
        # mean^2 = 1e12 next to a variance of 1e-4: nothing may be
        # computed as a second moment minus a squared mean.
        assert run_cli(["quantizer-stats", "--t", "3", "--mu", "1e6", "--sigma2", "1e-4"]) == 0
        far = capsys.readouterr().out
        assert run_cli(["quantizer-stats", "--t", "3", "--sigma2", "1e-4"]) == 0
        assert far == capsys.readouterr().out

    def test_finest_step_centroid_mse(self, capsys):
        # Near the bin cap the within-bin variance is step^2/12 up to the
        # folded tails: about 1e-12 of mass at variance 0.02, which is
        # 9.4e-4 of step^2/12 here.
        t = 1.5e-5
        assert run_cli(["quantizer-stats", "--t", str(t)]) == 0
        got = {r["quantity"]: float(r["value"]) for r in parse_csv(capsys.readouterr().out)}
        assert got["bob_mse_centroid"] / (t * t / 12.0) - 1.0 == pytest.approx(9.4e-4, abs=5e-5)


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code = run_cli(["verify", "--suite", "quantizer_bound"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_unknown_suite(self):
        assert run_cli(["verify", "--suite", "everything"]) == 2

    @pytest.mark.parametrize("flag, value", [("--mu", "5"), ("--sigma2", "9")])
    def test_source_flags_rejected(self, flag, value, capsys):
        # The suites fix their own sources, so a source flag would be ignored.
        assert run_cli(["verify", "--suite", "entropy_limit", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert run_cli(["verify", "--suite", "quantizer_bound", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("PASS")


# One small run of each command, and every verify suite.
NO_SCIPY_ARGV = [
    ["curve", "--schemes", "weak,quantized_greedy,lp_quantized", "--r", "1.5",
     "--rs-range", "0:1:0.5", "--lp-max-support", "5"],
    ["lp", "--t", "1.0", "--r", "2.5", "--rs-range", "0:1:0.5", "--max-support", "5"],
    ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "0", "--n", "1000"],
    ["sim", "--scheme", "full_encryption", "--r", "2", "--seed", "0", "--n", "1000"],
    ["quantizer-stats", "--t", "0.5", "--n-mod", "3"],
    ["verify", "--suite", "sign_split"],
    ["verify", "--suite", "all"],
]


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # With None for scipy in sys.modules any import of it fails, so every
    # command exiting 0 shows that the package runs without scipy: Gaussian
    # masses come from math.erfc, the simplex inverts its small bases with
    # numpy, and the sign-split quadrature is a numpy Gauss-Legendre rule.
    code = f"""
import contextlib, io, sys
sys.modules["scipy"] = None
from secgauss.cli import main

for argv in {NO_SCIPY_ARGV!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(secgauss.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['scipy']"]


def run_cli_capped(argv):
    """Run the CLI in a child process that cannot map more than 1 GiB.

    An input that slipped past validation into a huge allocation ends
    in a MemoryError traceback there, not in the machine running out.
    """
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(secgauss.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "secgauss.cli", *argv],
        preexec_fn=cap, env=env, capture_output=True, text=True, timeout=120,
    )


def child_peak_mb(code):
    """Peak memory in MB of a fresh interpreter running `code`, which binds `code` to its exit code.

    Linux carries ru_maxrss across exec, so a child of a large test
    process reads its own peak from VmHWM where it can.
    """
    pytest.importorskip("resource")
    code += """
import resource, sys
try:
    with open("/proc/self/status") as fh:
        peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak /= 1 << 20 if sys.platform == "darwin" else 1 << 10
print(peak)
sys.exit(code)
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(secgauss.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.splitlines()[-1])


class TestInputBounds:
    def test_huge_sim_rejected_before_allocating(self):
        proc = run_cli_capped(
            ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "7",
             "--n", "1000000000000"]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: n_symbols")

    def test_largest_sim_stays_small(self):
        # run_sim draws and scores the sample in fixed blocks, so the largest
        # accepted run peaks near the interpreter's own footprint (about 38 MB
        # on Linux).
        code = f"""
from secgauss.cli import main
code = main(["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "1", "--n", "{_MAX_SYMBOLS}"])
"""
        assert child_peak_mb(code) < 150.0

    def test_largest_enumeration_stays_small(self):
        # The subset statistics come from one bit recurrence over 2**19
        # entries; a 2**19 x 19 posterior matrix and its temporaries
        # peaked at 377 MB (Linux, x86-64).
        code = """
from secgauss import STANDARD_SOURCE, build_bin_table, build_quantized_pmf
from secgauss import enumerate_subset_candidates
pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.3), max_support=19)
code = 0 if len(enumerate_subset_candidates(pmf)) == 2**19 - 1 else 1
"""
        assert child_peak_mb(code) < 150.0

    def test_largest_lp_stays_small(self):
        # The largest LP the CLI accepts: 2**19 - 1 candidates, solved over
        # the 262,655 mirror orbits on an 11-row matrix.  The 20-row matrix
        # over every candidate peaked at about 158 MB (Linux, x86-64).
        code = """
from secgauss.cli import main
code = main(["lp", "--t", "0.3", "--r", "9", "--rs", "0.5", "--max-support", "19"])
"""
        assert child_peak_mb(code) < 130.0

    def test_huge_grid_rejected_before_allocating(self):
        proc = run_cli_capped(
            ["curve", "--schemes", "weak", "--r", "2", "--rs-range", "0:1:1e-12"]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: --rs-range")

    def test_huge_lp_support_rejected_before_allocating(self):
        proc = run_cli_capped(
            ["lp", "--t", "0.05", "--r", "9", "--rs", "1", "--max-support", "41"]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: support cap 41")

    def test_overflowing_grid_rejected(self, capsys):
        # STOP - START overflows to inf, which must not reach math.floor.
        code = run_cli(["curve", "--schemes", "weak", "--r", "2", "--rs-range=-1e308:1e308:1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --rs-range")

    def test_grid_cap_is_inclusive(self):
        grid = _parse_grid(None, f"0:{_MAX_GRID_POINTS - 1}:1", "--rs", "--rs-range")
        assert len(grid) == _MAX_GRID_POINTS
        with pytest.raises(ValueError):
            _parse_grid(None, f"0:{_MAX_GRID_POINTS}:1", "--rs", "--rs-range")

    def test_greedy_sweep_bounded_by_n_max(self, capsys):
        # R = 14 gives a 56537-bin table, whose full sweep would label
        # 3.2e9 entries; the cap refuses it once the table is built.
        base = ["curve", "--schemes", "quantized_greedy", "--r", "14", "--rs", "0.5"]
        assert run_cli(base) == 2
        assert "--n-max" in capsys.readouterr().err
        assert run_cli(base + ["--n-max", "10"]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert row["N"] == "10" and row["feasible"] == "false"

    def test_symbol_cap_is_inclusive(self, monkeypatch, capsys):
        # The simulation itself is stubbed out: only validation is under test.
        seen = []

        def fake_run_sim(config, source):
            seen.append(config.n_symbols)
            return SimResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr("secgauss.cli.run_sim", fake_run_sim)
        base = ["sim", "--scheme", "no_key", "--seed", "1", "--n"]
        assert run_cli(base + [str(_MAX_SYMBOLS + 1)]) == 2
        assert run_cli(base + [str(_MAX_SYMBOLS)]) == 0
        assert seen == [_MAX_SYMBOLS]
        capsys.readouterr()


# Flag values for the argv fuzz: valid ones that run in milliseconds and
# invalid ones of each kind the parser and the library can meet.  Sizes
# are bounded (support at most 5, at most 1000 symbols, steps no finer
# than 0.05) or far past a cap that is checked before allocating.
_RATE = ["0", "0.5", "2.7", "4", "-1", "nan", "inf", "x"]
_GRID = ["0:1:0.5", "1:0:0.5", "0:1:0", "0:1e9:1e-9", "0:1", "a:b:c"]
_STEP = ["0.5", "0.05", "3", "0", "-1", "nan", "inf", "1e-9"]
_COMMON = {
    "--sigma2": ["1", "4", "1e-4", "0", "-1", "nan", "1e300", "1e-300"],
    "--mu": ["0", "-3", "1e6", "nan", "inf"],
}
_FLAGS = {
    "curve": {
        "--schemes": ["weak", "jointly_gaussian,optimal_high_key", "quantized_greedy",
                      "lp_quantized", "weak,bogus", ","],
        "--r": _RATE, "--r-range": _GRID, "--rs": _RATE, "--rs-range": _GRID,
        "--n-max": ["1", "3", "0", "-2", "1.5"],
        "--lp-mode": ["continuous", "alphabet_restricted", "bogus"],
    },
    "sim": {
        "--scheme": ["sign_pad", "full_encryption", "no_key", "bogus"],
        "--scenario": ["weak", "causal_source", "causal_general", "bogus"],
        "--r": _RATE, "--rs": _RATE, "--t": _STEP,
        "--seed": ["0", "7", "-1", "x"],
    },
    "lp": {
        "--t": _STEP, "--r": _RATE, "--rs": _RATE, "--rs-range": _GRID,
        "--mode": ["continuous", "alphabet_restricted", "bogus"],
    },
    "quantizer-stats": {"--t": _STEP, "--n-mod": ["1", "3", "0", "-1", str(10**15), "x"]},
    "verify": {"--suite": ["entropy_limit", "quantizer_bound", "sign_split", "bogus"]},
}
# Flags whose defaults would run long: always passed, from small values.
_ALWAYS = {
    "curve": ("--lp-max-support", ["3", "5", "1", "2", "-1", "21"]),
    "sim": ("--n", ["1", "1000", "0", "-5", str(10**8), "x"]),
    "lp": ("--max-support", ["3", "5", "1", "2", "41"]),
}

# The commands that once failed numerically: a mean of 1e6 sigma, a step
# at the bin cap, and a step so large that the empty outer bins' squared
# gaps overflow.
FOUND_COMMANDS = (
    ("quantizer-stats", "--t", "3", "--mu", "1e6", "--sigma2", "1e-4"),
    ("quantizer-stats", "--t", "1.5e-5"),
    ("quantizer-stats", "--t", "1e300"),
    ("sim", "--scheme", "sign_pad", "--t", "1e300", "--seed", "7", "--n", "1000"),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = dict(_FLAGS[command], **_COMMON)
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    if command in _ALWAYS:
        flag, values = _ALWAYS[command]
        argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--t", "extra"])))
    return tuple(argv)


class TestArgvFuzz:
    @settings(max_examples=80, deadline=None)
    @given(argvs())
    @example(FOUND_COMMANDS[0])
    @example(FOUND_COMMANDS[1])
    @example(FOUND_COMMANDS[2])
    @example(FOUND_COMMANDS[3])
    def test_every_run_ends_in_a_documented_exit_code(self, argv):
        # Any exception escaping main would be a traceback at the shell.
        code = run_cli(list(argv))
        assert code in (0, 2, 3, 4), argv
        if argv in FOUND_COMMANDS:
            assert code == 0
