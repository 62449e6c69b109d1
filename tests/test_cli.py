"""CLI behaviour: exit codes, CSV shape, determinism, library agreement."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secgauss
from secgauss import (
    STANDARD_SOURCE,
    QuantizerSpec,
    RatePair,
    SimResult,
    bob_distortion,
    build_bin_table,
    enumerate_subset_candidates,
    eve_mmse_given_magnitude,
    output_entropy,
    weak_eavesdropper_payoff,
)
from secgauss.cli import _MAX_GRID_POINTS, CSV_HEADER, _parse_grid, main
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

        def spy(source, spec):
            calls.append(spec.step)
            return build_bin_table(source, spec)

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

        def spy(pmf, k_cap, mode):
            calls.append(k_cap)
            if k_cap > 9:
                raise AssertionError("candidates enumerated for an infeasible message rate")
            return enumerate_subset_candidates(pmf, k_cap, mode)

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


class TestQuantizerStats:
    def test_matches_library(self, capsys):
        code = run_cli(["quantizer-stats", "--t", "0.5", "--n-mod", "3"])
        assert code == 0
        got = {r["quantity"]: float(r["value"])
               for r in parse_csv(capsys.readouterr().out)}
        table = build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=0.5))
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


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code = run_cli(["verify", "--suite", "quantizer_bound"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_unknown_suite(self):
        assert run_cli(["verify", "--suite", "everything"]) == 2


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


class TestInputBounds:
    def test_huge_sim_rejected_before_allocating(self):
        proc = run_cli_capped(
            ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "7",
             "--n", "1000000000000"]
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: n_symbols")

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
