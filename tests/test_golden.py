"""Golden CLI outputs: stdout of fixed invocations must not drift through refactors.

Each file under tests/golden/ holds the stdout of one command.  Text and
integer literals must match exactly; decimal numbers may differ by at
most 1e-12 absolute, since a rewrite that reorders a floating-point sum
moves the last printed digit of a cancelling difference such as the
greedy payoff at zero key rate.

To re-record a file after an intended output change, run the command
with `--out tests/golden/<name>.txt` and review the diff.
"""

import re
from pathlib import Path

import pytest

from secgauss.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

GOLDEN_COMMANDS = {
    "curve_closed_greedy": [
        "curve", "--schemes", "weak,jointly_gaussian,optimal_high_key,quantized_greedy",
        "--r-range", "0.5:5:0.5", "--rs-range", "0:2:0.25",
    ],
    "curve_lp": [
        "curve", "--schemes", "lp_quantized", "--r", "2", "--rs-range", "0:1:0.25",
        "--lp-max-support", "9", "--mu", "0.5",
    ],
    "lp": ["lp", "--t", "1.0", "--r", "5", "--rs-range", "0:2:0.25", "--max-support", "9"],
    "quantizer_stats_mod7": [
        "quantizer-stats", "--t", "2.5", "--mu", "0.3", "--sigma2", "1.7", "--n-mod", "7",
    ],
    "quantizer_stats_mod3": ["quantizer-stats", "--t", "0.5", "--n-mod", "3"],
    "sim_sign_pad": ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "7", "--n", "100000"],
    "sim_no_key": ["sim", "--scheme", "no_key", "--t", "0.5", "--seed", "7", "--n", "100000"],
    "sim_full_encryption": [
        "sim", "--scheme", "full_encryption", "--r", "3", "--seed", "7", "--n", "100000",
    ],
    "verify_entropy_limit": ["verify", "--suite", "entropy_limit"],
    "verify_quantizer_bound": ["verify", "--suite", "quantizer_bound"],
}

# Split points: every numeric literal, signed, with optional fraction and exponent.
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _is_integer(token: str) -> bool:
    return not any(ch in token for ch in ".eE")


def mismatches(expected: str, actual: str) -> list[str]:
    """Differences between two outputs under the golden comparison rule."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"{len(act_lines)} lines, expected {len(exp_lines)}"]
    out = []
    for lineno, (exp, act) in enumerate(zip(exp_lines, act_lines), start=1):
        exp_parts, act_parts = _NUMBER.split(exp), _NUMBER.split(act)
        same = len(exp_parts) == len(act_parts)
        # Odd positions of re.split with one group are the numbers.
        for i, (e, a) in enumerate(zip(exp_parts, act_parts)):
            if not same:
                break
            if i % 2 == 0 or (_is_integer(e) and _is_integer(a)):
                same = e == a
            else:
                same = abs(float(e) - float(a)) <= FLOAT_TOL
        if not same:
            out.append(f"line {lineno}: expected {exp!r}, got {act!r}")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden(name, capsys):
    code = main(GOLDEN_COMMANDS[name])
    actual = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert mismatches(expected, actual) == []


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(GOLDEN_COMMANDS)


class TestComparisonRule:
    def test_last_digit_float_drift_allowed(self):
        assert mismatches("a,-0.146636934088\n", "a,-0.1466369340875\n") == []

    def test_float_drift_beyond_tolerance_caught(self):
        assert mismatches("a,0.5\n", "a,0.50000000001\n")

    def test_integers_exact(self):
        assert mismatches("max_index,7\n", "max_index,8\n")
        assert mismatches("3+5:0.25\n", "3+6:0.25\n")

    def test_text_exact(self):
        assert mismatches("PASS x\n", "FAIL x\n")
        assert mismatches("a,nan\n", "a,0\n")

    def test_line_count(self):
        assert mismatches("a\nb\n", "a\n")
