"""Golden CLI outputs: stdout of fixed invocations must not drift through refactors.

Each file under tests/golden/ holds the stdout of one command.  Text and
integer literals must match exactly; decimal numbers may differ by at
most 1e-12 absolute, since a rewrite that reorders a floating-point sum
moves the last printed digit of a cancelling difference such as the
greedy payoff at zero key rate.

To re-record a file after an intended output change, run the command
with `--out tests/golden/<name>.txt` and review the diff.
"""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from secgauss import (
    STANDARD_SOURCE, bob_distortion, build_bin_table, build_quantized_pmf,
)
from secgauss.cli import main
from secgauss.verify import SUITES

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

GOLDEN_COMMANDS = {
    "curve_closed_greedy": [
        "curve", "--schemes", "weak,jointly_gaussian,optimal_high_key,quantized_greedy",
        "--r-range", "0.5:5:0.5", "--rs-range", "0:2:0.25",
    ],
    "curve_greedy_high_rate": [
        "curve", "--schemes", "quantized_greedy", "--r-range", "6:7:0.5", "--rs-range", "0:2:0.25",
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
    # The 950k-bin table, the largest the CLI builds.
    "quantizer_stats_fine": ["quantizer-stats", "--t", "1.5e-5"],
    "sim_sign_pad": ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "7", "--n", "100000"],
    "sim_no_key": ["sim", "--scheme", "no_key", "--t", "0.5", "--seed", "7", "--n", "100000"],
    "sim_full_encryption": [
        "sim", "--scheme", "full_encryption", "--r", "3", "--seed", "7", "--n", "100000",
    ],
    "verify_entropy_limit": ["verify", "--suite", "entropy_limit"],
    "verify_quantizer_bound": ["verify", "--suite", "quantizer_bound"],
    "verify_sign_split": ["verify", "--suite", "sign_split"],
    "verify_thm2_grid": ["verify", "--suite", "thm2_grid"],
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


def test_verify_all_is_every_suite_golden_in_order(capsys):
    # `verify --suite all`, the command the crosscheck benchmark workload
    # times, prints each suite's golden, concatenated in sorted(SUITES) order.
    assert main(["verify", "--suite", "all"]) == 0
    expected = "".join((GOLDEN_DIR / f"verify_{name}.txt").read_text() for name in sorted(SUITES))
    assert mismatches(expected, capsys.readouterr().out) == []


def test_fine_table_mses_match_golden_relatively():
    # Both MSEs are near 1.9e-11, where FLOAT_TOL alone would let them drift by 5%.
    text = (GOLDEN_DIR / "quantizer_stats_fine.txt").read_text()
    golden = dict(line.split(",") for line in text.splitlines())
    table = build_bin_table(STANDARD_SOURCE, 1.5e-5)
    for rule in ("lattice", "centroid"):
        expected = float(golden[f"bob_mse_{rule}"])
        assert bob_distortion(table, rule) == pytest.approx(expected, rel=1e-9, abs=0.0)


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


# On the key-slack plateau (rs >= 0.75 in lp.txt) the optimal vertex is
# not unique.  Each list holds the mixtures returned there before, oldest
# first: by Bland's smallest-index rule, then by Dantzig pricing on bin
# tables built one bin at a time (before they were built in one array
# pass, which moved the tables in their last bits), then by a cold solve
# at every key rate (before the sweep started each rate from the last
# rate's optimal basis), then by the equilibrated orbit-sum program
# (before each orbit column became the mean of its subsets' columns,
# unscaled).  They are kept to show that they, like the recorded ones,
# meet every constraint at the same D.
EARLIER_PLATEAU_MIXTURES = {
    "0.75": [
        "4:0.323597230361;3+5:0.408556680901;3+4+5:0.134231686201;2+6:0.121195071886;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "4:0.382924922548;3+5:0.483460674914;1+2+6+7:0.0665745721898;"
        "0+2+6+8:0.0608301650221;0+1+7+8:0.00620966532578",
        "4:0.382924922548;3+5:0.241730337457;1+2+6+7:0.0665745721898;"
        "0+2+6+8:0.0608301650221;0+1+3+5+7+8:0.247940002783",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
    "1": [
        "4:0.212016025252;3+5:0.267680175996;3+4+5:0.386689396214;2+6:0.121195071886;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "4:0.191462461274;3+5:0.483460674914;1+2+6+7:0.0665745721898;"
        "0+2+4+6+8:0.252292626296;0+1+7+8:0.00620966532578",
        "4:0.0886814220691;3+5:0.483460674914;1+2+6+7:0.0154179772268;"
        "0+2+6+8:0.0140876323822;0+1+7+8:0.00143809378611;0+1+2+4+6+7+8:0.396914199621",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
    "1.25": [
        "4:0.100434820143;3+5:0.126803671091;3+4+5:0.639147106228;2+6:0.121195071886;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "2+3+5+6:0.3023278734;1+4+7:0.197439497521;0+4+8:0.191695090353;"
        "0+1+2+3+5+6+7+8:0.308537538726",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
    "1.5": [
        "3+4+5:0.825596434226;2+6:0.115489245768;2+3+4+5+6:0.0464949893543;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "3+5:0.32230711661;1+2+4+6+7:0.172024688976;0+2+4+6+8:0.168195084197;"
        "0+1+4+7+8:0.131781417733;0+1+2+3+5+6+7+8:0.205691692484",
        "3+4+5:0.288795199154;1+2+3+5+6+7:0.205536606431;0+2+4+6+8:0.168195084197;"
        "0+1+4+7+8:0.131781417733;0+1+2+3+5+6+7+8:0.205691692484",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
    "1.75": [
        "3+4+5:0.417275350446;2+6:0.0583709104142;2+3+4+5+6:0.511934408489;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "2+3+5+6:0.1511639367;1+2+4+6+7:0.129018516732;0+2+4+6+8:0.126146313148;"
        "0+1+3+4+5+7+8:0.439402464057;0+1+2+3+5+6+7+8:0.154268769363",
        "3+4+5:0.288795199154;1+2+3+5+6+7:0.205536606431;0+2+4+6+8:0.168195084197;"
        "0+1+4+7+8:0.131781417733;0+1+2+3+5+6+7+8:0.205691692484",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
    "2": [
        "3+4+5:0.00895426666518;2+6:0.00125257506052;2+3+4+5+6:0.977373827623;"
        "1+7:0.0119540724935;0+8:0.000465258158071",
        "2+3+5+6:0.1511639367;1+2+4+6+7:0.129018516732;0+2+4+6+8:0.126146313148;"
        "0+1+3+4+5+7+8:0.439402464057;0+1+2+3+5+6+7+8:0.154268769363",
        "3+4+5:0.288795199154;1+2+3+5+6+7:0.205536606431;0+2+4+6+8:0.168195084197;"
        "0+1+4+7+8:0.131781417733;0+1+2+3+5+6+7+8:0.205691692484",
        "4:0.382924922548;3+5:0.483460674914;2+6:0.121195071886;1+7:0.0119540724935;"
        "0+8:0.000465258158071",
    ],
}
# Weights and D are printed to 12 significant digits.
MIXTURE_TOL = 1e-10


def golden_lp_rows() -> list[tuple[str, float, str]]:
    """(Rs_bits, D, active mixture) of every row of lp.txt."""
    with open(GOLDEN_DIR / "lp.txt", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        notes = dict(item.split("=", 1) for item in row["notes"].split(";", 2))
        assert notes["support"] == "9"
        out.append((row["Rs_bits"], float(notes["D"]), notes["active"]))
    return out


def mixture_violations(rs: float, d: float, active: str) -> list[str]:
    """Constraints of the lp.txt instance that a printed mixture breaks.

    Each `label:weight` names a subset of the support; its posterior,
    entropy and score are recomputed here from the pmf.
    """
    pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0), max_support=9)
    labels, weights = zip(*(item.split(":") for item in active.split(";")))
    w = np.array([float(x) for x in weights])
    q = np.zeros((len(labels), pmf.probs.size))
    for i, label in enumerate(labels):
        members = [int(j) for j in label.split("+")]
        q[i, members] = pmf.probs[members]
    q /= q.sum(axis=1, keepdims=True)
    logs = np.log2(q, out=np.zeros_like(q), where=q > 0.0)
    entropy = -(q * logs).sum(axis=1)
    means = q @ pmf.points
    scores = (q * (pmf.points - means[:, None]) ** 2).sum(axis=1)
    found = []
    if (w < 0.0).any():
        found.append("negative weight")
    if abs(w.sum() - 1.0) > MIXTURE_TOL:
        found.append(f"weights sum to {w.sum()}")
    if np.abs(w @ q - pmf.probs).max() > MIXTURE_TOL:
        found.append("barycenter is not the pmf")
    if w @ entropy > rs + MIXTURE_TOL:
        found.append(f"key use {w @ entropy} exceeds {rs}")
    if abs(w @ scores - d) > MIXTURE_TOL:
        found.append(f"mixture scores {w @ scores}, not D = {d}")
    return found


def every_recorded_mixture() -> list[tuple[str, float, str]]:
    """(Rs_bits, D, mixture) of every mixture lp.txt holds or held before."""
    rows = golden_lp_rows()
    d_at = {rs: d for rs, d, _ in rows}
    return rows + [
        (rs, d_at[rs], mixture)
        for rs, mixtures in sorted(EARLIER_PLATEAU_MIXTURES.items())
        for mixture in mixtures
    ]


class TestLpMixtures:
    @pytest.mark.parametrize("rs, d, active", every_recorded_mixture())
    def test_recorded_mixture_is_feasible_at_d(self, rs, d, active):
        assert mixture_violations(float(rs), d, active) == []

    @pytest.mark.parametrize("rs, earlier", [
        pytest.param(rs, mixture, id=rs if i == 0 else f"{rs}-{i}")
        for rs, mixtures in sorted(EARLIER_PLATEAU_MIXTURES.items())
        for i, mixture in enumerate(mixtures)
    ])
    def test_plateau_vertex_is_not_unique(self, rs, earlier):
        recorded = {row[0]: row for row in golden_lp_rows()}
        _, d, active = recorded[rs]
        assert earlier != active
        assert mixture_violations(float(rs), d, earlier) == []

    def test_a_broken_mixture_is_caught(self):
        rs, d, active = golden_lp_rows()[1]
        label, weight = active.split(";")[0].split(":")
        shifted = f"{label}:{float(weight) + 1e-6};" + active.split(";", 1)[1]
        assert mixture_violations(float(rs), d, shifted)
        # The rs = 0.25 optimum uses all of its key.
        assert mixture_violations(float(rs) - 0.01, d, active)
        assert mixture_violations(float(rs), d + 1e-6, active)
