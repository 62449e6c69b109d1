"""Workload command sequences and the output gate.

Each workload is a fixed list of whole CLI commands.  The workload seed
picks one of ``N_VARIANTS`` input variants: the variant shifts every
key-rate grid by ``variant * RS_SHIFT`` bits and sets the ``sim --seed``
values, so a held-out seed runs different inputs of the same size.
Reference output for every variant is recorded by ``record.py`` and
stored under ``references/``; BENCHMARK.json states why each workload
was chosen.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

N_VARIANTS = 16
# Small enough that the pivot counts of the support-15 LP stay within a
# few percent of each other across variants, so seeds stay comparable.
RS_SHIFT = 0.001
SIM_SYMBOLS = 2_000_000

# Numeric fields must agree to this absolute tolerance; integer fields
# (`n_mod`, `n`, `seed`) and text (`feasible`, names) must agree exactly.
ABS_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

WORKLOADS = ("lp_sweep", "greedy_sweep", "crosscheck")

# Workloads whose wall_ref_s is scaled to the reference machine speed
# (probe.py).  lp_sweep is not: its time goes to streaming over the 4 MB
# tableau, which the machine's slow phases barely touch.  Over six
# minutes of back-to-back lp_sweep passes on the 2-vCPU VM, medians of
# five passes spread 0.049 (IQR over median) unscaled and 0.06-0.08
# scaled by any probe tried; greedy_sweep and crosscheck spread 0.096
# and 0.063 unscaled, 0.031 each scaled.
SCALED = frozenset({"greedy_sweep", "crosscheck"})


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _grid(start: float, stop: float, step: float, shift: float) -> str:
    return f"{start + shift:.6g}:{stop + shift:.6g}:{step:g}"


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists one pass of `workload` runs for `seed`."""
    v = variant_of(seed)
    d = v * RS_SHIFT
    if workload == "lp_sweep":
        # The subset-disclosure LP: a 32767-column candidate set (tableau
        # about 4 MB, beyond cache) at one key rate, so that a run holds
        # several passes, and a 2047-column one that fits in cache over
        # 17 key rates, where warm starts across --rs-range show.
        # Neither the greedy residue loops nor the simulator run.
        return [
            ["curve", "--schemes", "lp_quantized", "--r", "2.7", "--rs", f"{0.25 + d:.6g}"],
            ["lp", "--t", "0.6", "--r", "3", "--rs-range", _grid(0.0, 1.0, 0.0625, d),
             "--max-support", "11"],
        ]
    if workload == "greedy_sweep":
        # Greedy residue disclosure on 221-443 bin tables: the per-modulus
        # residue loops do almost all the work, and the simplex and the
        # LP are bypassed entirely, so an LP change must not move it.
        # R stops at 7 so that a pass takes seconds and a run's median
        # is taken over several passes; one command per R so that the
        # machine-speed probe runs between them.
        return [
            ["curve", "--schemes", "quantized_greedy", "--r", r,
             "--rs-range", _grid(0.0, 2.0, 0.25, d)]
            for r in ("6", "6.5", "7")
        ]
    if workload == "crosscheck":
        # The paper's three-way agreement: many small tables and step
        # searches, one large vectorized draw and estimate per sim, the
        # grid certificate and the quadrature.  The noisiest workload:
        # the thm2_grid suite alone ranged 3.9-5.6 s within one process.
        sim_seed = 3 * v
        n = str(SIM_SYMBOLS)
        return [
            ["curve", "--schemes", "weak,jointly_gaussian,optimal_high_key,quantized_greedy",
             "--r-range", "0.5:5:0.25", "--rs-range", _grid(0.0, 2.0, 0.125, d)],
            ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", str(sim_seed), "--n", n],
            ["sim", "--scheme", "no_key", "--t", "0.5", "--seed", str(sim_seed + 1), "--n", n],
            ["sim", "--scheme", "full_encryption", "--r", "3", "--seed", str(sim_seed + 2),
             "--n", n],
            ["verify", "--suite", "all"],
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# Small commands that touch every code path once, run untimed so that
# lazy imports and first-call set-up are not charged to the first pass.
WARMUP = [
    ["curve", "--schemes", "quantized_greedy,lp_quantized,weak", "--r", "1.5", "--rs", "0.5",
     "--lp-max-support", "5"],
    ["lp", "--t", "1.0", "--r", "2.5", "--rs", "0.5", "--max-support", "5"],
    ["sim", "--scheme", "sign_pad", "--t", "0.5", "--seed", "0", "--n", "1000"],
    ["verify", "--suite", "entropy_limit"],
]


def reference(workload: str, seed: int) -> list[list[str]]:
    """Recorded stdout lines of each command of `workload` for `seed`."""
    data = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    return data["variants"][str(variant_of(seed))]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# The `lp` notes list the active mixture last; at a non-unique optimal
# vertex it may legitimately change, so it is not compared.
_ACTIVE = re.compile(r";active=.*$")


def _split(line: str) -> tuple[list[str], list[float]]:
    line = _ACTIVE.sub("", line)
    return _NUMBER.split(line), [float(x) for x in _NUMBER.findall(line)]


def row_matches(got: str, want: str) -> bool:
    """Same text between numbers, and every number within ABS_TOL."""
    got_text, got_nums = _split(got)
    want_text, want_nums = _split(want)
    return (
        got_text == want_text
        and len(got_nums) == len(want_nums)
        and all(math.isclose(a, b, rel_tol=0.0, abs_tol=ABS_TOL)
                for a, b in zip(got_nums, want_nums))
    )


def check_command(code, stdout: str, want: list[str]) -> tuple[int, int]:
    """(attempted, failed) rows of one command against its reference.

    A command that raised or exited non-zero fails every reference row;
    otherwise each missing, extra or mismatched line is one failure.
    """
    if code != 0:
        return len(want), len(want)
    got = stdout.splitlines()
    failed = sum(1 for i, w in enumerate(want) if i >= len(got) or not row_matches(got[i], w))
    extra = max(len(got) - len(want), 0)
    return len(want) + extra, failed + extra
