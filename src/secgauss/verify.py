"""Numerical verification suites shared by the CLI and the test suite.

Each suite re-derives a claimed property from scratch at fixed,
documented operating points and reports one check per property
instance with the measured and expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import GaussianSource, RatePair, differential_entropy_bits
from .quantizer import _step_entropy, bob_distortion, build_bin_table, output_entropy
from .schemes import sign_split_key_requirement, verify_jointly_gaussian_grid

__all__ = [
    "Check",
    "SUITES",
    "run_suite",
    "gaussian_grid_suite",
    "entropy_limit_suite",
    "quantizer_bound_suite",
    "sign_split_suite",
]


@dataclass(frozen=True)
class Check:
    """One verified property instance."""

    name: str
    measured: float
    expected: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured={self.measured:.9g} expected {self.expected}"


def gaussian_grid_suite() -> list[Check]:
    """Grid certificates at step 0.005 for the jointly Gaussian payoff at twelve rate pairs."""
    return [Check(name=f"grid_payoff r={r:g} rs={rs:g}", measured=g,
                  expected=f"{target:.9g} within 0.01", passed=abs(g - target) <= 0.01)
            for r in (0.5, 1.0, 2.0) for rs in (0.25, 0.5, 1.0, 2.0)
            for target, (g, _) in [(1.0 - 2.0 ** (-2.0 * min(r, rs)),
                                    verify_jointly_gaussian_grid(RatePair(r, rs), 0.005))]]


def entropy_limit_suite() -> list[Check]:
    """Fine-step limit: output entropy plus log2 of the step approaches h(X)."""
    source = GaussianSource(0.0, 1.0)
    target = differential_entropy_bits(source)
    gaps = []
    for denom in (16, 32, 64):
        t = source.std / denom
        gaps.append((denom, abs(_step_entropy(source, t) + math.log2(t / source.std) - target)))
    checks = [Check(name=f"entropy_gap shrinks std/{d1} -> std/{d2}", measured=g2,
                    expected=f"< {g1:.9g}", passed=g2 < g1)
              for (d1, g1), (d2, g2) in zip(gaps, gaps[1:])]
    final = gaps[-1][1]
    return checks + [Check(name="entropy_gap at std/64", measured=final, expected="<= 0.01",
                           passed=final <= 0.01)]


def quantizer_bound_suite() -> list[Check]:
    """Entropy and distortion of the rate-matched step at R in {4, 6, 8} bits."""
    source = GaussianSource(0.0, 1.0)
    return [check for r in (4, 6, 8)
            for table in [build_bin_table(source, math.sqrt(2.0 * math.pi * math.e)
                                          * source.std * 2.0 ** (-r))]
            for h, d, bound in [(output_entropy(table), bob_distortion(table, "lattice"),
                                 0.5 * math.pi * math.e * source.variance * 2.0 ** (-2 * r))]
            for check in (Check(name=f"entropy fits rate R={r}", measured=h,
                                expected=f"<= {r + 0.01}", passed=h <= r + 0.01),
                          Check(name=f"lattice distortion bound R={r}", measured=d,
                                expected=f"<= {bound:.9g}", passed=d <= bound))]


def sign_split_suite() -> list[Check]:
    """Bounds and monotonicity of the sign-information integral."""
    grid = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    values = [sign_split_key_requirement(r) for r in grid]
    pairs, high = list(zip(values, values[1:])), sign_split_key_requirement(10.0)
    return [Check(name=f"sign_info in range r={r:g}", measured=v, expected="in [0, 1)",
                  passed=0.0 <= v < 1.0) for r, v in zip(grid, values)] + [
        Check(name="sign_info nondecreasing", measured=min(b - a for a, b in pairs),
              expected=">= -1e-4 smallest increment",
              passed=all(b >= a - 1e-4 for a, b in pairs)),
        Check(name="sign_info saturates at r=10", measured=high, expected=">= 0.99",
              passed=high >= 0.99)]


# The CLI suite ids are a fixed external contract; "thm2_grid" is the
# published name of the Gaussian grid-certificate suite.
SUITES = {
    "thm2_grid": gaussian_grid_suite,
    "entropy_limit": entropy_limit_suite,
    "quantizer_bound": quantizer_bound_suite,
    "sign_split": sign_split_suite,
}


def run_suite(name: str) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
