"""Seeded Monte Carlo of the quantize-encrypt-estimate game.

Each scheme quantizes the source symbol by symbol, one-time-pads part
of the index, and sends the rest in clear.  Bob reconstructs at the bin
centroid under no_key and at the lattice point otherwise; the
eavesdropper plays her exact conditional-mean estimate given what she
can see.  An i.i.d. source and per-symbol schemes make all causal
histories uninformative, so the three eavesdropper scenarios differ in
bookkeeping only; the simulator accepts them and verifies nothing
depends on them.

Randomness: numpy Generator over the PCG64 bit generator, seeded from
the config; source symbols via its standard_normal transform.  The
sample is drawn and estimated block by block, with running error sums
and a merged payoff variance, so memory does not grow with its size.
Reruns with one config are bit-identical within this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError
from .model import GaussianSource, RatePair, _whole, entropy_bits
from .quantizer import _class_moments, _step, build_bin_table, output_entropy, step_size_for_entropy

__all__ = [
    "SIM_SCHEMES",
    "SIM_SCENARIOS",
    "SimConfig",
    "SimResult",
    "run_sim",
]

SIM_SCHEMES = ("sign_pad", "full_encryption", "no_key")
SIM_SCENARIOS = ("weak", "causal_source", "causal_general")

_RATE_TOL = 1e-9

# Largest run accepted; it bounds run time, not memory: symbols are drawn
# and scored _BLOCK at a time, so a `secgauss sim` run peaks near 38 MB at
# any size, nearly all of it the interpreter and numpy.
_MAX_SYMBOLS = 10_000_000
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scheme, eavesdropper scenario, rates, step, size and seed.

    `step` is None exactly for full_encryption, which derives it to fit min(rate, key_rate).
    """

    scheme: str
    scenario: str
    rates: RatePair
    step: Optional[float]
    n_symbols: int
    seed: int

    def __post_init__(self) -> None:
        if self.scheme not in SIM_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scenario not in SIM_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if (self.step is None) != (self.scheme == "full_encryption"):
            raise ValueError("full_encryption derives its step; every other scheme needs one")
        if self.step is not None:
            _step(self.step)
        if not _whole(self.n_symbols) or not 1 <= self.n_symbols <= _MAX_SYMBOLS:
            raise ValueError(
                f"n_symbols must be an integer in [1, {_MAX_SYMBOLS}], got {self.n_symbols}"
            )
        if not _whole(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SimResult:
    """Empirical payoff with its uncertainty and the scheme's rate usage."""

    empirical_payoff: float
    std_error: float
    bob_mse: float
    eve_mse: float
    model_rate_bits: float
    model_key_bits: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.empirical_payoff):
            raise ValueError("empirical payoff must be finite")
        if not self.std_error >= 0.0:
            raise ValueError("standard error must be nonnegative")


def run_sim(config: SimConfig, source: GaussianSource) -> SimResult:
    """Simulate one scheme and report empirical payoff against analytic rates.

    Rates are reported information-theoretically from the bin table (no
    entropy coder is simulated).  A scheme whose table needs more
    message or key rate than the config budgets is rejected as
    inconsistent.
    """
    rates = config.rates
    if config.scheme == "full_encryption":
        table = step_size_for_entropy(source, min(rates.rate, rates.key_rate))
    else:
        table = build_bin_table(source, config.step)
    h_table = output_entropy(table)

    # Bob's and Eve's estimate for each table row (index n at row n + k);
    # Bob's is the lattice point but under no_key.
    k = table.max_index
    bob_points = source.mean + table.indices * table.step
    if config.scheme == "sign_pad":
        mag_prob, pair_mean = _class_moments(table, np.abs(table.indices))[:2]
        model_rate, model_key = entropy_bits(mag_prob) + 1.0, 1.0
        # Eve sees only the magnitude; condition on the {+u, -u} pair.
        eve_points = pair_mean[np.abs(table.indices)]
    elif config.scheme == "no_key":
        model_rate, model_key = h_table, 0.0
        # Eve decodes the message exactly, so Bob's best play is the same
        # centroid estimate and the payoff is exactly zero.
        eve_points = bob_points = table.centroid
    else:
        # The pad makes the whole message independent of the symbol.
        model_rate, model_key = h_table, h_table
        eve_points = np.full(2 * k + 1, source.mean)
    for need, budget, name in ((model_rate, rates.rate, "rate"),
                               (model_key, rates.key_rate, "key rate")):
        if not need <= budget + _RATE_TOL:
            raise InfeasibleError(
                f"scheme needs {need:.6f} bits/symbol but the {name} budget is {budget}"
            )

    # Chunked standard_normal draws equal one whole-sample draw.  Per-block
    # (count, mean, M2) of the payoff merge as in Chan, Golub & LeVeque (1979).
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = config.n_symbols
    # Block buffers, filled in place; np.take writes into them unbuffered in "clip" mode.
    draw, lat, bob, eve = np.empty((4, min(n, _BLOCK)))
    rows = np.empty(draw.size, dtype=np.intp)
    bob_total = eve_total = mean = m2 = 0.0
    for start in range(0, n, _BLOCK):
        xs, t, r, b, e = (buf[: n - start] for buf in (draw, lat, rows, bob, eve))
        rng.standard_normal(out=xs)
        xs *= source.std
        xs += source.mean
        np.divide(np.subtract(xs, source.mean, out=t), table.step, out=t)
        r[:] = np.add(np.rint(t, out=t), k, out=t)  # take's "clip" mode clamps it to 0..2k
        for points, sq in ((bob_points, b), (eve_points, e)):
            np.square(np.subtract(np.take(points, r, out=sq, mode="clip"), xs, out=sq), out=sq)
        bob_total += float(b.sum())
        eve_total += float(e.sum())
        samples = np.divide(np.subtract(e, b, out=e), source.variance, out=e)
        block_mean = float(samples.mean())
        delta, m = block_mean - mean, samples.size
        mean += delta * m / (start + m)
        dev = np.square(np.subtract(samples, block_mean, out=b), out=b)
        m2 += float(dev.sum()) + delta * delta * start * m / (start + m)
    bob_mse, eve_mse = bob_total / n, eve_total / n
    return SimResult(
        empirical_payoff=(eve_mse - bob_mse) / source.variance,
        std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n >= 2 else 0.0,
        bob_mse=bob_mse,
        eve_mse=eve_mse,
        model_rate_bits=model_rate,
        model_key_bits=model_key,
    )
