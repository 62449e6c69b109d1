"""Seeded Monte Carlo of the quantize-encrypt-estimate game.

Each scheme quantizes the source symbol by symbol, one-time-pads part
of the index, and sends the rest in clear.  Bob reconstructs per the
configured rule (lattice point or bin centroid); the eavesdropper plays
her exact conditional-mean estimate given what she can see.  An i.i.d. source and per-symbol schemes make all causal
histories uninformative, so the three eavesdropper scenarios differ in
bookkeeping only; the simulator accepts them and verifies nothing
depends on them.

Randomness: numpy Generator over the PCG64 bit generator, seeded from
the config; source symbols via its standard_normal transform.  Reruns
with one config are bit-identical within this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import GaussianSource, RatePair, entropy_bits
from .quantizer import (
    BinTable,
    QuantizerSpec,
    _class_moments,
    build_bin_table,
    output_entropy,
    step_size_for_entropy,
)

__all__ = [
    "SIM_SCHEMES",
    "SIM_SCENARIOS",
    "SimConfig",
    "SimResult",
    "run_sim",
    "eve_oracle_estimate",
    "standard_error",
]

SIM_SCHEMES = ("sign_pad", "full_encryption", "no_key")
SIM_SCENARIOS = ("weak", "causal_source", "causal_general")

_RATE_TOL = 1e-9

# Largest run accepted.  A run peaks at about 63 bytes per symbol (207 MB
# at 2e6 symbols, about 80 MB of which is the interpreter and libraries),
# so this keeps one run under about 0.7 GB.
_MAX_SYMBOLS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scheme, eavesdropper scenario, rates, quantizer, size, seed."""

    scheme: str
    scenario: str
    rates: RatePair
    quantizer: QuantizerSpec
    n_symbols: int
    seed: int

    def __post_init__(self) -> None:
        if self.scheme not in SIM_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scenario not in SIM_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if int(self.n_symbols) != self.n_symbols or not 1 <= self.n_symbols <= _MAX_SYMBOLS:
            raise ValueError(
                f"n_symbols must be an integer in [1, {_MAX_SYMBOLS}], got {self.n_symbols}"
            )
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
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


def standard_error(payoff_samples) -> float:
    """Standard error of the mean of per-letter payoffs."""
    samples = np.asarray(payoff_samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples")
    return float(np.std(samples, ddof=1) / math.sqrt(samples.size))


def eve_oracle_estimate(observable, scheme: str, table: BinTable, history=None) -> float:
    """Exact conditional mean of the current symbol given Eve's observables.

    `history` takes any causal side information (past source, Bob, or
    Eve symbols); the schemes are per-symbol and the source i.i.d., so
    it is accepted and ignored.
    """
    del history
    source = table.source
    if scheme == "full_encryption":
        # The pad makes the whole message independent of the symbol.
        return source.mean
    if scheme == "sign_pad":
        u = int(observable)
        if u < 0:
            raise ValueError("magnitude observable must be >= 0")
        return float(_magnitude_means(table)[1][min(u, table.max_index)])
    if scheme == "no_key":
        n = int(observable)
        n = max(min(n, table.max_index), -table.max_index)
        return float(table.centroid[table.row(n)])
    raise ValueError(f"unknown scheme {scheme!r}")


def _magnitude_means(table: BinTable) -> tuple[np.ndarray, np.ndarray]:
    """Mass of each magnitude 0..k and the mean over its {+u, -u} bin pair.

    A pair without mass gets the source mean.
    """
    mass, first, _ = _class_moments(table, np.abs(table.indices))
    mean = np.full(mass.size, table.source.mean)
    return mass, np.divide(first, mass, out=mean, where=mass > 0.0)


def run_sim(config: SimConfig, source: GaussianSource) -> SimResult:
    """Simulate one scheme and report empirical payoff against analytic rates.

    Rates are reported information-theoretically from the bin table (no
    entropy coder is simulated).  A scheme whose table needs more
    message or key rate than the config budgets is rejected as
    inconsistent.  For full_encryption the configured quantizer step is
    ignored: the step is derived so the index entropy fits
    min(rate, key_rate).
    """
    rates = config.rates
    recon = config.quantizer.reconstruction
    if config.scheme == "full_encryption":
        budget = min(rates.rate, rates.key_rate)
        step = step_size_for_entropy(source, budget)
        table = build_bin_table(source, QuantizerSpec(step=step, reconstruction=recon))
    else:
        table = build_bin_table(source, config.quantizer)
    h_table = output_entropy(table)

    k = table.max_index
    mag_prob, pair_mean = _magnitude_means(table)

    if config.scheme == "sign_pad":
        if rates.key_rate < 1.0:
            raise InfeasibleError("sign_pad consumes one key bit per symbol; key_rate >= 1 required")
        model_rate = entropy_bits(mag_prob) + 1.0
        model_key = 1.0
    elif config.scheme == "no_key":
        model_rate = h_table
        model_key = 0.0
    else:
        model_rate = h_table
        model_key = h_table
    if model_rate > rates.rate + _RATE_TOL:
        raise InfeasibleError(
            f"scheme needs {model_rate:.6f} bits/symbol but the rate budget is {rates.rate}"
        )

    rng = np.random.Generator(np.random.PCG64(config.seed))
    xs = source.mean + source.std * rng.standard_normal(config.n_symbols)
    idx = np.rint((xs - source.mean) / table.step).astype(np.int64)
    np.clip(idx, -k, k, out=idx)
    if recon == "centroid":
        ys = table.centroid[idx + k]
    else:
        ys = source.mean + idx * table.step

    if config.scheme == "no_key":
        zs = table.centroid[idx + k]
    elif config.scheme == "full_encryption":
        zs = np.full(config.n_symbols, source.mean)
    else:
        # Eve sees only the magnitude; condition on the {+u, -u} pair.
        zs = pair_mean[np.abs(idx)]

    bob_sq = (ys - xs) ** 2
    eve_sq = (zs - xs) ** 2
    bob_mse = float(bob_sq.mean())
    eve_mse = float(eve_sq.mean())
    samples = (eve_sq - bob_sq) / source.variance
    return SimResult(
        empirical_payoff=(eve_mse - bob_mse) / source.variance,
        std_error=standard_error(samples) if config.n_symbols >= 2 else 0.0,
        bob_mse=bob_mse,
        eve_mse=eve_mse,
        model_rate_bits=model_rate,
        model_key_bits=model_key,
    )
