"""Gaussian source model, payoff function, and shared Gaussian numerics.

Everything downstream (quantizer tables, closed-form payoff curves, the
secrecy LP, the game simulator) is built on the exact Gaussian
quantities in this module.  All rates and entropies in this package are
in bits, and rate-distortion closed forms use 2**(-2*rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GaussianSource",
    "STANDARD_SOURCE",
    "RatePair",
    "PayoffValue",
    "TruncatedMoments",
    "payoff",
    "sequence_payoff",
    "distortion_rate",
    "differential_entropy_bits",
    "std_normal",
    "normal_pdf",
    "normal_cdf",
    "truncated_moments",
    "entropy_bits",
    "binary_entropy",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Slack applied when validating "payoff <= 1": exact schemes satisfy the
# bound with equality in the limit and floating point must not trip it.
_PAYOFF_SLACK = 1e-9


@dataclass(frozen=True)
class GaussianSource:
    """An i.i.d. Gaussian source; every symbol is N(mean, variance).

    The variance doubles as the payoff normalizer, so it must be
    strictly positive.
    """

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("source mean and variance must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"source variance must be positive, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


STANDARD_SOURCE = GaussianSource(0.0, 1.0)


@dataclass(frozen=True)
class RatePair:
    """Operating point: message rate and key rate, both in bits per symbol."""

    rate: float
    key_rate: float

    def __post_init__(self) -> None:
        for name, value in (("rate", self.rate), ("key_rate", self.key_rate)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PayoffValue:
    """Normalized eavesdropper-minus-legitimate distortion gap.

    Bounded above by 1 (perfect reconstruction against a blind
    eavesdropper); may be arbitrarily negative.
    """

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("payoff is NaN")
        if self.value > 1.0 + _PAYOFF_SLACK:
            raise ValueError(f"payoff {self.value} exceeds the unit bound")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class TruncatedMoments:
    """Mass, conditional mean, and conditional second moment on an interval.

    Floats for one interval; arrays of one entry per interval for many.
    """

    mass: float
    mean: float
    second_moment: float


def payoff(x: float, y: float, z: float, source: GaussianSource) -> float:
    """Per-symbol payoff: eavesdropper loss minus decoder loss, normalized.

    ((z - x)**2 - (y - x)**2) / variance, where x is the source symbol,
    y the legitimate reconstruction, and z the eavesdropper's estimate.
    """
    for name, value in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return ((z - x) ** 2 - (y - x) ** 2) / source.variance


def sequence_payoff(xs, ys, zs, source: GaussianSource) -> float:
    """Average payoff over equal-length sequences of symbols."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if not (xs.shape == ys.shape == zs.shape):
        raise ValueError("xs, ys, zs must have identical shapes")
    if xs.size == 0:
        raise ValueError("sequences must be non-empty")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(zs).all()):
        raise ValueError("sequence entries must be finite")
    gaps = (zs - xs) ** 2 - (ys - xs) ** 2
    return float(np.mean(gaps)) / source.variance


def distortion_rate(rate_bits: float, source: GaussianSource) -> float:
    """Least mean squared error achievable at the given rate in bits."""
    if not math.isfinite(rate_bits) or rate_bits < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {rate_bits}")
    return source.variance * 2.0 ** (-2.0 * rate_bits)


def differential_entropy_bits(source: GaussianSource) -> float:
    """Differential entropy of the source in bits."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * source.variance)


def normal_pdf(x):
    """Standard normal density; accepts scalars or arrays.

    Zero beyond 40 standard deviations, where it underflows anyway.
    """
    x = np.minimum(np.abs(np.asarray(x, dtype=float)), 40.0)
    out = _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal distribution function via erfc; |error| < 1e-13 relative."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def std_normal(x: float) -> tuple[float, float]:
    """Density and distribution function of N(0, 1) at a scalar point."""
    if math.isnan(x):
        raise ValueError("x is NaN")
    return normal_pdf(x), normal_cdf(x)


def _interval_mass(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """P(alpha < xi <= beta) per entry, branch-selected to avoid cancellation.

    Upper-tail difference for alpha >= 0, lower-tail difference for
    beta <= 0; an interval straddling zero adds two positive erf terms.
    """
    upper = np.maximum(normal_cdf(-alpha) - normal_cdf(-beta), 0.0)
    lower = np.maximum(normal_cdf(beta) - normal_cdf(alpha), 0.0)
    middle = 0.5 * (special.erf(beta / _SQRT2) + special.erf(-alpha / _SQRT2))
    return np.where(alpha >= 0.0, upper, np.where(beta <= 0.0, lower, middle))


def truncated_moments(a, b, source: GaussianSource) -> TruncatedMoments:
    """Moments of the source conditioned on the interval (a, b].

    Takes scalars or arrays of endpoints (broadcast against each other)
    and returns floats or arrays to match.  Endpoints may be infinite.
    Where the interval mass underflows to zero the conditional mean is
    pinned to the endpoint nearest the source mean, which keeps
    downstream tables finite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("interval endpoints must not be NaN")
    bad = a >= b
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"interval must satisfy a < b, got [{a.flat[i]}, {b.flat[i]}]")
    mu, sigma = source.mean, source.std
    alpha, beta = (a - mu) / sigma, (b - mu) / sigma

    mass = _interval_mass(alpha, beta)
    empty = mass < 1e-300
    # Empty entries divide by 1 here and are replaced at the end.
    divisor = np.where(empty, 1.0, mass)
    pdf_a, pdf_b = normal_pdf(alpha), normal_pdf(beta)
    first = (pdf_a - pdf_b) / divisor
    # x * pdf(x) vanishes at an infinite endpoint; drop it there, not inf * 0.
    excess = (np.where(np.isfinite(alpha), alpha, 0.0) * pdf_a
              - np.where(np.isfinite(beta), beta, 0.0) * pdf_b)
    var_std = np.maximum(1.0 + excess / divisor - first * first, 0.0)
    mean = mu + sigma * first
    second = mean * mean + source.variance * var_std

    # The endpoint nearest the mean; finite wherever the interval is empty.
    edge = np.where(alpha > 0.0, a, b)
    moments = (np.where(empty, 0.0, mass), np.where(empty, edge, mean),
               np.where(empty, edge * edge, second))
    if mass.ndim == 0:
        return TruncatedMoments(*map(float, moments))
    return TruncatedMoments(*moments)


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of a probability vector; 0*log(0) = 0."""
    p = np.asarray(probs, dtype=float)
    if p.size and (p < -1e-12).any():
        raise ValueError("probabilities must be nonnegative")
    return float(-np.sum(special.xlogy(p, np.clip(p, 0.0, None))) / _LOG2)


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
