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

__all__ = [
    "GaussianSource",
    "STANDARD_SOURCE",
    "RatePair",
    "PayoffValue",
    "TruncatedMoments",
    "payoff",
    "distortion_rate",
    "differential_entropy_bits",
    "normal_pdf",
    "normal_cdf",
    "truncated_moments",
    "entropy_bits",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Slack applied when validating "payoff <= 1": exact schemes satisfy the
# bound with equality in the limit and floating point must not trip it.
_PAYOFF_SLACK = 1e-9

# Intervals narrower than this (in standard deviations) get their variance
# from Gauss-Legendre nodes about the midpoint, where the closed form
# 1 + excess/mass - first**2 cancels O(1) terms down to O(width**2).  On
# either side of the bound the variance is within about 2e-11 relative of
# a 50-digit evaluation for midpoints within 8 standard deviations.  The
# nodes are evaluated for this many intervals at a time, in (rows, 8) arrays.
_NARROW_WIDTH = 0.5
_NARROW_BLOCK = 4096
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_MOMENTS = _GL_WEIGHTS * _GL_NODES ** np.arange(3)[:, None]  # row j: weights of u**j


@dataclass(frozen=True)
class GaussianSource:
    """An i.i.d. Gaussian source; every symbol is N(mean, variance).

    The variance doubles as the payoff normalizer, so it must be
    strictly positive.
    """

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        # Floats, so that arrays filled with the mean are never integer arrays.
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
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
    """Mass, conditional mean, and conditional variance on an interval.

    Floats for one interval; arrays of one entry per interval for many.
    """

    mass: float
    mean: float
    variance: float


def _frozen(values, dtype=None) -> np.ndarray:
    """Read-only copy of `values` (as `dtype` if given); the way every value type keeps arrays."""
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _pmf(values) -> np.ndarray:
    """Read-only float copy of a pmf: the value types' one probability rule, which NaN fails."""
    p = np.array(values, dtype=float)
    if not (p >= -1e-12).all():
        raise ValueError("probabilities must be nonnegative")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    np.clip(p, 0.0, None, out=p)
    p.setflags(write=False)
    return p


def _whole(value) -> bool:
    """Whether `value` is a whole number: the integer inputs' one rule, which inf and NaN fail."""
    try:
        return int(value) == value
    except (OverflowError, ValueError):
        return False


def payoff(x: float, y: float, z: float, source: GaussianSource) -> float:
    """Per-symbol payoff: eavesdropper loss minus decoder loss, normalized.

    ((z - x)**2 - (y - x)**2) / variance, where x is the source symbol,
    y the legitimate reconstruction, and z the eavesdropper's estimate.
    """
    for name, value in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return ((z - x) ** 2 - (y - x) ** 2) / source.variance


def distortion_rate(rate_bits: float, source: GaussianSource) -> float:
    """Least mean squared error achievable at the given rate in bits."""
    RatePair(rate_bits, 0.0)  # a ValueError for a non-finite or negative rate
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
    """Standard normal distribution function, 0.5 * erfc(-x / sqrt(2)) per entry.

    Relative error below 1e-15 + 2e-16 * x**2, as erfc magnifies the
    rounding of x / sqrt(2) about x**2 times: 1e-13 near x = -22.
    """
    x = np.asarray(x, dtype=float)
    # math.erfc per entry, so one entry alone gives the same bits as inside an array.
    out = 0.5 * np.fromiter(map(math.erfc, (-x / _SQRT2).ravel().tolist()), float, x.size)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _narrow_variance(mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Variance of N(0, 1) on (mid - half, mid + half], from nodes about the midpoint.

    There the density is proportional to exp(-mid*u - u*u/2) in the
    offset u, so no term of size mid**2 enters the sums.
    """
    u = np.multiply.outer(half, _GL_NODES)
    density = (-0.5 * u - mid[..., None]) * u
    np.exp(density, out=density)
    # einsum rather than a matrix product, so one interval gives the same
    # bits alone as inside an array.
    sums = np.einsum("...k,jk->...j", density, _GL_MOMENTS)
    shift = sums[..., 1] / sums[..., 0]
    return half * half * (sums[..., 2] / sums[..., 0] - shift * shift)


def _masses(a: np.ndarray, b: np.ndarray, source: GaussianSource):
    """Checked masses on the intervals (a, b] of equal-shape float arrays, below 1e-300 set to 0.

    Also the raveled standardized endpoints, each distinct edge, and the
    slice of those edges that holds beta (alpha is their head).
    """
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("interval endpoints must not be NaN")
    bad = a >= b
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"interval must satisfy a < b, got [{a.flat[i]}, {b.flat[i]}]")
    mu, sigma = source.mean, source.std
    alpha, beta = ((a - mu) / sigma).ravel(), ((b - mu) / sigma).ravel()
    n = alpha.size

    # Each distinct edge's upper tail P(xi > |x|) is taken once: intervals
    # that partition a range, as build_bin_table's do, share edges.
    shared = n > 1 and np.array_equal(beta[:-1], alpha[1:])
    edges = np.append(alpha, beta[-1]) if shared else np.concatenate([alpha, beta])
    upper = slice(1 if shared else n, None)
    tail = normal_cdf(-np.abs(edges))

    # The mass is qa - qb for alpha >= 0 and qb - qa for beta <= 0, never a
    # difference of values near 1; an interval straddling 0 sums two erfs.
    qa, qb = tail[:n], tail[upper]
    mass = np.maximum(np.where(alpha >= 0.0, qa - qb, qb - qa), 0.0)
    mid = np.flatnonzero((alpha < 0.0) & (beta > 0.0))
    mass[mid] = [0.5 * (math.erf(hi / _SQRT2) + math.erf(-lo / _SQRT2))
                 for lo, hi in zip(alpha.take(mid).tolist(), beta.take(mid).tolist())]
    mass[mass < 1e-300] = 0.0
    return mass, alpha, beta, edges, upper


def truncated_moments(a, b, source: GaussianSource) -> TruncatedMoments:
    """Mass, mean and variance of the source conditioned on the interval (a, b].

    Takes scalars or arrays of endpoints (broadcast against each other)
    and returns floats or arrays to match.  Endpoints may be infinite.
    Where the interval mass underflows to zero the conditional mean is
    pinned to the endpoint nearest the source mean and the variance is
    zero, which keeps downstream tables finite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    mass, alpha, beta, edges, upper = _masses(a, b, source)
    n = alpha.size
    pdf = normal_pdf(edges)
    # x * pdf(x) vanishes at an infinite endpoint; drop it there, not inf * 0.
    x_pdf = np.where(np.isfinite(edges), edges, 0.0) * pdf

    empty = mass == 0.0
    # Empty entries, if any, divide by 1 here and are replaced at the end.
    divisor = np.where(empty, 1.0, mass) if empty.any() else mass
    first = (pdf[:n] - pdf[upper]) / divisor
    var_std = np.maximum(1.0 + (x_pdf[:n] - x_pdf[upper]) / divisor - first * first, 0.0)
    narrow = np.flatnonzero((beta - alpha < _NARROW_WIDTH) & ~empty)
    for start in range(0, narrow.size, _NARROW_BLOCK):
        rows = narrow[start:start + _NARROW_BLOCK]
        half = 0.5 * (beta.take(rows) - alpha.take(rows))
        var_std[rows] = _narrow_variance(alpha.take(rows) + half, half)

    moments = [mass, source.mean + source.std * first, source.variance * var_std]
    if empty.any():
        # The endpoint nearest the mean; finite wherever the interval is empty.
        nearest = np.where(alpha > 0.0, a.ravel(), b.ravel())
        moments[1:] = (np.where(empty, fill, m) for fill, m in zip((nearest, 0.0), moments[1:]))
    if a.ndim == 0:
        return TruncatedMoments(*(float(m[0]) for m in moments))
    return TruncatedMoments(*(m.reshape(a.shape) for m in moments))


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of a probability vector; 0*log(0) = 0."""
    p = np.asarray(probs, dtype=float)
    if not (p >= -1e-12).all():  # NaN fails this test too
        raise ValueError("probabilities must be nonnegative")
    # 0.0 - x rather than -x, so a point mass never prints as -0.
    return 0.0 - float(np.sum(p * np.log(np.where(p > 0.0, p, 1.0)))) / _LOG2
