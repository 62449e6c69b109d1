"""Symmetric uniform quantization of a Gaussian source.

Bins are indexed by the nearest-integer multiple of the step about the
source mean, tails are folded into the outermost kept bins, and every
bin carries its exact probability, centroid, and second moment.  All
entropy and distortion summaries of a quantized source are computed
from these tables.  Statistics of bins grouped by a function of the
index (residue mod n, magnitude, or the outer bins merged by a fold)
all come from one routine, `_class_moments`, which sums the mass and
moments of each group in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy import special

from .errors import SolverError
from .model import GaussianSource, entropy_bits, truncated_moments

__all__ = [
    "QuantizerSpec",
    "BinTable",
    "quantize_index",
    "build_bin_table",
    "fold_bin_table",
    "output_entropy",
    "entropy_given_magnitude",
    "entropy_given_residue",
    "bob_distortion",
    "eve_mmse_given_residue",
    "eve_mmse_given_magnitude",
    "step_size_for_entropy",
]

# Bin-table construction refuses to allocate more than this many bins;
# finer steps than roughly std/70000 are outside the supported regime.
_MAX_BINS = 1_000_000

# Half-width (in standard deviations) beyond which the two tails carry
# less than 1e-12 of probability: sqrt(2) * erfcinv(1e-12).
_TAIL_STDS = math.sqrt(2.0) * float(special.erfcinv(1e-12))

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class QuantizerSpec:
    """Step size, minimum index extent, and reconstruction rule."""

    step: float
    max_index: int = 1
    reconstruction: Literal["lattice", "centroid"] = "lattice"

    def __post_init__(self) -> None:
        if not math.isfinite(self.step) or self.step <= 0.0:
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if int(self.max_index) != self.max_index or self.max_index < 1:
            raise ValueError(f"max_index must be an integer >= 1, got {self.max_index}")
        if self.reconstruction not in ("lattice", "centroid"):
            raise ValueError(f"unknown reconstruction rule {self.reconstruction!r}")


@dataclass(frozen=True, eq=False)
class BinTable:
    """Per-bin law of the quantizer output for one source and step.

    Rows run over indices -max_index..max_index.  `prob` sums to one
    because tail mass is folded into the outermost bins; `centroid` and
    `second_moment` are conditional on the bin (fold included).
    """

    indices: np.ndarray
    prob: np.ndarray
    centroid: np.ndarray
    second_moment: np.ndarray
    source: GaussianSource
    step: float

    def __post_init__(self) -> None:
        for name in ("indices", "prob", "centroid", "second_moment"):
            arr = getattr(self, name)
            object.__setattr__(self, name, _frozen(arr))
        n = len(self.indices)
        if n % 2 != 1 or n < 3:
            raise ValueError("table must cover -k..k for some k >= 1")
        if not (len(self.prob) == len(self.centroid) == len(self.second_moment) == n):
            raise ValueError("table columns must have equal length")
        total = float(self.prob.sum())
        if abs(total - 1.0) > 1e-10:
            raise SolverError(f"bin probabilities sum to {total}, expected 1")

    @property
    def max_index(self) -> int:
        return (len(self.indices) - 1) // 2

    def row(self, index: int) -> int:
        """Position of bin `index` in the table arrays."""
        k = self.max_index
        if not -k <= index <= k:
            raise ValueError(f"bin index {index} outside [-{k}, {k}]")
        return index + k


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def quantize_index(x: float, step: float, source: GaussianSource) -> int:
    """Bin index of a sample: nearest integer (ties to even) of (x - mean)/step."""
    if not math.isfinite(x):
        raise ValueError(f"sample must be finite, got {x}")
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError(f"step must be finite and positive, got {step}")
    return round((x - source.mean) / step)


def build_bin_table(source: GaussianSource, spec: QuantizerSpec) -> BinTable:
    """Exact bin table for a symmetric uniform quantizer.

    The index extent is grown beyond spec.max_index until the untruncated
    tails carry at most 1e-12 probability; those tails are then folded
    into the outermost bins so that the table is a true partition.
    """
    mu, sigma, t = source.mean, source.std, spec.step
    need = _TAIL_STDS * sigma / t - 0.5
    k_max = max(int(spec.max_index), int(math.ceil(need)), 1)
    if 2 * k_max + 1 > _MAX_BINS:
        raise ValueError(
            f"step {t} needs {2 * k_max + 1} bins, more than the {_MAX_BINS} supported"
        )

    k = np.arange(k_max + 1)
    hi = np.where(k < k_max, mu + (k + 0.5) * t, math.inf)
    m = truncated_moments(mu + (k - 0.5) * t, hi, source)
    return _mirrored(m.mass, m.mean, m.second_moment, source, t)


def _mirrored(p, c, s, source: GaussianSource, step: float) -> BinTable:
    """Table over -k..k from bins 0..k; bins -k..-1 are their mirror images.

    The mirror is taken about the source mean, exact by its symmetry.
    """
    mu = source.mean
    prob = np.concatenate([p[:0:-1], p])
    centroid = np.concatenate([(2.0 * mu - c)[:0:-1], c])
    second = np.concatenate([(4.0 * mu * mu - 4.0 * mu * c + s)[:0:-1], s])
    indices = np.arange(-(len(p) - 1), len(p), dtype=np.int64)
    return BinTable(indices, prob, centroid, second, source, step)


def fold_bin_table(table: BinTable, max_index: int) -> BinTable:
    """Merge all bins with |index| >= max_index into the +-max_index bins."""
    if int(max_index) != max_index or max_index < 1:
        raise ValueError(f"max_index must be an integer >= 1, got {max_index}")
    k_old = table.max_index
    if max_index >= k_old:
        return table
    _require_symmetric(table)

    # Fold the nonnegative half, then mirror it so the result is exactly symmetric.
    k = int(max_index)
    half = slice(k_old, None)
    p, pc, ps = _class_moments(table, np.minimum(table.indices[half], k), half)
    # A class without mass keeps the moments of its innermost bin.
    c = np.divide(pc, p, out=table.centroid[half][: k + 1].copy(), where=p > 0.0)
    s = np.divide(ps, p, out=table.second_moment[half][: k + 1].copy(), where=p > 0.0)
    return _mirrored(p, c, s, table.source, table.step)


def _class_moments(table: BinTable, labels: np.ndarray, rows: slice = slice(None)):
    """Sums of prob, prob * centroid and prob * second_moment per class of bins.

    `labels` gives the nonnegative integer class of each table row in
    `rows`; entry u of each array sums over the rows labelled u, in row order.
    """
    p = table.prob[rows]
    centroid, second = table.centroid[rows], table.second_moment[rows]
    return tuple(np.bincount(labels, weights=w) for w in (p, p * centroid, p * second))


def _conditional_entropy(table: BinTable, labels: np.ndarray) -> float:
    """Entropy in bits of the output given its class: -sum_i p_i log2(p_i / P(class of i)).

    Summed directly rather than as H(output) - H(class), which cancels
    catastrophically when the remainder is tiny.
    """
    p = table.prob
    class_mass = _class_moments(table, labels)[0][labels]
    ratio = np.divide(p, class_mass, out=np.ones_like(p), where=p > 0.0)
    # 0.0 - x rather than -x, so an exact zero never prints as -0.
    return 0.0 - float(np.sum(special.xlogy(p, ratio))) / math.log(2.0)


def _eve_mmse(table: BinTable, labels: np.ndarray) -> float:
    """Least mean squared error of an estimator that sees only the class."""
    mass, first, _ = _class_moments(table, labels)
    mean = np.divide(first, mass, out=np.zeros_like(first), where=mass > 0.0)
    second = float(np.dot(table.prob, table.second_moment))
    return max(second - float(np.dot(mass * mean, mean)), 0.0)


def _residues(table: BinTable, modulus: int) -> np.ndarray:
    """Nonnegative residues 0..modulus-1 of the indices, as class labels."""
    if int(modulus) != modulus or modulus < 1:
        raise ValueError(f"modulus must be an integer >= 1, got {modulus}")
    # Every modulus of at least the table width leaves each bin in its own
    # class, so capping it keeps the class arrays no longer than the table.
    return np.mod(table.indices, min(int(modulus), len(table.indices)))


def _require_symmetric(table: BinTable) -> None:
    p = table.prob
    c = table.centroid
    mu = table.source.mean
    if not np.allclose(p, p[::-1], rtol=0.0, atol=_SYMMETRY_TOL):
        raise SolverError("bin table is not symmetric about the source mean")
    if not np.allclose(c + c[::-1], 2.0 * mu, rtol=0.0, atol=_SYMMETRY_TOL * max(1.0, abs(mu))):
        raise SolverError("bin centroids are not symmetric about the source mean")


def output_entropy(table: BinTable) -> float:
    """Entropy in bits of the quantizer output."""
    return entropy_bits(table.prob)


def entropy_given_magnitude(table: BinTable) -> float:
    """Conditional entropy in bits of the output given its magnitude.

    Only the sign is left once the magnitude is known, so for a
    symmetric table this equals the probability that the output is
    nonzero.  Asymmetric tables are rejected.
    """
    _require_symmetric(table)
    return _conditional_entropy(table, np.abs(table.indices))


def entropy_given_residue(table: BinTable, modulus: int) -> float:
    """Conditional entropy in bits of the output given its index mod `modulus`.

    Residues are the nonnegative representatives 0..modulus-1, matching
    the arithmetic a decoder applies to received indices.
    """
    return _conditional_entropy(table, _residues(table, modulus))


def bob_distortion(table: BinTable, reconstruction: str) -> float:
    """Mean squared error of the legitimate decoder for a reconstruction rule.

    `lattice` reconstructs bin k as mean + k*step; `centroid` uses the
    conditional mean and is never worse.
    """
    var = np.clip(table.second_moment - table.centroid**2, 0.0, None)
    if reconstruction == "centroid":
        return float(np.dot(table.prob, var))
    if reconstruction == "lattice":
        points = table.source.mean + table.indices * table.step
        return float(np.dot(table.prob, var + (table.centroid - points) ** 2))
    raise ValueError(f"unknown reconstruction rule {reconstruction!r}")


def eve_mmse_given_residue(table: BinTable, modulus: int) -> float:
    """Least mean squared error of an estimator that sees only index mod `modulus`."""
    return _eve_mmse(table, _residues(table, modulus))


def eve_mmse_given_magnitude(table: BinTable) -> float:
    """Least mean squared error of an estimator that sees only the magnitude.

    For a symmetric table the magnitude is independent of the sign and
    carries no information about the source beyond its mean, so the
    value must equal the source variance; that identity is asserted.
    """
    _require_symmetric(table)
    mmse = _eve_mmse(table, np.abs(table.indices))
    expected = table.source.variance
    if abs(mmse - expected) > 1e-9 * max(1.0, expected):
        raise SolverError(
            f"magnitude-only MMSE {mmse} differs from the source variance {expected}"
        )
    return mmse


def step_size_for_entropy(
    source: GaussianSource,
    target_bits: float,
    bracket: tuple[float, float] | None = None,
    tol_bits: float = 1e-4,
) -> float:
    """Smallest step (to tolerance) whose output entropy does not exceed target.

    Output entropy decreases as the step grows, so the answer is the
    boundary step where the entropy crosses the target from above.  The
    returned step is always on the feasible side.  Monotonicity is
    spot-checked on the bracket; if it fails, a dense log-spaced scan
    picks the smallest feasible step instead.
    """
    if not math.isfinite(target_bits) or target_bits < 0.0:
        raise ValueError(f"target entropy must be finite and >= 0, got {target_bits}")
    if not math.isfinite(tol_bits) or tol_bits <= 0.0:
        raise ValueError(f"tol_bits must be positive, got {tol_bits}")

    def entropy_at(t: float) -> float:
        return output_entropy(build_bin_table(source, QuantizerSpec(step=t)))

    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
        if entropy_at(hi) > target_bits:
            raise ValueError("bracket upper end is infeasible for the target entropy")
        if entropy_at(lo) <= target_bits:
            return lo
    else:
        hi = 8.0 * source.std * 2.0 ** (-target_bits)
        for _ in range(200):
            if entropy_at(hi) <= target_bits:
                break
            hi *= 2.0
        else:
            raise SolverError("could not find a feasible step for the target entropy")
        lo = hi / 2.0
        for _ in range(60):
            if entropy_at(lo) > target_bits:
                break
            hi = lo
            lo /= 2.0
        else:
            raise SolverError("could not bracket the target entropy from above")

    probes = np.exp(np.linspace(math.log(lo), math.log(hi), 9))
    values = [entropy_at(float(t)) for t in probes]
    if any(values[i + 1] > values[i] + 1e-9 for i in range(len(values) - 1)):
        # Monotonicity looks broken on this bracket; fall back to a scan.
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), 512))
        for t in grid:
            if entropy_at(float(t)) <= target_bits:
                return float(t)
        return hi

    for _ in range(200):
        h_hi = entropy_at(hi)
        if h_hi >= target_bits - tol_bits or hi - lo <= 1e-13 * hi:
            return hi
        mid = 0.5 * (lo + hi)
        if entropy_at(mid) <= target_bits:
            hi = mid
        else:
            lo = mid
    return hi
