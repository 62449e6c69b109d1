"""Symmetric uniform quantization of a Gaussian source.

Bins are indexed by the nearest-integer multiple of the step about the
source mean, tails are folded into the outermost kept bins, and every
bin carries its exact probability, centroid, and within-bin variance.
All entropy and distortion summaries of a quantized source are computed
from these tables, but for the step search's candidate entropies, which
the same code takes from the bin masses alone.  Bins grouped by a
function of the index (residue mod n, magnitude, or the outer bins
merged by a fold) are merged by one routine, `_class_moments`: each
group's mass and mean, and each bin's spread about its group mean, whose
sum is Eve's error, in one vectorized pass, also for the residues mod
many moduli at once, stacked in cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .model import (GaussianSource, RatePair, _frozen, _masses, _pmf, _whole, entropy_bits,
                    truncated_moments)

__all__ = [
    "BinTable",
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
_TAIL_STDS = 7.130506848171325

_SYMMETRY_TOL = 1e-12
_RESIDUE_BLOCK = 8192  # table entries per block of stacked residue labellings, to stay in cache

# The step search stops within this many bits below its target entropy.
_ENTROPY_TOL = 1e-4


class _StepError(ValueError):
    """A step no table can have: not finite and positive, or too fine for _MAX_BINS bins."""


def _step(value) -> float:
    """The one quantizer-step rule: finite and positive, as a float."""
    if not math.isfinite(value) or value <= 0.0:
        raise _StepError(f"step must be finite and positive, got {value}")
    return float(value)


@dataclass(frozen=True, eq=False)
class BinTable:
    """Per-bin law of the quantizer output for one source and step.

    Rows run over `indices` -max_index..max_index, set from the column
    length.  `prob` sums to one because tail mass is folded into the
    outermost bins; `centroid` and `within_var` are the source's mean
    and variance conditional on the bin (fold included).
    """

    prob: np.ndarray
    centroid: np.ndarray
    within_var: np.ndarray
    source: GaussianSource
    step: float
    indices: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", _pmf(self.prob))
        for name in ("centroid", "within_var"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        n = len(self.prob)
        if n % 2 != 1 or n < 3:
            raise ValueError("table must cover -k..k for some k >= 1")
        if not len(self.centroid) == len(self.within_var) == n:
            raise ValueError("table columns must have equal length")
        object.__setattr__(self, "indices", _frozen(np.arange(-(n // 2), n // 2 + 1)))

    @property
    def max_index(self) -> int:
        return (len(self.indices) - 1) // 2

    def row(self, index: int) -> int:
        """Position of bin `index` in the table arrays."""
        k = self.max_index
        if not -k <= index <= k:
            raise ValueError(f"bin index {index} outside [-{k}, {k}]")
        return index + k


def build_bin_table(source: GaussianSource, step: float) -> BinTable:
    """Exact bin table for a symmetric uniform quantizer.

    The index extent is the least k >= 1 whose untruncated tails carry
    at most 1e-12 probability; those tails are then folded into the
    outermost bins so that the table is a true partition.
    """
    m = truncated_moments(*_bin_edges(source, step), source)
    return _mirrored(m.mass, m.mean, m.variance, source, float(step))


def _bin_edges(source: GaussianSource, step: float):
    """Lower and upper edges of bins 0..k at `step`, the last bin open above."""
    mu, t = source.mean, _step(step)
    # Clamped, so a subnormal step's infinite extent is refused, not converted to an int.
    k_max = max(math.ceil(min(_TAIL_STDS * source.std / t - 0.5, _MAX_BINS)), 1)
    if 2 * k_max + 1 > _MAX_BINS:
        raise _StepError(f"step {t} needs more than the {_MAX_BINS} supported bins")
    lower = mu + (np.arange(k_max + 1) - 0.5) * t
    if not (np.diff(lower) > 0.0).all():
        raise ValueError(f"step {t} is too fine for floats at the source mean {mu:g}")
    return lower, np.append(lower[1:], math.inf)


def _step_entropy(source: GaussianSource, step: float) -> float:
    """`output_entropy(build_bin_table(source, step))` bit for bit, from the bin masses alone."""
    p = _masses(*_bin_edges(source, step), source)[0]
    return entropy_bits(_pmf(np.concatenate([p[:0:-1], p])))


def _mirrored(p, c, v, source: GaussianSource, step: float) -> BinTable:
    """Table over -k..k from bins 0..k; bins -k..-1 are their mirror images.

    The mirror is taken about the source mean, exact by its symmetry;
    mass and variance carry over unchanged.
    """
    centroid = np.concatenate([(2.0 * source.mean - c)[:0:-1], c])
    return BinTable(np.concatenate([p[:0:-1], p]), centroid,
                    np.concatenate([v[:0:-1], v]), source, step)


def fold_bin_table(table: BinTable, max_index: int) -> BinTable:
    """Merge all bins with |index| >= max_index into the +-max_index bins."""
    if not _whole(max_index) or max_index < 1:
        raise ValueError(f"max_index must be an integer >= 1, got {max_index}")
    k_old = table.max_index
    if max_index >= k_old:
        return table
    _require_symmetric(table)

    # Fold the nonnegative half, then mirror it so the result is exactly symmetric.
    half = [col[k_old:] for col in (table.prob, table.centroid, table.within_var)]
    labels = np.minimum(table.indices[k_old:], int(max_index))
    mass, mean, spread = _class_moments(table, labels, half)
    # The law of total variance: class spread / class mass, a massless class 0.
    var = np.divide(np.bincount(labels, weights=spread), mass, out=np.zeros(mass.size),
                    where=mass > 0.0)
    return _mirrored(mass, mean, var, table.source, table.step)


def _class_moments(table: BinTable, labels: np.ndarray, columns=None):
    """Mass and mean of each class of bins, and each row's spread about its class mean.

    `labels` gives the nonnegative integer class of each row of `columns`
    (prob, centroid, within_var; the table's by default); mass and mean are
    summed in row order.  A row's spread is p*(v + (c - class mean)**2),
    exactly 0 without mass; a class without mass has the source mean.
    """
    p, c, v = columns or (table.prob, table.centroid, table.within_var)
    mass = np.bincount(labels, weights=p)
    mean = np.divide(np.bincount(labels, weights=p * c), mass,
                     out=np.full(mass.size, table.source.mean), where=mass > 0.0)
    dev = c - mean.take(labels)
    if not p.all():  # rows without mass: at huge steps their squared gap would overflow
        dev[p == 0.0] = 0.0
    return mass, mean, np.multiply(p, np.add(v, np.square(dev, out=dev), out=dev), out=dev)


def _conditional_entropy(table: BinTable, labels: np.ndarray, columns=None) -> list:
    """Entropy in bits of the output given its class: -sum_i p_i log2(p_i / P(class of i)).

    One per table-long labelling stacked in `labels`, with `columns` (prob,) to
    match; summed directly, as H(output) - H(class) cancels catastrophically when tiny.
    An entry holding most of its class takes log1p(-rest / P), with `rest` summed from
    the class's other entries, as p / P would round a rest below 1e-16 P away.
    """
    p = columns[0] if columns else table.prob
    share = np.bincount(labels, weights=p).take(labels)
    major = p > 0.5 * share
    minor = np.where(major, 0.0, p)
    ratio = np.divide(p, share, out=np.ones_like(p), where=minor > 0.0)
    np.log(ratio, out=ratio)
    ratio[major] = np.log1p(-np.bincount(labels, weights=minor).take(labels[major]) / share[major])
    # 0.0 - x rather than -x, so an exact zero never prints as -0.
    rows = (-1, table.prob.size)
    return (0.0 - np.vecdot(p.reshape(rows), ratio.reshape(rows)) / math.log(2.0)).tolist()


def _eve_mmse(table: BinTable, labels: np.ndarray, columns=None) -> list:
    """Least mean squared error given the class: the summed spread of each stacked labelling."""
    spread = _class_moments(table, labels, columns)[2]
    return spread.reshape(-1, table.prob.size).sum(axis=1).tolist()


def _residue_sweep(table: BinTable, moduli, columns, stat):
    """`stat(table, labels, columns)` over blocks of residue labellings of `moduli`, stacked
    to _RESIDUE_BLOCK entries: labelling j's classes start at j * width."""
    f = np.asarray(moduli, dtype=float)
    if not np.all((f >= 1.0) & (f == np.floor(f)) & (f < math.inf)):
        raise ValueError(f"modulus must be an integer >= 1, got {moduli}")
    # A modulus of at least the table width leaves each bin in its own class.
    caps = np.minimum(f.ravel(), table.prob.size).astype(np.int64)
    rows = max(1, _RESIDUE_BLOCK // table.prob.size)
    tiled = [np.tile(col, min(rows, caps.size)) for col in columns]
    out = []
    for block in np.split(caps, range(rows, caps.size, rows)):
        labels = np.mod(table.indices, block[:, None])
        labels[1:] += np.arange(table.prob.size, labels.size, table.prob.size)[:, None]
        out += stat(table, labels.ravel(), [c[:labels.size] for c in tiled])
    return out[0] if f.ndim == 0 else np.array(out, dtype=float).reshape(f.shape)


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
    return _conditional_entropy(table, np.abs(table.indices))[0]


def entropy_given_residue(table: BinTable, modulus):
    """Conditional entropy in bits of the output given its index mod `modulus`.

    Residues are the nonnegative representatives 0..modulus-1, matching
    the arithmetic a decoder applies to received indices.  An integer
    array of moduli gives an array, bit for bit the scalar calls.
    """
    return _residue_sweep(table, modulus, (table.prob,), _conditional_entropy)


def bob_distortion(table: BinTable, reconstruction: str) -> float:
    """Mean squared error of the legitimate decoder for a reconstruction rule.

    `lattice` reconstructs bin k as mean + k*step; `centroid` uses the
    conditional mean and is never worse.
    """
    if reconstruction == "centroid":
        return float(np.dot(table.prob, table.within_var))
    if reconstruction == "lattice":
        points = table.source.mean + table.indices * table.step
        # A bin without mass adds exactly 0; at huge steps its squared gap would overflow.
        gap = np.where(table.prob > 0.0, table.centroid - points, 0.0)
        return float(np.dot(table.prob, table.within_var + gap * gap))
    raise ValueError(f"unknown reconstruction rule {reconstruction!r}")


def eve_mmse_given_residue(table: BinTable, modulus):
    """Least mean squared error of an estimator that sees only index mod `modulus` (or array)."""
    return _residue_sweep(table, modulus, (table.prob, table.centroid, table.within_var), _eve_mmse)


def eve_mmse_given_magnitude(table: BinTable) -> float:
    """Least mean squared error of an estimator that sees only the magnitude.

    For a symmetric table the magnitude is independent of the sign and
    carries no information about the source beyond its mean, so the
    value must equal the source variance; that identity is asserted.
    """
    _require_symmetric(table)
    mmse = _eve_mmse(table, np.abs(table.indices))[0]
    expected = table.source.variance
    if abs(mmse - expected) > 1e-9 * max(1.0, expected):
        raise SolverError(f"magnitude-only MMSE {mmse} differs from the source variance {expected}")
    return mmse


def step_size_for_entropy(source: GaussianSource, target_bits: float) -> BinTable:
    """Bin table of the smallest step (to within _ENTROPY_TOL bits) whose entropy fits the target.

    The output entropy depends on step/std alone and decreases as the
    step grows: the step is bracketed by doubling and halving, then
    bisected, each candidate's entropy taken from its bin masses alone
    (`_step_entropy`).  One table is built, at the chosen step (its
    `.step`), which is always on the feasible side.  A target that
    needs more than _MAX_BINS bins, or a step below float spacing, raises a ValueError.
    """
    RatePair(target_bits, 0.0)  # a ValueError for a non-finite or negative target
    hi = 8.0 * source.std * 2.0 ** (-target_bits)
    try:
        # Both loops end: the entropy is 0 from about 75 std up, and halving
        # the step soon needs more bins than _MAX_BINS.
        while (h_hi := _step_entropy(source, hi)) > target_bits:
            hi *= 2.0
        lo = hi / 2.0
        while (h_lo := _step_entropy(source, lo)) <= target_bits:
            hi, h_hi, lo = lo, h_lo, lo / 2.0
    except ValueError as exc:  # from _bin_edges: too many bins, or a step below float spacing
        why = (f"more than the {_MAX_BINS} supported bins" if isinstance(exc, _StepError)
               else f"a step too fine for floats at the source mean {source.mean:g}")
        raise ValueError(f"an output entropy of {target_bits} bits needs {why}") from None

    while h_hi < target_bits - _ENTROPY_TOL and hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        h_mid = _step_entropy(source, mid)
        if h_mid <= target_bits:
            hi, h_hi = mid, h_mid
        else:
            lo = mid
    return build_bin_table(source, hi)
