"""Symmetric uniform quantization of a Gaussian source.

Bins are indexed by the nearest-integer multiple of the step about the
source mean, tails are folded into the outermost kept bins, and every
bin carries its exact probability, offset (conditional mean less the
source mean) and within-bin variance.  Tables are built and scored about
0, so no computation reads the mean.  Every table is its own mirror
image, a rule `BinTable` checks once when it is built, in the source's own scale.
All entropy and distortion summaries of a quantized source are computed
from these tables, but for the step search's candidate entropies, which
it takes from the bin masses alone, by the tables' own mass rule.  The
outer bins merged by a fold are merged by `_class_moments`: each group's
mass and mean, and each bin's spread about its group mean, in one
vectorized pass.  Residues mod many moduli at once are swept over half the table
in cache-sized blocks (`_residue_sweep`): in a table of 2k + 1 bins, a
modulus up to k labels only bins 0..k, as bin -i is bin i mirrored, and
a larger one puts at most two bins in a class, read as contiguous slices
(in a small table, labelling costs less, and labels them too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .model import (_SQRT2, GaussianSource, RatePair, _frozen, _pmf, _whole,
                    entropy_bits, normal_cdf, truncated_moments)

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
_RESIDUE_BLOCK = 6144  # labels or bin pairs per block of the residue sweep: 48 KB temporaries
# Half-width k from which the residue sweep reads moduli above k as bin pairs.  Below
# it, labelling bins 0..k for every modulus costs less than the pairs' set-up (both
# statistics of every modulus: 117 against 191 us at k = 14, 360 against 372 at k = 55,
# 624 against 581 at k = 78).
_PAIRS_FROM = 64
_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny  # least normal float, a floor for divisors and logs

# The step search stops within this many bits below its target entropy.
_ENTROPY_TOL = 1e-4


def _step(value) -> float:
    """The one quantizer-step rule: finite and positive, as a float."""
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"step must be finite and positive, got {value}")
    return float(value)


@dataclass(frozen=True, eq=False)
class BinTable:
    """Per-bin law of the quantizer output for one source and step.

    Rows run over `indices` -max_index..max_index, set from the column
    length.  `prob` sums to one because tail mass is folded into the
    outermost bins; `offset` and `within_var` are the source's mean (less
    its mean) and variance conditional on the bin (fold included).  A table
    must be its own mirror image: bins i and -i of equal mass within 1e-12,
    and offsets with |d_i + d_-i| <= 1e-12 std.
    """

    prob: np.ndarray
    offset: np.ndarray
    within_var: np.ndarray
    source: GaussianSource
    step: float
    indices: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", _pmf(self.prob))
        for name in ("offset", "within_var"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        n = len(self.prob)
        if n % 2 != 1 or n < 3:
            raise ValueError("table must cover -k..k for some k >= 1")
        if not len(self.offset) == len(self.within_var) == n:
            raise ValueError("table columns must have equal length")
        object.__setattr__(self, "indices", _frozen(np.arange(-(n // 2), n // 2 + 1)))
        # Both tests fail on NaN; quarter offsets, so no sum of two can overflow.
        p, d = self.prob, 0.25 * self.offset
        if not np.abs(p - p[::-1]).max() <= _SYMMETRY_TOL:
            raise SolverError("bin table is not symmetric about the source mean")
        if not np.abs(d + d[::-1]).max() <= 0.25 * _SYMMETRY_TOL * self.source.std:
            raise SolverError("bin offsets are not symmetric about the source mean")

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
    m = truncated_moments(*_bin_edges(source, step), GaussianSource(0.0, source.variance))
    return _mirrored(m.mass, m.mean, m.variance, source, float(step))


def _bin_edges(source: GaussianSource, step: float):
    """Edges of bins 0..k at `step`, as offsets from the mean, the last bin open above."""
    t = _step(step)
    # Clamped, so a subnormal step's infinite extent is refused, not converted to an int;
    # within _MAX_BINS bins the edges (j - 1/2) t neither overflow nor round together.
    k_max = max(math.ceil(min(_TAIL_STDS * source.std / t - 0.5, _MAX_BINS)), 1)
    if 2 * k_max + 1 > _MAX_BINS:
        raise ValueError(f"step {t} needs more than the {_MAX_BINS} supported bins")
    lower = (np.arange(k_max + 1) - 0.5) * t
    return lower, np.append(lower[1:], math.inf)


def _step_entropy(source: GaussianSource, step: float) -> float:
    """`output_entropy(build_bin_table(source, step))` bit for bit, from the bin masses alone.

    The masses are `_masses`' own expressions for this one partition: its
    edges are distinct, not NaN, and at 0 or above it from bin 1 on, so
    bin j >= 1 takes the difference of the tails at its edges, and bin 0
    the erf pair when it straddles 0.
    """
    alpha = _bin_edges(source, step)[0] / source.std
    tail = normal_cdf(-np.abs(np.append(alpha, math.inf)))
    p = np.maximum(tail[:-1] - tail[1:], 0.0)
    if alpha[0] < 0.0 < alpha[1]:
        p[0] = 0.5 * (math.erf(float(alpha[1]) / _SQRT2) + math.erf(-float(alpha[0]) / _SQRT2))
    else:  # an edge of bin 0 at the mean, whose tail 1/2 is the larger, as _masses orders them
        p[0] = abs(tail[0] - tail[1])
    p[p < 1e-300] = 0.0
    return entropy_bits(_pmf(np.concatenate([p[:0:-1], p])))


def _mirrored(p, d, v, source: GaussianSource, step: float) -> BinTable:
    """Table over -k..k from bins 0..k; bins -k..-1 are their mirror images.

    A mirrored bin's offset is -d, exact; mass and variance carry over
    unchanged.
    """
    return BinTable(np.concatenate([p[:0:-1], p]), np.concatenate([-d[:0:-1], d]),
                    np.concatenate([v[:0:-1], v]), source, step)


def fold_bin_table(table: BinTable, max_index: int) -> BinTable:
    """Merge all bins with |index| >= max_index into the +-max_index bins."""
    if not _whole(max_index) or max_index < 1:
        raise ValueError(f"max_index must be an integer >= 1, got {max_index}")
    k_old = table.max_index
    if max_index >= k_old:
        return table

    # Fold the nonnegative half, then mirror it so the result is exactly symmetric.
    half = [col[k_old:] for col in (table.prob, table.offset, table.within_var)]
    labels = np.minimum(table.indices[k_old:], int(max_index))
    mass, offset, spread = _class_moments(table, labels, half)
    # The law of total variance: class spread / class mass, a massless class 0.
    var = np.divide(np.bincount(labels, weights=spread), mass, out=np.zeros(mass.size),
                    where=mass > 0.0)
    return _mirrored(mass, offset, var, table.source, table.step)


def _class_moments(table: BinTable, labels: np.ndarray, columns=None):
    """Mass and offset of each class of bins, and each row's spread about its class offset.

    `labels` gives the nonnegative integer class of each row of `columns`
    (prob, offset, within_var; the table's by default); mass and offset
    are summed in row order.  A row's spread is p*(v + (d - class offset)**2),
    exactly 0 without mass; a class without mass has offset 0.
    """
    p, d, v = columns or (table.prob, table.offset, table.within_var)
    mass = np.bincount(labels, weights=p)
    mean = np.divide(np.bincount(labels, weights=p * d), mass, out=np.zeros(mass.size),
                     where=mass > 0.0)
    dev = d - mean.take(labels)
    if not p.all():  # rows without mass: at huge steps their squared gap would overflow
        dev[p == 0.0] = 0.0
    return mass, mean, np.multiply(p, np.add(v, np.square(dev, out=dev), out=dev), out=dev)


def _residue_sweep(table: BinTable, moduli, classes, half, pairs, columns):
    """Per-modulus sums of one statistic's terms over the whole table, shaped like `moduli`.

    With W = 2k + 1 bins: for k < n < W every residue class is one bin or a
    pair of bins, and `_pair_sums` sums `pairs` of `columns`; a modulus
    n <= k, or any n < W if k < _PAIRS_FROM, goes to `classes(block, *cols)`,
    which labels bins 0..k only, with the `half` columns (over bins 0..k,
    the masses first) tiled to one row per modulus; n >= W leaves each bin
    alone, with no term.  A block holds whole moduli, up to _RESIDUE_BLOCK
    pairs or labels, so each modulus sums the same terms in the same order
    whatever shares its block.
    """
    f = np.asarray(moduli, dtype=float)
    if not np.all((f >= 1.0) & (f == np.floor(f)) & (f < math.inf)):
        raise ValueError(f"modulus must be an integer >= 1, got {moduli}")
    k, width = table.max_index, table.prob.size
    n = np.minimum(f.ravel(), width).astype(np.int64)
    out = np.zeros(n.size)
    split = width - 1
    if k >= _PAIRS_FROM:
        split = k
        at = np.flatnonzero((n > k) & (n < width))
        size = (width - n[at] + 1) // 2  # pairs per modulus, less their mirror images
        end = np.cumsum(size)
        start = 0
        while start < at.size:
            room = _RESIDUE_BLOCK + (end[start - 1] if start else 0)
            stop = max(start + 1, int(np.searchsorted(end, room, side="right")))
            block = slice(start, stop)
            out[at[block]] = _pair_sums(pairs, columns, n[at[block]], size[block], width)
            start = stop
    at = np.flatnonzero(n <= split)
    rows = max(1, _RESIDUE_BLOCK // (k + 1))
    tiled = [col[None].repeat(min(rows, at.size), axis=0).ravel() for col in half]
    for i in range(0, at.size, rows):
        block = n[at[i:i + rows]]
        out[at[i:i + rows]] = classes(block, *(col[:block.size * (k + 1)] for col in tiled))
    return float(out[0]) if f.ndim == 0 else out.reshape(f.shape)


def _pair_sums(pairs, columns, moduli: np.ndarray, size: np.ndarray, width: int) -> np.ndarray:
    """Each modulus's sum of `pairs(*ends)` over its residue classes of two bins, k < n < W.

    The classes of two bins are the pairs j, j + n for j < W - n, and pair
    W - n - 1 - j is pair j mirrored, so only the first `size` pairs are
    formed, each `columns` entry at j and at j + n laid end to end from
    contiguous slices; each pair's term counts twice but for the middle
    pair of an odd count, bins -i and i, its own mirror image.
    """
    ends = []
    for col in columns:
        ends += [np.concatenate([col[:m] for m in size]),
                 np.concatenate([col[n:n + m] for n, m in zip(moduli, size)])]
    terms = pairs(*ends)
    first = size.cumsum() - size
    terms[(first + size - 1)[(width - moduli) % 2 == 1]] *= 0.5
    return 2.0 * np.add.reduceat(terms, first)


def _half_classes(moduli: np.ndarray, p: np.ndarray):
    """Residues of bins 0..k mod each of `moduli` (n < W), whose masses `p` hold one row each.

    Bin -i is bin i mirrored, so the classes of the whole table are read
    from the half table: class r of modulus n holds the half's class r and
    the mirror image of its class (-r) mod n.  Classes are numbered across
    the block from `first` (each modulus's class 0).  Returns the labels,
    each class's mirror class, the whole classes' masses (floored at the
    least normal float, to divide by) and `first`.
    """
    first = moduli.cumsum() - moduli
    labels = np.mod(np.arange(p.size // moduli.size), moduli[:, None])
    labels += first[:, None]
    mirror = np.repeat(2 * first + moduli, moduli)
    mirror -= np.arange(mirror.size)
    mirror[first] = first
    mass = np.bincount(labels.ravel(), weights=p, minlength=mirror.size)
    mass += mass[mirror]
    mass[first] -= p[0]  # bin 0 is its own mirror image
    return labels.ravel(), mirror, np.maximum(mass, _TINY, out=mass), first


def _class_log_shares(moduli: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum p log(p / P(class)) over the whole table, per modulus n < W, from bins 0..k.

    Bins i and -i take equal terms, as their classes are mirror images of
    equal mass, so bins 1..k count twice.  `_pair_log_shares`' split, by
    class: the bin holding most of a class, if one does, adds
    (P - rest) log1p(-rest / P), with `rest` summed from the other bins,
    and those add p log(p / P).
    """
    labels, mirror, mass, first = _half_classes(moduli, p)
    share = np.divide(p, mass.take(labels))
    minor = np.where(share > 0.5, 0.0, p)
    rest = np.bincount(labels, weights=minor, minlength=mirror.size)
    rest += rest[mirror]
    rest[first] -= minor[::p.size // moduli.size]  # bin 0 once
    # Floored at the least normal float, so a bin outside the minor ones adds 0 * finite.
    np.log(np.maximum(share, _TINY, out=share), out=share)
    minor[::p.size // moduli.size] *= 0.5  # bin 0 is its own mirror image
    bins = 2.0 * np.vecdot(minor.reshape(moduli.size, -1), share.reshape(moduli.size, -1))
    # A class without a major bin has rest == mass bit for bit, and adds 0.
    major = np.log1p(-np.minimum(rest / mass, 0.5))
    major *= np.subtract(mass, rest, out=mass)
    return bins + np.add.reduceat(major, first)


def _class_spread(moduli: np.ndarray, p: np.ndarray, pd: np.ndarray, spread: float) -> np.ndarray:
    """sum p (d - class offset)**2 over the whole table, per modulus n < W, from bins 0..k.

    That is `spread` = sum p d**2 over the table less sum S**2 / P over the
    classes, with offsets d (`pd` = p d per bin) and S the sum of p d over
    a class: a mirrored bin has offset -d, so S is the half's class sum
    less its mirror class's, and 0 in a class that is its own mirror image
    (bin 0's own offset, 0 within the table's symmetry tolerance, is left
    out of S).  A class without mass adds 0.
    """
    labels, mirror, mass, first = _half_classes(moduli, p)
    moment = np.bincount(labels, weights=pd, minlength=mirror.size)
    moment -= moment[mirror]
    moment *= moment
    return np.maximum(spread - np.add.reduceat(np.divide(moment, mass, out=moment), first), 0.0)


def _pair_log_shares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p log(p / P) summed over a class of two bins of masses a and b, P = a + b.

    Summed directly, as H(output) - H(class) cancels catastrophically when
    tiny, and split as small log(small / P) + large log1p(-small / P), as
    large / P would round a small below 1e-16 P away.  A pair without mass
    adds exactly 0.
    """
    small, large = np.minimum(a, b), np.maximum(a, b)
    # Floored at the least normal float, so a massless bin adds 0 * finite.
    share = small / np.maximum(a + b, _TINY)
    terms = large * np.log1p(-share)
    terms += small * np.log(np.maximum(share, _TINY))
    return terms


def _pair_spread(a: np.ndarray, b: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """p (d - class offset)**2 summed over a class of two bins: a b / (a + b) (da - db)**2.

    A pair without mass adds exactly 0.
    """
    gap = da - db
    # weight * gap first: a massless pair adds 0, where a huge step's gap**2 would overflow.
    return a * b / np.maximum(a + b, _TINY) * gap * gap


def output_entropy(table: BinTable) -> float:
    """Entropy in bits of the quantizer output."""
    return entropy_bits(table.prob)


def entropy_given_magnitude(table: BinTable) -> float:
    """Conditional entropy in bits of the output given its magnitude.

    Only the sign is left once the magnitude is known, so this equals
    the probability that the output is nonzero.
    """
    k = table.max_index
    # Magnitude i > 0 is the class of bins i and -i; magnitude 0 is bin 0 alone.
    nats = float(np.sum(_pair_log_shares(table.prob[k + 1:], table.prob[k - 1::-1])))
    return 0.0 - nats / _LN2


def entropy_given_residue(table: BinTable, modulus):
    """Conditional entropy in bits of the output given its index mod `modulus`.

    Residues are the nonnegative representatives 0..modulus-1, matching
    the arithmetic a decoder applies to received indices.  An integer
    array of moduli gives an array, bit for bit the scalar calls.
    """
    half = (table.prob[table.max_index:],)
    nats = _residue_sweep(table, modulus, _class_log_shares, half, _pair_log_shares, (table.prob,))
    # 0.0 - x rather than -x, so an exact zero never prints as -0.
    return 0.0 - nats / _LN2


def bob_distortion(table: BinTable, reconstruction: str) -> float:
    """Mean squared error of the legitimate decoder for a reconstruction rule.

    `lattice` reconstructs bin k as mean + k*step; `centroid` uses the
    conditional mean and is never worse.
    """
    if reconstruction == "centroid":
        return float(np.dot(table.prob, table.within_var))
    if reconstruction == "lattice":
        # A bin without mass adds exactly 0; at huge steps its squared gap would overflow.
        gap = np.where(table.prob > 0.0, table.offset - table.indices * table.step, 0.0)
        return float(np.dot(table.prob, table.within_var + gap * gap))
    raise ValueError(f"unknown reconstruction rule {reconstruction!r}")


def eve_mmse_given_residue(table: BinTable, modulus):
    """Least mean squared error of an estimator that sees only index mod `modulus` (or array).

    The within-bin variances plus each bin's squared gap from its class mean.
    """
    k = table.max_index
    p, d = table.prob[k:], table.offset[k:]
    pd = p * d
    # Bins 1..k stand for their mirror images too.  p * d first: a bin without
    # mass adds 0, where a huge step's d**2 would overflow.
    spread = 2.0 * float(np.dot(pd[1:], d[1:])) + pd[0] * d[0]
    between = _residue_sweep(table, modulus, lambda n, *cols: _class_spread(n, *cols, spread),
                             (p, pd), _pair_spread, (table.prob, table.offset))
    return float(np.dot(table.prob, table.within_var)) + between


def eve_mmse_given_magnitude(table: BinTable) -> float:
    """Least mean squared error of an estimator that sees only the magnitude.

    In a symmetric table each {+u, -u} pair has the source mean as its
    mean, so the magnitude says nothing about the source beyond it, and
    the value, sum p v + sum p d**2 over the offsets d, must equal the
    source variance; that identity is asserted to 1e-9 of it.
    """
    d = table.offset
    # p * d first: a bin without mass adds 0, where a huge step's d**2 would overflow.
    mmse = float(np.dot(table.prob, table.within_var)) + float(np.dot(table.prob * d, d))
    expected = table.source.variance
    if not abs(mmse - expected) <= 1e-9 * expected:  # NaN fails too
        raise SolverError(f"magnitude-only MMSE {mmse} differs from the source variance {expected}")
    return mmse


def step_size_for_entropy(source: GaussianSource, target_bits: float) -> BinTable:
    """Bin table of the smallest step (to within _ENTROPY_TOL bits) whose entropy fits the target.

    The output entropy depends on step/std alone and decreases as the
    step grows: the step is bracketed by doubling and halving, then
    bisected, each candidate's entropy taken from its bin masses alone
    (`_step_entropy`).  One table is built, at the chosen step (its
    `.step`), which is always on the feasible side.  A target that
    needs more than _MAX_BINS bins raises a ValueError.
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
    except ValueError:  # from _bin_edges: too many bins
        raise ValueError(f"an output entropy of {target_bits} bits needs more than the"
                         f" {_MAX_BINS} supported bins") from None

    while h_hi < target_bits - _ENTROPY_TOL and hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        h_mid = _step_entropy(source, mid)
        if h_mid <= target_bits:
            hi, h_hi = mid, h_mid
        else:
            lo = mid
    return build_bin_table(source, hi)
