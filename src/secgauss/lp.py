"""Key-limited disclosure of a quantized Gaussian source as a linear program.

The quantized source is a finite pmf over bin offsets (centroids less
the source mean).  A disclosure strategy mixes posterior candidates
whose barycenter is that pmf and whose average entropy fits the key
rate; the best eavesdropper error is a linear program over the weights.
Candidates are the subset restrictions of the pmf, each fixed by its
subset bitmask and held column by column in one `CandidateSet` (masks,
entropies and scores).  Enumeration gets every subset's statistics by
adding one support point to a smaller subset.  The solver builds its
matrix from the mask bits over orbits of the mirror sigma(i) = k - 1 - i,
a symmetry of every bin table's pmf: an optimum gives S and sigma S one
weight, so they share a column, and mirror points share a row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SolverError
from .model import RatePair, _frozen, _pmf, _whole, entropy_bits
from .quantizer import BinTable, fold_bin_table
from .simplex import linear_program_sweep

__all__ = [
    "QuantizedPmf",
    "CandidateSet",
    "LpSolution",
    "build_quantized_pmf",
    "enumerate_subset_candidates",
    "solve_secrecy_lp",
    "sweep_secrecy_lp",
]

# Largest support enumerated; above it the 2**k subset masks are
# refused before any is built.  Peak RSS of `lp --t 0.3 --r 9 --rs 0.5`:
# 36 MB at support 15, 48 MB at 17, 96 MB at 19.
_MAX_SUPPORT = 19

_SCORE_MODES = ("continuous", "alphabet_restricted")


@dataclass(frozen=True, eq=False)
class QuantizedPmf:
    """Finite pmf over strictly increasing reconstruction points."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        pts = _frozen(self.points, float)
        pr = _pmf(self.probs)
        if pts.ndim != 1 or pts.size == 0 or pts.shape != pr.shape:
            raise ValueError("points and probs must be equal-length 1-d arrays")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if (np.diff(pts) <= 0.0).any():
            raise ValueError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    def mean(self) -> float:
        return float(np.dot(self.probs, self.points))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot(self.probs, (self.points - m) ** 2))

    def entropy_bits(self) -> float:
        return entropy_bits(self.probs)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Subset candidates as read-only columns; entry i of each is candidate i.

    Candidate i is the pmf renormalized on the subset whose bitmask is
    `masks[i]` (bit j for support point j), with its `entropy_bits` and
    `scores`, which must be nonnegative.  The masks are checked against
    the pmf that the candidates are solved on.
    """

    masks: np.ndarray
    entropy_bits: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        masks = _frozen(self.masks, np.int64)
        ent, scores = _frozen(self.entropy_bits, float), _frozen(self.scores, float)
        if masks.ndim != 1 or not masks.shape == ent.shape == scores.shape:
            raise ValueError("candidate arrays must hold one entry per mask")
        if not ((ent >= -1e-12).all() and (scores >= -1e-12).all()):  # NaN fails too
            raise ValueError("entropy and score must be nonnegative")
        for name, column in zip(("masks", "entropy_bits", "scores"), (masks, ent, scores)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.masks.size

    def label(self, i: int) -> str:
        """Support points of candidate i's subset: "1+3" for mask 0b1010."""
        mask = int(self.masks[i])
        return "+".join(str(j) for j in range(mask.bit_length()) if mask >> j & 1)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal mixture: eavesdropper error, weights, and key-rate slack; NaN value if unsolved."""

    value: float
    weights: np.ndarray
    slack_rs: float
    feasible: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(self.weights, float))
        object.__setattr__(self, "feasible", not math.isnan(self.value))


def build_quantized_pmf(table: BinTable, max_support: Optional[int] = None) -> QuantizedPmf:
    """Pmf of the centroid-reconstructed output of a bin table, over its bin offsets.

    Zero-mass bins are dropped; the mean, 0, is checked to 1e-9 std.  With
    `max_support` (odd, 3 to 19), outer bins are folded together first so that the
    support fits the LP cap; the fold only coarsens the pmf, so the entropy never grows.
    """
    if max_support is not None:
        if not _whole(max_support) or max_support < 3 or max_support % 2 == 0:
            raise ValueError(f"max_support must be an odd integer >= 3, got {max_support}")
        if max_support > _MAX_SUPPORT:
            raise ValueError(
                f"support cap {max_support} exceeds the largest supported, {_MAX_SUPPORT}")
        table = fold_bin_table(table, (max_support - 1) // 2)
    keep = table.prob > 0.0
    pmf = QuantizedPmf(table.offset[keep], table.prob[keep])
    drift = abs(pmf.mean())
    if not drift <= 1e-9 * table.source.std:  # NaN fails too
        raise SolverError(f"quantized pmf mean drifted by {drift} from the source mean")
    return pmf


def enumerate_subset_candidates(pmf: QuantizedPmf, mode: str = "continuous") -> CandidateSet:
    """All subset restrictions of the pmf, in ascending bitmask order.

    Candidate for subset S: the pmf renormalized on S.  Mixtures of
    these realize every "reveal which subset the symbol fell in"
    disclosure.  Subsets of zero mass are left out.  A support of more
    than `_MAX_SUPPORT` points is refused outright rather than
    approximated, before any mask is built, as is one whose spread (max -
    min) squares past the float range: then no squared gap can overflow.

    A candidate's score is the least squared error of an eavesdropper
    who knows its posterior: the variance in `continuous` mode; in
    `alphabet_restricted` mode the estimate must be a support point,
    which adds the squared gap from the mean to the nearest one.
    """
    if mode not in _SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}")
    k = int(pmf.points.size)
    if k > _MAX_SUPPORT:
        raise ValueError(f"support size {k} exceeds the largest supported, {_MAX_SUPPORT};"
                         " fold the pmf (build_quantized_pmf's max_support)")
    pts, probs = pmf.points, pmf.probs
    spread = float(pts[-1]) - float(pts[0])  # Python floats overflow to inf without a warning
    if not math.isfinite(spread * spread):
        raise ValueError(f"support spread {spread:g} squares past the float range")
    # Entry S describes the subset with bitmask S.  The subsets whose
    # highest point is j are R + {j} for every R below 2**j; each merges
    # R's (mass, mean, M2) with the one point (Chan, Golub & LeVeque
    # 1979), M2 kept over the mass as a variance, and takes its entropy
    # by the grouping rule H(S) = h(p_j / P(S)) + P(R) / P(S) * H(R).
    mass, mean, var, ent = (np.zeros(2**k) for _ in range(4))
    for j in range(k):
        r, s = slice(0, 1 << j), slice(1 << j, 2 << j)
        mass[s] = mass[r] + probs[j]
        # Both shares by division, never one minus the other; a subset of
        # zero mass gets zero shares and keeps zero statistics.
        total = np.where(mass[s] > 0.0, mass[s], 1.0)
        share, rest = probs[j] / total, mass[r] / total
        delta = pts[j] - mean[r]
        mean[s] = mean[r] + delta * share
        var[s] = rest * (var[r] + share * delta**2)
        small, large = np.minimum(share, rest), np.maximum(share, rest)
        h = -small * np.log(np.where(small > 0.0, small, 1.0)) - large * np.log1p(-small)
        ent[s] = h / math.log(2.0) + rest * ent[r]
    # Subsets of zero total mass cannot be disclosed; skip them.
    masks = np.flatnonzero(mass > 0.0)
    mean, scores = mean[masks], var[masks]
    if mode == "alphabet_restricted":
        i = np.searchsorted(pts, mean)
        below, above = pts[np.maximum(i - 1, 0)], pts[np.minimum(i, k - 1)]
        scores += np.minimum((mean - below) ** 2, (above - mean) ** 2)
    return CandidateSet(masks, ent[masks], scores)


def covers_entropy(pmf: QuantizedPmf, rate: float) -> bool:
    """Whether a message rate can describe the pmf outright."""
    return rate >= pmf.entropy_bits() - 1e-9


def solve_secrecy_lp(pmf: QuantizedPmf, rates: RatePair, candidates: CandidateSet) -> LpSolution:
    """Best eavesdropper error over key-feasible mixtures: one rate of `sweep_secrecy_lp`."""
    return next(sweep_secrecy_lp(pmf, rates.rate, [rates.key_rate], candidates))


def sweep_secrecy_lp(pmf: QuantizedPmf, rate: float, key_rates,
                     candidates: CandidateSet) -> Iterator[LpSolution]:
    """Best eavesdropper error over key-feasible mixtures at each key rate, in order.

    Maximizes the weighted score subject to the mixture reproducing the
    pmf and the average candidate entropy fitting the key rate.  The
    message rate must cover the pmf entropy outright; otherwise every
    instance is reported infeasible without solving.  The candidates
    (`enumerate_subset_candidates(pmf, mode=...)` or the caller's) are
    trusted as scored, and must hold each positive-mass point's singleton,
    with entropy 0.  The program is built once and only the key rate
    changes, so each solve starts from the optimal basis of the one
    before.  Each solution is yielded as it is solved; bad rates or
    candidates raise at the first `next()`.
    """
    pairs = [RatePair(rate, float(rs)) for rs in key_rates]
    if not covers_entropy(pmf, rate):
        yield from (LpSolution(math.nan, np.zeros(0), math.nan) for _ in pairs)
        return
    if not candidates:
        raise ValueError("candidate set is empty")
    k, n = pmf.points.size, len(candidates)
    masks, ent, score = candidates.masks, candidates.entropy_bits, candidates.scores
    if (masks >> k).any():
        raise ValueError(f"candidate mask has a bit outside the {k}-point support")
    sigma, twin = _mirror(pmf, candidates)
    # One column per orbit O = {S, sigma S}, its candidate of the smaller
    # mask, and one row per orbit {i, sigma i} of points of positive mass.
    cols = np.flatnonzero(masks <= masks[twin])
    m, twin = masks[cols], twin[cols]
    rows = np.flatnonzero((pmf.probs > 0.0) & (np.arange(k) <= sigma))
    # The solver starts from each row's first singleton and the slack, a
    # diagonal basis (feasible while singletons spend no key).  Found before
    # the matrix is built, off the memory peak; reversed, the dict keeps the first.
    single = np.flatnonzero((m & (m - 1)) == 0)[::-1]
    first = dict(zip(m[single].tolist(), single.tolist()))
    key, c, probs = rows.size, cols.size, pmf.probs[rows]
    start = [first.get(1 << i, -1) for i in rows.tolist()] + [c]

    # Each orbit's column is the mean of its subsets' columns in the program
    # over v = w / P(S), one per subset weight w, so the solver's variable
    # is z = |O| * w / P(S); the last column is the slack of the entropy
    # row, whose right-hand side the sweep sets to the key rate.  Row i, of
    # entries ([i in S] + [sigma i in S]) / 2, sums z over the S holding i to 1.
    a = np.zeros((key + 1, c + 1))
    for r, i in enumerate(rows):
        a[r, :c] = ((m >> i & 1) + (m >> sigma[i] & 1)) / 2.0
    mass = probs * np.where(rows == sigma[rows], 1.0, 2.0) @ a[:key, :c]  # P(S), each i once
    if not (mass > 0.0).all():
        raise ValueError("candidate subset has zero mass")
    for i, j in zip(rows, start):
        if j < 0 or abs(ent[cols[j]]) > 1e-12:
            why = "is missing" if j < 0 else f"has entropy {ent[cols[j]]}, not 0"
            raise ValueError(f"the singleton subset of point {i} {why}; the LP starts from it")
    a[key, :c] = mass * ent[cols]
    a[key, c] = 1.0
    # Costs in units of the power of two nearest the pmf's variance (1 for a point mass),
    # exact to scale back, so the simplex's absolute tolerances meet one scale.
    scale = 2.0 ** round(math.log2(var)) if (var := pmf.variance()) > 0.0 else 1.0
    cost = np.append(mass * score[cols], 0.0) / scale

    # No mixture spends more key than its largest candidate entropy, so a
    # larger rate is capped there, which keeps the key row's roundoff small.
    rates = np.minimum([p.key_rate for p in pairs], ent.max())
    solved = linear_program_sweep(cost, a, np.append(np.ones(key), 0.0), start, key, rates)
    for pair, (u, value) in zip(pairs, solved):
        if not np.max(np.abs(probs * (a[:key, :c] @ u[:c]) - probs)) <= 1e-8:
            raise SolverError("LP solution violates the barycenter constraint")  # NaN fails too
        weights = np.zeros(n)
        weights[cols] = 0.5 * u[:c] * mass
        weights[twin] += weights[cols]
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-8:
            raise SolverError(f"LP weights sum to {total}, expected 1")
        used = float(np.dot(weights, ent))
        if not used <= pair.key_rate + 1e-8:
            raise SolverError("LP solution violates the key-rate constraint")
        yield LpSolution(max(value, 0.0) * scale, weights, pair.key_rate - used)


def _mirror(pmf: QuantizedPmf, candidates: CandidateSet) -> tuple[np.ndarray, np.ndarray]:
    """sigma(i) = k - 1 - i on the points and each candidate's mirror image, or identities.

    The mirror is a symmetry of the LP if it keeps the masses exactly and
    pairs each candidate with one of equal entropy and score.
    """
    k, masks = pmf.points.size, candidates.masks
    trivial = np.arange(k), np.arange(masks.size)
    rev = np.zeros(1 << k, dtype=np.int64)  # each k-bit mask reversed
    for j in range(k):
        rev[1 << j:2 << j] = rev[:1 << j] | 1 << (k - 1 - j)
    where = np.full(1 << k, -1)  # the candidate of each mask, -1 for none
    where[masks] = trivial[1]
    twin = where[rev[masks]]
    paired = (twin >= 0).all() and (twin[twin] == trivial[1]).all()
    if paired and (pmf.probs == pmf.probs[::-1]).all() and all(
            (np.abs(x[twin] - x) <= 1e-12 * x + 1e-15).all()
            for x in (candidates.entropy_bits, candidates.scores)):
        return trivial[0][::-1], twin
    return trivial
