"""Key-limited disclosure of a quantized Gaussian source as a linear program.

The quantized source is a finite pmf over bin centroids.  A disclosure
strategy mixes posterior candidates whose barycenter is that pmf and
whose average entropy fits the key rate; the best achievable
eavesdropper error is then a linear program over the mixture weights.
Candidates are the subset restrictions of the pmf, held column by
column in one `CandidateSet` (subset masks, posterior rows, entropies
and scores); the solver fills its constraint matrix from those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError
from .model import GaussianSource, PayoffValue, RatePair, entropy_bits
from .quantizer import QuantizerSpec, build_bin_table, fold_bin_table
from .simplex import linear_program_sweep

__all__ = [
    "QuantizedPmf",
    "CandidateSet",
    "LpSolution",
    "build_quantized_pmf",
    "enumerate_subset_candidates",
    "solve_secrecy_lp",
    "sweep_secrecy_lp",
    "lp_payoff",
]

DEFAULT_SUPPORT_CAP = 15
# Largest support cap accepted; above it the 2**k subset masks are
# refused before any is built.  Peak RSS of `lp --t 0.3 --r 9 --rs 0.5`:
# 55 MB at support 15, 132 MB at 17, 468 MB at 19.
_MAX_SUPPORT = 19

_SCORE_MODES = ("continuous", "alphabet_restricted")


@dataclass(frozen=True, eq=False)
class QuantizedPmf:
    """Finite pmf over strictly increasing reconstruction points."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if pts.ndim != 1 or pts.size == 0 or pts.shape != pr.shape:
            raise ValueError("points and probs must be equal-length 1-d arrays")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if (np.diff(pts) <= 0.0).any():
            raise ValueError("points must be strictly increasing")
        if (pr < -1e-12).any():
            raise ValueError("probabilities must be nonnegative")
        total = float(pr.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        pr = np.clip(pr, 0.0, None)
        pts.setflags(write=False)
        pr.setflags(write=False)
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

    `posteriors` holds the pmf renormalized on subset `masks[i]` in row
    i, with its `entropy_bits` and `scores`.  Every row must be a
    nonnegative pmf, and entropies and scores must be nonnegative.
    """

    masks: np.ndarray
    posteriors: np.ndarray
    entropy_bits: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        masks = np.array(self.masks, dtype=np.int64)
        q = np.asarray(self.posteriors, dtype=float)
        ent, scores = np.array(self.entropy_bits, dtype=float), np.array(self.scores, dtype=float)
        if q.ndim != 2 or not masks.shape == ent.shape == scores.shape == q.shape[:1]:
            raise ValueError("candidate arrays must hold one entry per posterior row")
        if q.shape[1] == 0 or (q < -1e-12).any():
            raise ValueError("posteriors must be nonnegative pmfs")
        if (np.abs(q.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("posteriors must sum to 1")
        if (ent < -1e-12).any() or (scores < -1e-12).any():
            raise ValueError("entropy and score must be nonnegative")
        for name, column in zip(("masks", "posteriors", "entropy_bits", "scores"),
                                (masks, np.clip(q, 0.0, None), ent, scores)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.masks.size

    def label(self, i: int) -> str:
        """Support points of candidate i's subset: "1+3" for mask 0b1010."""
        mask = int(self.masks[i])
        return "+".join(str(j) for j in range(self.posteriors.shape[1]) if mask >> j & 1)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Optimal mixture: eavesdropper error, weights, and key-rate slack."""

    value: float
    weights: np.ndarray
    feasible: bool
    slack_rs: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def build_quantized_pmf(
    source: GaussianSource,
    spec: QuantizerSpec,
    max_support: Optional[int] = None,
) -> QuantizedPmf:
    """Pmf of the centroid-reconstructed quantizer output.

    Zero-mass bins are dropped.  With `max_support` (odd), outer bins
    are folded together first so that the support fits the LP cap; the
    fold only coarsens the pmf, so the entropy never grows.
    """
    table = build_bin_table(source, spec)
    if max_support is not None:
        if max_support < 1 or max_support % 2 == 0:
            raise ValueError(f"max_support must be a positive odd integer, got {max_support}")
        table = fold_bin_table(table, (max_support - 1) // 2)
    keep = table.prob > 0.0
    pmf = QuantizedPmf(table.centroid[keep], table.prob[keep])
    drift = abs(pmf.mean() - source.mean)
    if drift > 1e-9 * source.std:
        raise SolverError(f"quantized pmf mean drifted by {drift} from the source mean")
    return pmf


def enumerate_subset_candidates(
    pmf: QuantizedPmf,
    k_cap: int = DEFAULT_SUPPORT_CAP,
    mode: str = "continuous",
) -> CandidateSet:
    """All subset restrictions of the pmf, in ascending bitmask order.

    Candidate for subset S: the pmf renormalized on S.  Mixtures of
    these realize every "reveal which subset the symbol fell in"
    disclosure.  Subsets of zero mass are left out.  Supports larger
    than k_cap are refused outright rather than approximated, and so is
    a k_cap above `_MAX_SUPPORT`, before any mask is built.

    A candidate's score is the least squared error of an eavesdropper
    who knows its posterior: the variance in `continuous` mode; in
    `alphabet_restricted` mode the estimate must be a support point,
    which adds the squared gap from the mean to the nearest one.
    """
    if mode not in _SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}")
    if k_cap > _MAX_SUPPORT:
        raise ValueError(f"support cap {k_cap} exceeds the largest supported, {_MAX_SUPPORT}")
    k = int(pmf.points.size)
    if k > k_cap:
        raise ValueError(
            f"support size {k} exceeds the cap {k_cap}; fold the pmf or raise the cap"
        )
    masks = np.arange(1, 2**k, dtype=np.int64)
    raw = ((masks[:, None] >> np.arange(k)) & 1) * pmf.probs
    totals = raw.sum(axis=1)
    # Subsets of zero total mass cannot be disclosed; skip them.
    live = totals > 0.0
    masks, q = masks[live], raw[live] / totals[live, None]
    ent = -np.sum(q * np.log(np.where(q > 0.0, q, 1.0)), axis=1) / math.log(2.0)
    gaps = (pmf.points - (q @ pmf.points)[:, None]) ** 2
    scores = np.sum(q * gaps, axis=1)
    if mode == "alphabet_restricted":
        scores += gaps.min(axis=1)
    return CandidateSet(masks, q, np.maximum(ent, 0.0), scores)


def covers_entropy(pmf: QuantizedPmf, rate: float) -> bool:
    """Whether a message rate can describe the pmf outright."""
    return rate >= pmf.entropy_bits() - 1e-9


def solve_secrecy_lp(pmf: QuantizedPmf, rates: RatePair, candidates: Optional[CandidateSet] = None,
                     mode: str = "continuous") -> LpSolution:
    """Best eavesdropper error over key-feasible mixtures: one rate of `sweep_secrecy_lp`."""
    return sweep_secrecy_lp(pmf, rates.rate, [rates.key_rate], candidates, mode)[0]


def sweep_secrecy_lp(pmf: QuantizedPmf, rate: float, key_rates,
                     candidates: Optional[CandidateSet] = None,
                     mode: str = "continuous") -> list[LpSolution]:
    """Best eavesdropper error over key-feasible mixtures at each key rate, in order.

    Maximizes the weighted score subject to the mixture reproducing the
    pmf and the average candidate entropy fitting the key rate.  The
    message rate must cover the pmf entropy outright; otherwise every
    instance is reported infeasible without solving.  When `candidates`
    is omitted the subset family is enumerated with the given mode;
    supplied candidates are trusted as scored.  The program is built
    once and only the key rate changes, so each solve starts from the
    optimal basis of the one before.
    """
    pairs = [RatePair(rate, float(rs)) for rs in key_rates]
    if not covers_entropy(pmf, rate):
        return [LpSolution(math.nan, np.zeros(0), False, math.nan) for _ in pairs]
    if candidates is None:
        candidates = enumerate_subset_candidates(pmf, mode=mode)
    if not candidates:
        raise ValueError("candidate set is empty")
    k = pmf.points.size
    n = len(candidates)
    post, ent, score = candidates.posteriors, candidates.entropy_bits, candidates.scores
    if post.shape[1] != k:
        raise ValueError("candidate posterior length does not match the pmf support")

    # Columns: candidate weights plus one slack for the entropy row, whose
    # right-hand side (the key rate) the sweep sets.
    a = np.zeros((k + 1, n + 1))
    a[:k, :n] = post.T
    a[k, :n] = ent
    a[k, n] = 1.0
    b = np.append(pmf.probs, 0.0)
    cost = np.append(score, 0.0)

    # Equilibrate before solving: outer bins carry probabilities many
    # orders below 1, and a raw basis loses feasibility in the noise.
    # Unit-rhs rows then unit-max columns turn subset candidates into a
    # 0/1 incidence system.  The key row keeps scale 1.
    row_scale = np.ones(k + 1)
    row_scale[:k] = np.where(pmf.probs > 0.0, pmf.probs, 1.0)
    a_scaled = a / row_scale[:, None]
    col_scale = np.abs(a_scaled).max(axis=0)
    col_scale[col_scale <= 0.0] = 1.0
    a_scaled /= col_scale[None, :]

    solved = linear_program_sweep(cost / col_scale, a_scaled, b / row_scale, k,
                                  [p.key_rate for p in pairs], tol=1e-10)
    out = []
    for pair, (x_scaled, _) in zip(pairs, solved):
        x = x_scaled / col_scale
        weights = x[:n]
        recon = a[:k, :n] @ weights
        if np.max(np.abs(recon - pmf.probs)) > 1e-8:
            raise SolverError("LP solution violates the barycenter constraint")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-8:
            raise SolverError(f"LP weights sum to {total}, expected 1")
        used = float(np.dot(weights, ent))
        if used > pair.key_rate + 1e-8:
            raise SolverError("LP solution violates the key-rate constraint")
        out.append(LpSolution(max(float(cost @ x), 0.0), weights, True, pair.key_rate - used))
    return out


def lp_payoff(solution: LpSolution, source: GaussianSource) -> PayoffValue:
    """Normalized payoff of a feasible LP solution."""
    if not solution.feasible:
        raise ValueError("payoff is undefined for an infeasible LP solution")
    return PayoffValue(solution.value / source.variance)
