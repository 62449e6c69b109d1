"""Dense subset enumeration: the reference for `enumerate_subset_candidates`.

Builds every subset posterior as a row of a 2^k x k matrix and takes
its entropy and score straight from the row.  It is the plain reading
of the definitions, kept for the tests and the brute-force oracles.
"""

import math

import numpy as np


def dense_subset_candidates(pmf, mode="continuous"):
    """(masks, posterior rows, entropies in bits, scores) of the subsets of positive mass."""
    k = pmf.points.size
    masks = np.arange(1, 2**k, dtype=np.int64)
    raw = ((masks[:, None] >> np.arange(k)) & 1) * pmf.probs
    totals = raw.sum(axis=1)
    live = totals > 0.0
    masks, q = masks[live], raw[live] / totals[live, None]
    ent = -np.sum(q * np.log(np.where(q > 0.0, q, 1.0)), axis=1) / math.log(2.0)
    gaps = (pmf.points - (q @ pmf.points)[:, None]) ** 2
    scores = np.sum(q * gaps, axis=1)
    if mode == "alphabet_restricted":
        scores += gaps.min(axis=1)
    return masks, q, np.maximum(ent, 0.0), scores
