"""Revised simplex with Dantzig pricing, a Bland fallback and warm starts.

The secrecy LP has at most 20 equality rows and 2**19 columns (11 and about
2**18 over mirror orbits), so no tableau is kept.  Every change of basis
inverts the small basis matrix afresh from the original data; every
iteration prices all columns with one product ``y @ a`` and runs the ratio
test on ``B^-1 a_col``.  The pricing that ends a solve is therefore fresh,
and it is the solve's optimality certificate.  The n-length arrays of a
pivot (the 2 x n price block, the reduced costs and a mask) are buffers
that `_iterate` allocates once per solve and every pivot fills in place.

A cold solve starts from a basis that the caller names, one column per
row (for the secrecy LP, its singleton and key-slack columns); a start
with a negative basic value is refused as infeasible.

The entering column is the one with the most negative reduced cost
(Dantzig), ties going to the smallest index.  Dantzig's rule alone can
cycle, but a cycle consists only of degenerate pivots, so after
`_STALL` degenerate pivots in a row the entering column is the smallest
improving index (Bland 1977) until a pivot makes progress; Bland's rule
cannot cycle, so the solve terminates.  Both rules and the leaving-row
rule break ties by index, so the pivot sequence, and therefore the
returned vertex, is a deterministic function of the data.

`linear_program_sweep` re-solves as one right-hand side entry changes:
reduced costs do not depend on b, so the last optimal basis stays dual
feasible and dual simplex pivots (Lemke 1954) restore feasibility.  A
warm solve that meets a singular or infeasible basis, finds no entering
column, stalls, hits the pivot limit or ends off ``A @ x = b`` gives way
to the cold solve.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import SolverError

__all__ = ["linear_program_max", "linear_program_sweep"]

# Consecutive degenerate pivots after which primal pricing falls back to
# Bland, and after which a warm solve's dual pivots give up.
_STALL = 50
# Feasibility and pricing tolerance, and the pivots one solve may take.
_TOL = 1e-10
_MAX_PIVOTS = 50_000


class _Basis:
    """Basic columns `cols` of ``a @ x = b``, inverted."""

    def __init__(self, a: np.ndarray, b: np.ndarray, cols) -> None:
        self.a, self.rhs, self.cols = a, b, list(cols)
        self.invert()

    def invert(self) -> None:
        try:
            self.inv = np.linalg.inv(self.a[:, self.cols])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular simplex basis") from exc
        self.x = self.inv @ self.rhs


def linear_program_max(c, A, b, start) -> tuple[np.ndarray, float]:
    """Maximize c @ x subject to A @ x = b and x >= 0, from the basis `start`.

    `start` holds one column of A per row, and its basic solution must
    be nonnegative.  Returns (x, value) at an optimal vertex.  Raises
    SolverError when the start is infeasible, the program unbounded, or
    the pivot limit is hit.
    """
    c, a, b, start = _checked(c, A, b, start)
    return _solution(c, _cold(a, b, start, -c))


def linear_program_sweep(c, A, b, start, row: int, values) -> Iterator[tuple[np.ndarray, float]]:
    """`linear_program_max` with b[row] set to each of `values` in turn.

    Yields each (x, value) as it is solved, each program after the first
    starting from the optimal basis of the one before.  The values equal
    those of separate solves up to rounding; a program with several
    optimal vertices may return another of them.
    """
    c, a, b, start = _checked(c, A, b, start)
    cost = -c
    values = np.array(values, dtype=float)
    if not (0 <= row < b.size and values.ndim == 1 and np.isfinite(values).all()):
        raise ValueError("a sweep needs a row of A and a 1-d array of finite values")
    basis = None
    for value in values:
        b = b.copy()
        b[row] = value
        basis = (_warm(a, b, cost, basis) if basis else None) or _cold(a, b, start, cost)
        yield _solution(c, basis)


def _checked(c, A, b, start) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Float c, A and b (a float A or c used as given, never copied) and the start as a list."""
    A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    start = np.asarray(start)
    if start.shape != (m,) or start.dtype.kind not in "iu" or ((start < 0) | (start >= n)).any():
        raise ValueError("the start basis must name one column of A for each row")
    return c, A, b, start.tolist()


def _solution(c: np.ndarray, basis: _Basis) -> tuple[np.ndarray, float]:
    # Degenerate basic values can come out at -1e-17-ish noise.
    x = np.zeros(c.size)
    x[basis.cols] = np.maximum(basis.x, 0.0)
    return x, float(c @ x)


def _cold(a: np.ndarray, b: np.ndarray, start: list[int], cost: np.ndarray) -> _Basis:
    """Solve min cost @ x from the primal feasible basis `start`."""
    basis = _Basis(a, b, start)
    if (basis.x < -_TOL).any():
        raise SolverError(f"LP infeasible from its start: basic value {basis.x.min()}")
    _iterate(basis, cost)
    return basis


def _warm(a, b, cost, carried: _Basis) -> _Basis | None:
    """Re-solve from the carried optimal basis; None where the cold solve must run."""
    try:
        basis = _Basis(a, b, carried.cols)
        _iterate(basis, cost)
    except SolverError:
        return None
    # A basis too near singular to solve accurately shows here.
    residual = a[:, basis.cols] @ np.maximum(basis.x, 0.0) - b
    if np.abs(residual).max() > 10.0 * _TOL * max(1.0, float(np.abs(b).max())):
        return None
    return basis


def _iterate(basis: _Basis, cost: np.ndarray) -> None:
    """Pivot to a basis minimizing cost @ x.

    From a primal feasible basis these are primal simplex pivots, and
    the pricing that finds no improving column ends the solve.  While a
    basic value is below -_TOL (a warm start after b changed) they are
    dual simplex pivots: the most negative basic variable leaves and
    `_dual_ratio_test` picks the entering column.
    """
    dual_slack = 10.0 * _TOL * max(1.0, float(np.abs(cost).max()))
    stalled = dual_stalled = 0
    m, n = basis.a.shape
    # Work arrays of one solve, filled in place by every pivot; prices[0]
    # is spent once `red` is formed, so the dual ratio test works in it.
    duals, prices = np.empty((2, m)), np.empty((2, n))
    red, mask = np.empty(n), np.empty(n, dtype=bool)
    for _ in range(_MAX_PIVOTS):
        y = cost[basis.cols] @ basis.inv
        row = int(np.argmin(basis.x))
        if basis.x[row] < -_TOL:
            duals[0], duals[1] = y, basis.inv[row]
            np.subtract(cost, np.matmul(duals, basis.a, out=prices)[0], out=red)
            if red.min() < -dual_slack:
                raise SolverError("simplex basis is neither primal nor dual feasible")
            col, step = _dual_ratio_test(red, prices[1], prices[0], mask)
            dual_stalled = dual_stalled + 1 if step <= 0.0 else 0
            if dual_stalled >= _STALL:
                raise SolverError("dual simplex stalled on degenerate pivots")
            _pivot(basis, row, col)
            continue
        np.subtract(cost, np.matmul(y, basis.a, out=prices[0]), out=red)
        if stalled < _STALL:  # Dantzig: most negative reduced cost
            col = int(np.argmin(red))
        else:  # Bland: smallest improving index (0 if there is none)
            col = int(np.argmax(np.less(red, -_TOL, out=mask)))
        if red[col] >= -_TOL:
            return
        column = basis.inv @ basis.a[:, col]
        rows = np.flatnonzero(column > _TOL)
        if rows.size == 0:
            raise SolverError("LP unbounded along an improving direction")
        values = np.maximum(basis.x[rows], 0.0) / column[rows]
        best = values.min()
        stalled = stalled + 1 if best <= 0.0 else 0
        # Among minimizing rows, Bland's leaving rule: smallest basic variable.
        # The tie slack must stay relative: right-hand sides can be tiny
        # and an absolute slack would admit non-ties, driving basic
        # variables negative.
        cand = rows[values <= best + 1e-9 * abs(best) + 1e-30]
        row = int(min(cand, key=lambda i: basis.cols[i]))
        _pivot(basis, row, col)
    raise SolverError(f"simplex hit the {_MAX_PIVOTS}-pivot limit")


def _dual_ratio_test(red, alpha, work, mask) -> tuple[int, float]:
    """Entering column and step of a dual pivot on the row `alpha` of B^-1 a.

    Harris's two passes (1973): the steps red_j / -alpha_j of the columns
    with alpha_j < 0 are bounded by the least step that would take some
    reduced cost below -_TOL, and within that bound the largest |alpha_j|
    enters, ties to the smallest index, keeping the next basis further
    from singular.  Both passes run over all n columns: `red` and `alpha`
    are overwritten, and `work` (float) and `mask` (bool) are buffers of
    their length.  A column with alpha_j >= 0 gets pivot +0, so both its
    steps are inf or NaN: it cannot lower the bound, and it can enter only
    when no pivot is positive, which the final check refuses.
    """
    np.less(alpha, 0.0, out=mask)
    slack, pivots = np.maximum(red, 0.0, out=red), np.negative(alpha, out=alpha)
    np.copyto(pivots, 0.0, where=np.logical_not(mask, out=mask))
    with np.errstate(all="ignore"):  # zero pivots give inf or NaN, tiny ones overflow
        bound = np.divide(np.add(slack, _TOL, out=work), pivots, out=work).min()
        np.less_equal(np.divide(slack, pivots, out=work), bound, out=mask)
    k = int(np.argmax(np.multiply(pivots, mask, out=pivots)))
    if pivots[k] > _TOL:
        return k, float(work[k])
    raise SolverError("dual ratio test found no entering column")


def _pivot(basis: _Basis, row: int, col: int) -> None:
    basis.cols[row] = col
    basis.invert()
