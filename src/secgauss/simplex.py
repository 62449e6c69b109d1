"""Dense two-phase primal simplex with Dantzig pricing and a Bland fallback.

The secrecy trade-off LP has a handful of equality rows and up to a few
tens of thousands of columns.  A dense tableau handles that comfortably.
The entering column is the one with the most negative reduced cost
(Dantzig), ties going to the smallest index.  Dantzig's rule alone can
cycle, but a cycle consists only of degenerate pivots, so after
`_STALL` degenerate pivots in a row the entering column is the smallest
improving index (Bland 1977) until a pivot makes progress; Bland's rule
cannot cycle, so the solve terminates.  Both rules and the leaving-row
rule break ties by index, so the pivot sequence, and therefore the
returned vertex, is a deterministic function of the data.

Long degenerate pivot runs let the running tableau drift away from the
exact canonical form, so the solve is wrapped in reinversion rounds:
after each termination the tableau is rebuilt from the original data at
the current basis and optimality is certified with fresh reduced costs.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

__all__ = ["linear_program_max"]

_MAX_REFRESH = 60
# Consecutive degenerate pivots after which pricing falls back to Bland.
_STALL = 50


def linear_program_max(
    c, A, b, tol: float = 1e-9, max_iter: int = 50_000
) -> tuple[np.ndarray, float]:
    """Maximize c @ x subject to A @ x = b and x >= 0.

    Returns (x, value) at an optimal vertex.  Raises SolverError when the
    program is infeasible, unbounded, or the pivot limit is hit.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")

    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: minimize the sum of artificial variables.
    ext = np.concatenate([A, np.eye(m)], axis=1)
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    rows = list(range(m))
    basis = list(range(n, n + m))
    tableau = _solve_phase(ext, b, cost1, rows, basis, tol, max_iter)
    residual = float(cost1[basis] @ tableau[:-1, -1])
    if residual > tol * max(1.0, float(abs(b).sum())):
        raise SolverError(f"LP infeasible: artificial residual {residual}")

    # Drive leftover artificials out of the basis, dropping redundant rows.
    keep = []
    for i in range(len(rows)):
        if basis[i] < n:
            keep.append(i)
            continue
        entries = tableau[i, :n]
        nz = np.flatnonzero(np.abs(entries) > tol)
        if nz.size:
            _pivot(tableau, basis, i, int(nz[0]))
            keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 on the original columns, from a freshly canonical tableau.
    cost2 = np.concatenate([-c, np.zeros(m)])
    tableau = _solve_phase(ext, b, cost2, rows, basis, tol, max_iter, forbid=n)

    # The running rhs drifts as well; the final tableau was rebuilt from
    # the original data at the optimal basis, so its rhs is the vertex.
    x = np.zeros(n)
    x[basis] = tableau[:-1, -1]
    return x, float(c @ x)


def _canonical(
    ext: np.ndarray, b: np.ndarray, cost: np.ndarray, rows: list[int], basis: list[int]
) -> np.ndarray:
    """Build the exact canonical tableau for the given basis."""
    r = len(rows)
    ncols = ext.shape[1]
    square = ext[np.ix_(rows, basis)]
    stacked = np.concatenate([ext[rows], b[rows][:, None]], axis=1)
    try:
        body = np.linalg.solve(square, stacked)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular simplex basis") from exc
    work = np.empty((r + 1, ncols + 1))
    work[:r, :ncols] = body[:, :ncols]
    work[:r, -1] = np.maximum(body[:, -1], 0.0)
    cb = cost[basis]
    work[r, :ncols] = cost - cb @ body[:, :ncols]
    work[r, -1] = -float(cb @ body[:, -1])
    for i, bi in enumerate(basis):
        work[:, bi] = 0.0
        work[i, bi] = 1.0
    return work


def _solve_phase(
    ext: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    rows: list[int],
    basis: list[int],
    tol: float,
    max_iter: int,
    forbid: int | None = None,
) -> np.ndarray:
    """Minimize cost @ x over the phase, certifying with fresh reduced costs.

    ``forbid`` marks the first column barred from entering (artificials
    in phase 2).  Returns the final tableau.
    """
    certify = 10.0 * tol * max(1.0, float(np.abs(cost).max()))
    for _ in range(_MAX_REFRESH):
        work = _canonical(ext, b, cost, rows, basis)
        _iterate(work, basis, tol, max_iter, forbid)
        square = ext[np.ix_(rows, basis)]
        try:
            y = np.linalg.solve(square.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular simplex basis") from exc
        reduced = cost - y @ ext[rows]
        if forbid is not None:
            reduced = reduced[:forbid]
        if float(reduced.min()) >= -certify:
            return _canonical(ext, b, cost, rows, basis)
    raise SolverError("simplex failed to certify optimality")


def _iterate(
    tableau: np.ndarray,
    basis: list[int],
    tol: float,
    max_iter: int,
    forbid: int | None = None,
) -> None:
    m = tableau.shape[0] - 1
    stalled = 0
    for _ in range(max_iter):
        red = tableau[m, :-1] if forbid is None else tableau[m, :forbid]
        if stalled < _STALL:  # Dantzig: most negative reduced cost
            col = int(np.argmin(red))
        else:  # Bland: smallest improving index (0 if there is none)
            col = int(np.argmax(red < -tol))
        if red[col] >= -tol:
            return
        ratios = tableau[:m, col]
        rows = np.flatnonzero(ratios > tol)
        if rows.size == 0:
            raise SolverError("LP unbounded along an improving direction")
        values = tableau[rows, -1] / ratios[rows]
        best = values.min()
        stalled = stalled + 1 if best <= 0.0 else 0
        # Among minimizing rows, Bland's leaving rule: smallest basic variable.
        # The tie slack must stay relative: right-hand sides can be tiny
        # and an absolute slack would admit non-ties, driving basic
        # variables negative.
        cand = rows[values <= best + 1e-9 * abs(best) + 1e-30]
        row = int(min(cand, key=lambda i: basis[i]))
        _pivot(tableau, basis, row, col)
    raise SolverError(f"simplex hit the {max_iter}-pivot limit")


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    coeffs = tableau[:, col].copy()
    coeffs[row] = 0.0
    tableau -= np.outer(coeffs, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col
    # Degenerate pivots can leave basic values at -1e-27-ish noise; the
    # last row is the cost row and may be legitimately negative.
    rhs = tableau[:-1, -1]
    np.maximum(rhs, 0.0, out=rhs)
