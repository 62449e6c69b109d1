"""The revised equality-form simplex against scipy's HiGHS solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from secgauss import simplex
from secgauss.errors import SolverError
from secgauss.simplex import (
    _Basis, _dual_ratio_test, _iterate, linear_program_max, linear_program_sweep,
)


def slack_instance(rng, m, n, budget):
    """max c @ x over m random rows a @ x + s = b and sum(x) + s = budget.

    The random rows pass through a point of [0.1, 1.1]^n, each signed so
    that b >= 0; the budget row bounds the feasible set.  The slacks are
    the last m + 1 columns, and their basis (x = 0) is the start.
    """
    a = rng.normal(size=(m, n))
    b = a @ (rng.random(n) + 0.1)
    a *= np.where(b < 0.0, -1.0, 1.0)[:, None]
    a = np.hstack([np.vstack([a, np.ones(n)]), np.eye(m + 1)])
    c = np.append(rng.normal(size=n), np.zeros(m + 1))
    return c, a, np.append(np.abs(b), budget), list(range(n, n + m + 1))


@pytest.mark.parametrize("seed", range(12))
def test_matches_highs_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    c, a, b, start = slack_instance(rng, 4, 12, 10.0 * float((rng.random(12) + 1.0).sum()))
    ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if not ref.success:
        pytest.skip("reference solver declined the instance")
    x, value = linear_program_max(c, a, b, start)
    assert value == pytest.approx(-ref.fun, abs=1e-8)
    assert (x >= -1e-10).all()
    assert np.abs(a @ x - b).max() < 1e-8


def test_simple_hand_instance():
    # max x + y s.t. x + y + s = 1: value 1 on the simplex edge.
    c = np.array([1.0, 1.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    x, value = linear_program_max(c, a, b, [2])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert x[2] == pytest.approx(0.0, abs=1e-12)


def test_unbounded_detected():
    # max x with only x - y = 0: ray (t, t) never binds.
    c = np.array([1.0, 0.0])
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(SolverError, match="unbounded"):
        linear_program_max(c, a, b, [0])


def test_infeasible_detected():
    # Column 0 is e_0, but its basic value b[0] = -1 is negative: the
    # start must be primal feasible.
    with pytest.raises(SolverError, match="infeasible"):
        linear_program_max([-1.0, -1.0], [[1.0, -1.0]], [-1.0], [0])


def test_deterministic_vertex():
    rng = np.random.default_rng(123)
    c, a, b, start = slack_instance(rng, 3, 9, 50.0)
    x1, v1 = linear_program_max(c, a, b, start)
    x2, v2 = linear_program_max(c, a, b, start)
    assert v1 == v2
    assert np.array_equal(x1, x2)


def test_dimension_checks():
    with pytest.raises(ValueError):
        linear_program_max([1.0], np.ones((1, 2)), [1.0], [0])
    with pytest.raises(ValueError):
        linear_program_max([1.0, np.nan], np.ones((1, 2)), [1.0], [0])


def test_degenerate_rhs_zeros():
    # A zero right-hand side forces degenerate pivots; pricing must not
    # cycle and the vertex must stay feasible.
    c = np.array([1.0, 2.0, 0.0, 0.0])
    a = np.array(
        [
            [1.0, -1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 1.0])
    x, value = linear_program_max(c, a, b, [2, 3])
    assert np.abs(a @ x - b).max() < 1e-10
    # Optimum: x1 = 0, x2 = 1, value 2.
    assert value == pytest.approx(2.0, abs=1e-10)


def test_tiny_rhs_rows_stay_feasible():
    # Mimics the mixture-of-posteriors structure that once broke the
    # ratio test: barycenter rows with masses spanning ten orders of
    # magnitude.  Columns are renormalized sub-distributions of the
    # target, so weight 1 on the full-support column is feasible.
    masses = np.array([0.5, 0.3, 0.2 - 3e-11, 2e-11, 1e-11])
    k = masses.size
    subsets = [s for s in range(1, 2**k)]
    cols = np.zeros((k, len(subsets)))
    for j, s in enumerate(subsets):
        members = [i for i in range(k) if s >> i & 1]
        part = masses[members]
        cols[members, j] = part / part.sum()
    rng = np.random.default_rng(5)
    c = rng.random(len(subsets))
    # The singleton of point i, mask 2**i, is column 2**i - 1 and equals e_i.
    x, value = linear_program_max(c, cols, masses, [(1 << i) - 1 for i in range(k)])
    assert (x >= -1e-12).all()
    assert np.abs(cols @ x - masses).max() < 1e-9
    ref = linprog(-c, A_eq=cols, b_eq=masses, bounds=(0, None), method="highs")
    assert ref.success
    assert value == pytest.approx(-ref.fun, abs=1e-8)


# Beale's (1955) example: maximize c @ x from the slack basis [0, 1, 2].
# Most-negative pricing with smallest-index leaving rows cycles through
# six degenerate bases here and never leaves the origin.
BEALE_A = np.array(
    [
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ]
)
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.0, 0.0, 0.0, 0.75, -20.0, 0.5, -6.0])


def iterate_beale():
    """Run _iterate on Beale's example from the slack basis; return (value, basis)."""
    basis = _Basis(BEALE_A, BEALE_B, [0, 1, 2])
    _iterate(basis, -BEALE_C)
    return float(BEALE_C[basis.cols] @ basis.x), basis.cols


class TestBealeCycling:
    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        # The tolerance and pivot budget these tests always ran under: the
        # Bland fallback must reach the optimum within 200 pivots.
        monkeypatch.setattr(simplex, "_TOL", 1e-9)
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 200)

    def test_fallback_terminates_at_the_optimum(self):
        value, basis = iterate_beale()
        assert value == pytest.approx(1.25, abs=1e-12)
        assert sorted(basis) == [0, 3, 5]

    def test_pure_dantzig_cycles(self, monkeypatch):
        # Without the fallback the same pivots repeat until the limit.
        monkeypatch.setattr(simplex, "_STALL", 10**9)
        with pytest.raises(SolverError, match="pivot limit"):
            iterate_beale()

    def test_solver_end_to_end(self):
        x, value = linear_program_max(BEALE_C, BEALE_A, BEALE_B, [0, 1, 2])
        assert value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)


def budget_instance(seed):
    """A slack instance with four random rows, whose budget row 4 the sweeps set."""
    return slack_instance(np.random.default_rng(seed), 4, 12, 0.0)


class TestSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_value_matches_its_cold_solve(self, seed):
        c, a, b, start = budget_instance(seed)
        values = [20.0, 30.0, 14.0, 14.0, 50.0, 25.0]
        swept = list(linear_program_sweep(c, a, b, start, 4, values))
        assert len(swept) == len(values)
        for v, (x, value) in zip(values, swept):
            bv = b.copy()
            bv[4] = v
            _, cold = linear_program_max(c, a, bv, start)
            assert value == pytest.approx(cold, abs=1e-9)
            assert (x >= 0.0).all() and np.abs(a @ x - bv).max() < 1e-8

    def test_infeasible_value_raises(self):
        # No basis reaches a negative budget; the cold solve's start is refused.
        c, a, b, start = budget_instance(0)
        with pytest.raises(SolverError, match="infeasible"):
            list(linear_program_sweep(c, a, b, start, 4, [20.0, -1.0]))

    def test_validation(self):
        c, a, b, start = budget_instance(0)
        with pytest.raises(ValueError):
            list(linear_program_sweep(c, a, b, start, 5, [20.0]))
        with pytest.raises(ValueError):
            list(linear_program_sweep(c, a, b, start, 4, [20.0, np.inf]))
        assert list(linear_program_sweep(c, a, b, start, 4, [])) == []


class TestStartBasis:
    def test_one_round_from_the_given_start(self, monkeypatch):
        # Columns 1, 3 and 0 are e_0, e_1 and e_2, so the solve is one round
        # of primal pivots from them.
        a = np.array([[0.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0],
                      [1.0, 0.0, 0.5, 0.0, 0.0]])
        rounds = []
        original = simplex._iterate
        monkeypatch.setattr(simplex, "_iterate", lambda *args: rounds.append(original(*args)))
        x, value = linear_program_max([0.0, 0.0, 1.0, 0.0, 0.0], a, [1.0, 1.0, 1.0], [1, 3, 0])
        assert len(rounds) == 1
        assert value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(x, [0.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("start", [[2], [2, 3, 0], [0, 4], [-1, 3], [2.0, 3.0], [[2, 3]]],
                             ids=["short", "long", "past-the-end", "negative", "float", "2-d"])
    def test_bad_start_rejected(self, start):
        c, a, b = [1.0, 2.0, 0.0, 0.0], [[1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], [0.0, 1.0]
        with pytest.raises(ValueError, match="start basis"):
            linear_program_max(c, a, b, start)
        with pytest.raises(ValueError, match="start basis"):
            list(linear_program_sweep(c, a, b, start, 1, [1.0]))


def gathered_dual_ratio_test(red, alpha):
    """The dual ratio test on the gathered columns with alpha < 0, as it was
    written before it ran over full-length buffers; kept as its reference."""
    cols = np.flatnonzero(alpha < 0.0)
    if cols.size:
        slack, pivots = np.maximum(red[cols], 0.0), -alpha[cols]
        with np.errstate(over="ignore"):  # the -5e-324 pivots below
            near = np.flatnonzero(slack / pivots <= ((slack + simplex._TOL) / pivots).min())
        k = near[np.argmax(pivots[near])]
        if pivots[k] > simplex._TOL:
            return int(cols[k]), float(slack[k] / pivots[k])
    raise SolverError("dual ratio test found no entering column")


def buffered_dual_ratio_test(red, alpha):
    # Copies of the inputs, which it overwrites, and buffers of junk.
    n = red.size
    return _dual_ratio_test(red.copy(), alpha.copy(), np.full(n, np.nan), np.ones(n, dtype=bool))


class TestDualRatioTest:
    # Few distinct values, so that |alpha| and the step red / -alpha tie
    # exactly, with signed zeros, pivots at and below _TOL, and slacks
    # within the dual feasibility slack below zero.
    ALPHAS = [-2.0, -1.0, -0.5, -0.25, -1e-10, -1e-11, -5e-324, -0.0, 0.0, 0.5, 1.0]
    REDS = [0.0, -0.0, -1e-12, 1e-10, 0.25, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("seed", range(8))
    def test_same_column_and_step_as_the_gathered_test(self, seed):
        rng = np.random.default_rng(seed)
        entered = refused = 0
        for _ in range(250):
            n = int(rng.integers(1, 40))
            red, alpha = rng.choice(self.REDS, n), rng.choice(self.ALPHAS, n)
            try:
                expected = gathered_dual_ratio_test(red, alpha)
            except SolverError:
                refused += 1
                with pytest.raises(SolverError, match="no entering column"):
                    buffered_dual_ratio_test(red, alpha)
                continue
            entered += 1
            assert buffered_dual_ratio_test(red, alpha) == expected
        assert entered > 100 and refused > 0

    def test_continuous_values(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            red, alpha = np.abs(rng.normal(size=300)), rng.normal(size=300)
            assert buffered_dual_ratio_test(red, alpha) == gathered_dual_ratio_test(red, alpha)

    @pytest.mark.parametrize("alpha", [[0.0, 1.0, -0.0, 2.0], [-1e-10, -1e-11, 0.0, -5e-324]],
                             ids=["no-negative-alpha", "every-pivot-within-tol"])
    def test_no_entering_column(self, alpha):
        alpha = np.array(alpha)
        for red in (np.zeros(4), np.array([1.0, 0.0, 2.0, 0.5])):
            for test in (gathered_dual_ratio_test, buffered_dual_ratio_test):
                with pytest.raises(SolverError, match="no entering column"):
                    test(red, alpha)
