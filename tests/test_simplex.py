"""The revised equality-form simplex against scipy's HiGHS solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from secgauss import simplex
from secgauss.errors import SolverError
from secgauss.simplex import _Basis, _iterate, linear_program_max, linear_program_sweep


def random_feasible_instance(rng, m, n):
    """A bounded feasible equality-form LP with a known interior point."""
    a = rng.normal(size=(m, n))
    x0 = rng.random(n) + 0.1
    b = a @ x0
    c = rng.normal(size=n)
    return c, a, b


@pytest.mark.parametrize("seed", range(12))
def test_matches_highs_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    c, a, b = random_feasible_instance(rng, 4, 12)
    # Bound the feasible set so the max exists: append a budget row.
    total = float((rng.random(12) + 1.0) @ np.ones(12)) * 10.0
    a = np.vstack([a, np.ones(12)])
    b = np.concatenate([b, [total]])
    ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if not ref.success:
        pytest.skip("reference solver declined the instance")
    x, value = linear_program_max(c, a, b)
    assert value == pytest.approx(-ref.fun, abs=1e-8)
    assert (x >= -1e-10).all()
    assert np.abs(a @ x - b).max() < 1e-8


def test_simple_hand_instance():
    # max x + y s.t. x + y + s = 1: value 1 on the simplex edge.
    c = np.array([1.0, 1.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    x, value = linear_program_max(c, a, b)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert x[2] == pytest.approx(0.0, abs=1e-12)


def test_unit_column_on_a_negative_row_is_not_a_start():
    # Column 0 is e_0, but x0 = b[0] < 0 is infeasible; the row takes an
    # artificial and phase 1 finds x1 = 1.
    x, value = linear_program_max([-1.0, -1.0], [[1.0, -1.0]], [-1.0])
    assert value == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)


def test_negative_rhs_rows_handled():
    # Same instance with the row negated; the solver must flip it.
    c = np.array([1.0, 0.0])
    a = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    x, value = linear_program_max(c, a, b)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_unbounded_detected():
    # max x with only x - y = 0: ray (t, t) never binds.
    c = np.array([1.0, 0.0])
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(SolverError, match="unbounded"):
        linear_program_max(c, a, b)


def test_infeasible_detected():
    c = np.array([1.0])
    a = np.array([[1.0], [1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(SolverError, match="infeasible"):
        linear_program_max(c, a, b)


def test_redundant_row_dropped():
    c = np.array([1.0, 1.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    b = np.array([1.0, 2.0])
    x, value = linear_program_max(c, a, b)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_deterministic_vertex():
    rng = np.random.default_rng(123)
    c, a, b = random_feasible_instance(rng, 3, 9)
    # Budget row bounds the feasible set, so the max always exists.
    a = np.vstack([a, np.ones(9)])
    b = np.concatenate([b, [50.0]])
    x1, v1 = linear_program_max(c, a, b)
    x2, v2 = linear_program_max(c, a, b)
    assert v1 == v2
    assert np.array_equal(x1, x2)


def test_dimension_checks():
    with pytest.raises(ValueError):
        linear_program_max([1.0], np.ones((1, 2)), [1.0])
    with pytest.raises(ValueError):
        linear_program_max([1.0, np.nan], np.ones((1, 2)), [1.0])


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
    x, value = linear_program_max(c, a, b)
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
    x, value = linear_program_max(c, cols, masses)
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
    basis = _Basis(BEALE_A, BEALE_B, [0, 1, 2], [0, 1, 2])
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
        x, value = linear_program_max(BEALE_C, BEALE_A, BEALE_B)
        assert value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)


def budget_instance(seed):
    """Random equality rows with an interior point, plus sum(x) + s = budget."""
    rng = np.random.default_rng(seed)
    c, a, b = random_feasible_instance(rng, 4, 12)
    a = np.block([[a, np.zeros((4, 1))], [np.ones((1, 12)), np.ones((1, 1))]])
    return np.append(c, 0.0), a, np.append(b, 0.0)


class TestSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_value_matches_its_cold_solve(self, seed):
        c, a, b = budget_instance(seed)
        # The interior point of random_feasible_instance sums to at most 13.2.
        values = [20.0, 30.0, 14.0, 14.0, 50.0, 25.0]
        swept = list(linear_program_sweep(c, a, b, 4, values))
        assert len(swept) == len(values)
        for v, (x, value) in zip(values, swept):
            bv = b.copy()
            bv[4] = v
            _, cold = linear_program_max(c, a, bv)
            assert value == pytest.approx(cold, abs=1e-9)
            assert (x >= 0.0).all() and np.abs(a @ x - bv).max() < 1e-8

    def test_infeasible_value_raises(self):
        c, a, b = budget_instance(0)
        with pytest.raises(SolverError, match="infeasible"):
            list(linear_program_sweep(c, a, b, 4, [20.0, -1.0]))

    def test_dropped_row_is_checked_at_every_value(self):
        # Row 1 repeats row 0 at b = (1, 2), so the first solve drops it; at
        # b[1] = 3 the rows contradict each other, which a warm solve on
        # row 0 alone cannot see.
        c = np.array([1.0, 1.0, 0.0])
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert len(list(linear_program_sweep(c, a, [1.0, 2.0], 1, [2.0, 2.0]))) == 2
        with pytest.raises(SolverError, match="infeasible"):
            list(linear_program_sweep(c, a, [1.0, 2.0], 1, [2.0, 3.0]))

    def test_validation(self):
        c, a, b = budget_instance(0)
        with pytest.raises(ValueError):
            list(linear_program_sweep(c, a, b, 5, [20.0]))
        with pytest.raises(ValueError):
            list(linear_program_sweep(c, a, b, 4, [20.0, np.inf]))
        assert list(linear_program_sweep(c, a, b, 4, [])) == []


class TestStartBasis:
    @pytest.mark.parametrize("seed", range(6))
    def test_unit_slack_matches_phase_1(self, seed):
        # The budget row's slack is e_4, so row 4 starts on it; scaled by
        # 2 it is no unit column, and row 4 goes through phase 1 as well.
        c, a, b = budget_instance(seed)
        b[4] = 20.0
        hidden = a.copy()
        hidden[:, 12] *= 2.0
        assert list(simplex._unit_columns(a)) == [-1, -1, -1, -1, 12]
        assert list(simplex._unit_columns(hidden)) == [-1] * 5
        _, value = linear_program_max(c, a, b)
        _, reference = linear_program_max(c, hidden, b)
        assert value == pytest.approx(reference, abs=1e-9)

    def test_identity_start_runs_no_phase_1(self, monkeypatch):
        # Columns 1, 3 and 0 are e_0, e_1 and e_2 (the first of the two
        # copies of e_1), so the one round of pivots is phase 2.
        a = np.array([[0.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0],
                      [1.0, 0.0, 0.5, 0.0, 0.0]])
        assert list(simplex._unit_columns(a)) == [1, 3, 0]
        rounds = []
        original = simplex._iterate
        monkeypatch.setattr(simplex, "_iterate", lambda *args: rounds.append(original(*args)))
        x, value = linear_program_max([0.0, 0.0, 1.0, 0.0, 0.0], a, [1.0, 1.0, 1.0])
        assert len(rounds) == 1
        assert value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(x, [0.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12)
