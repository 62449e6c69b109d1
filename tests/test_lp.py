"""The secrecy LP: candidate family, endpoints, brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from secgauss import (
    STANDARD_SOURCE,
    CandidateSet,
    GaussianSource,
    GreedyQuantizedScheme,
    QuantizedPmf,
    QuantizerSpec,
    RatePair,
    build_quantized_pmf,
    candidate_score,
    enumerate_subset_candidates,
    lp_payoff,
    solve_secrecy_lp,
    step_size_for_entropy,
)
from secgauss import lp as lp_module


@pytest.fixture(scope="module")
def unit_pmf():
    return build_quantized_pmf(STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=7))


@pytest.fixture(scope="module")
def small_pmf():
    # Five points, hand-checkable, asymmetric masses.
    return QuantizedPmf(
        points=np.array([-2.0, -0.5, 0.0, 1.0, 2.5]),
        probs=np.array([0.1, 0.25, 0.3, 0.25, 0.1]),
    )


def brute_force_value(pmf, rs, candidates):
    """Exhaustive vertex enumeration over basic candidate subsets.

    A basic optimal solution activates at most K+1 candidates (K
    barycenter rows plus the entropy row), so checking every subset of
    that size is a complete oracle for small K.
    """
    k = pmf.points.size
    post, ent, score = candidates.posteriors, candidates.entropy_bits, candidates.scores
    best = -1.0
    for size in range(1, k + 2):
        for idx in itertools.combinations(range(len(candidates)), size):
            cols = np.array(idx)
            a_eq = post[cols].T
            # Entropy tight or slack: try both basic configurations.
            for with_entropy in (False, True):
                if with_entropy:
                    a = np.vstack([a_eq, ent[cols]])
                    b = np.concatenate([pmf.probs, [rs]])
                else:
                    a = a_eq
                    b = pmf.probs
                w, *_ = np.linalg.lstsq(a, b, rcond=None)
                if (w < -1e-9).any():
                    continue
                w = np.clip(w, 0.0, None)
                if np.abs(a @ w - b).max() > 1e-9:
                    continue
                if float(ent[cols] @ w) > rs + 1e-9:
                    continue
                if abs(float(w.sum()) - 1.0) > 1e-9:
                    continue
                best = max(best, float(score[cols] @ w))
    return best


class TestQuantizedPmf:
    def test_stats(self, small_pmf):
        pts, pr = small_pmf.points, small_pmf.probs
        assert small_pmf.mean() == pytest.approx(float(pts @ pr), abs=1e-15)
        m = small_pmf.mean()
        assert small_pmf.variance() == pytest.approx(
            float(pr @ (pts - m) ** 2), abs=1e-15
        )
        assert small_pmf.entropy_bits() == pytest.approx(
            -float(np.sum(pr * np.log2(pr))), abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizedPmf(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuantizedPmf(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            QuantizedPmf(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_read_only(self, small_pmf):
        with pytest.raises(ValueError):
            small_pmf.probs[0] = 0.9


class TestBuildQuantizedPmf:
    def test_matches_bin_table(self, unit_pmf):
        assert unit_pmf.points.size == 15
        assert unit_pmf.entropy_bits() == pytest.approx(2.104832654177669, abs=1e-11)
        assert unit_pmf.mean() == pytest.approx(0.0, abs=1e-12)

    def test_fold_to_cap(self):
        pmf = build_quantized_pmf(
            STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=7), max_support=7
        )
        assert pmf.points.size == 7
        full = build_quantized_pmf(STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=7))
        # Folding merges outer mass; entropy and variance both shrink.
        assert pmf.entropy_bits() <= full.entropy_bits()
        assert pmf.variance() <= full.variance() + 1e-12

    def test_even_support_rejected(self):
        with pytest.raises(ValueError):
            build_quantized_pmf(
                STANDARD_SOURCE, QuantizerSpec(step=1.0), max_support=8
            )


class TestCandidateScore:
    def test_continuous_is_variance(self):
        pts = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert candidate_score(pts, q, "continuous") == pytest.approx(0.25, abs=1e-15)

    def test_restricted_adds_nearest_gap(self):
        pts = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        # Eve must answer 0 or 1; either is 0.5 away from the mean.
        assert candidate_score(pts, q, "alphabet_restricted") == pytest.approx(
            0.5, abs=1e-15
        )

    def test_restricted_no_worse_than_continuous(self, small_pmf):
        pts = small_pmf.points
        cands = enumerate_subset_candidates(small_pmf)
        for q in cands.posteriors[:10]:
            c = candidate_score(pts, q, "continuous")
            r = candidate_score(pts, q, "alphabet_restricted")
            assert r >= c - 1e-15

    def test_singleton_scores_zero(self):
        pts = np.array([-1.0, 3.0])
        assert candidate_score(pts, np.array([1.0, 0.0]), "continuous") == 0.0
        assert (
            candidate_score(pts, np.array([1.0, 0.0]), "alphabet_restricted") == 0.0
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            candidate_score(np.array([0.0]), np.array([1.0]), "quantized")


class TestEnumerateCandidates:
    def test_two_point_family(self):
        pmf = QuantizedPmf(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        cands = enumerate_subset_candidates(pmf)
        assert [cands.label(i) for i in range(len(cands))] == ["0", "1", "0+1"]
        assert cands.entropy_bits.tolist() == [0.0, 0.0, 1.0]
        assert cands.scores[2] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(cands.posteriors[2], [0.5, 0.5])

    def test_count(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        assert len(cands) == 2**5 - 1

    def test_cap_enforced(self, small_pmf):
        with pytest.raises(ValueError):
            enumerate_subset_candidates(small_pmf, k_cap=4)

    def test_support_cap_bounded(self, small_pmf):
        assert len(enumerate_subset_candidates(small_pmf, k_cap=lp_module._MAX_SUPPORT)) == 31
        with pytest.raises(ValueError, match="largest supported"):
            enumerate_subset_candidates(small_pmf, k_cap=lp_module._MAX_SUPPORT + 1)

    def test_posteriors_match_renormalization(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        # Subset {1, 3} has bitmask 0b01010 = 10; candidates are in
        # ascending mask order starting at 1.
        i = 10 - 1
        assert cands.label(i) == "1+3"
        expect = np.zeros(5)
        expect[[1, 3]] = small_pmf.probs[[1, 3]]
        expect /= expect.sum()
        np.testing.assert_allclose(cands.posteriors[i], expect, atol=1e-15)
        p = expect[expect > 0]
        assert cands.entropy_bits[i] == pytest.approx(
            -float(np.sum(p * np.log2(p))), abs=1e-12
        )


class TestCandidateSet:
    def test_items_are_the_rows(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        assert isinstance(cands, CandidateSet)
        assert len(cands) == 31
        assert cands.posteriors.shape == (31, 5)
        assert cands.entropy_bits.shape == cands.scores.shape == (31,)
        np.testing.assert_array_equal(cands.masks, np.arange(1, 32))
        assert cands.label(0) == "0"
        assert cands.label(np.int64(17)) == "1+4"  # mask 18
        assert cands.label(-1) == "0+1+2+3+4"
        with pytest.raises(IndexError):
            cands.label(31)

    def test_columns_read_only(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        for column in (cands.masks, cands.posteriors, cands.entropy_bits, cands.scores):
            with pytest.raises(ValueError):
                column[0] = 0

    @pytest.mark.parametrize(
        "row, entropy, score",
        [([0.5, 0.6], 1.0, 0.1), ([1.5, -0.5], 0.0, 0.0), ([0.5, 0.5], -0.1, 0.1),
         ([0.5, 0.5], 1.0, -0.1)],
    )
    def test_rejects_what_a_candidate_rejects(self, row, entropy, score):
        good = [0.5, 0.5]
        with pytest.raises(ValueError):
            CandidateSet([1, 2], np.array([good, row]), [1.0, entropy], [0.2, score])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="one entry per"):
            CandidateSet([1, 2], np.array([[1.0, 0.0]]), [0.0], [0.0])

    def test_mismatched_support_rejected(self, small_pmf, unit_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        with pytest.raises(ValueError, match="does not match"):
            solve_secrecy_lp(unit_pmf, RatePair(5.0, 0.6), candidates=cands)


class TestSolveEndpoints:
    def test_zero_key_rate_is_zero(self, small_pmf):
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.0))
        assert sol.feasible
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_full_key_rate_is_variance(self, small_pmf):
        h = small_pmf.entropy_bits()
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, h))
        assert sol.value == pytest.approx(small_pmf.variance(), abs=1e-9)
        beyond = solve_secrecy_lp(small_pmf, RatePair(5.0, h + 2.0))
        assert beyond.value == pytest.approx(small_pmf.variance(), abs=1e-9)
        assert beyond.slack_rs > 1.0

    def test_message_rate_gate(self, small_pmf):
        sol = solve_secrecy_lp(small_pmf, RatePair(1.0, 0.5))
        assert not sol.feasible
        assert math.isnan(sol.value)

    def test_monotone_in_key_rate(self, small_pmf):
        prev = -1.0
        for rs in np.linspace(0.0, 2.5, 11):
            sol = solve_secrecy_lp(small_pmf, RatePair(5.0, float(rs)))
            assert sol.value >= prev - 1e-9
            assert sol.value <= small_pmf.variance() + 1e-9
            prev = sol.value

    def test_weights_form_distribution(self, small_pmf):
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.8))
        assert float(sol.weights.sum()) == pytest.approx(1.0, abs=1e-8)
        assert (sol.weights >= -1e-10).all()


class TestHandInstance:
    def test_symmetric_pair_half_bit(self):
        # Equal masses at -m and m with half a bit of key: the best
        # mixture discloses nothing half the time, everything the other
        # half, leaving m^2 / 2.
        m = math.sqrt(2.0 / math.pi)
        pmf = QuantizedPmf(np.array([-m, m]), np.array([0.5, 0.5]))
        sol = solve_secrecy_lp(pmf, RatePair(2.0, 0.5))
        assert sol.value == pytest.approx(0.5 * m * m, abs=1e-8)
        assert sol.slack_rs == pytest.approx(0.0, abs=1e-8)


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("rs", [0.0, 0.4, 1.0])
    def test_matches_small_instances(self, seed, rs):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        pts = np.sort(rng.normal(size=k))
        pr = rng.random(k) + 0.2
        pr /= pr.sum()
        pmf = QuantizedPmf(pts, pr)
        cands = enumerate_subset_candidates(pmf)
        sol = solve_secrecy_lp(pmf, RatePair(5.0, rs), candidates=cands)
        ref = brute_force_value(pmf, rs, cands)
        assert sol.value == pytest.approx(ref, abs=1e-8)


class TestInvariances:
    def test_candidate_order_irrelevant(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        sol1 = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=cands)
        flipped = CandidateSet(cands.masks[::-1], cands.posteriors[::-1],
                               cands.entropy_bits[::-1], cands.scores[::-1])
        sol2 = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=flipped)
        assert sol1.value == pytest.approx(sol2.value, abs=1e-9)

    def test_mirror_symmetry(self):
        pts = np.array([-2.0, -1.0, 1.0, 2.0])
        pr = np.array([0.1, 0.4, 0.4, 0.1])
        mirrored = QuantizedPmf(-pts[::-1], pr[::-1])
        a = solve_secrecy_lp(QuantizedPmf(pts, pr), RatePair(5.0, 0.7))
        b = solve_secrecy_lp(mirrored, RatePair(5.0, 0.7))
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_restricted_mode_dominates(self, small_pmf):
        for rs in (0.3, 0.8, 1.5):
            cont = solve_secrecy_lp(small_pmf, RatePair(5.0, rs), mode="continuous")
            restr = solve_secrecy_lp(
                small_pmf, RatePair(5.0, rs), mode="alphabet_restricted"
            )
            assert restr.value >= cont.value - 1e-9

    def test_weak_duality_cap(self, unit_pmf):
        # No disclosure mixture can beat the blind variance.
        for rs in (0.5, 1.5, 3.0):
            sol = solve_secrecy_lp(unit_pmf, RatePair(5.0, rs))
            assert sol.value <= unit_pmf.variance() + 1e-9


class TestLpPayoff:
    def test_normalizes_by_variance(self, small_pmf):
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.5))
        v = lp_payoff(sol, GaussianSource(0.0, 2.0))
        assert float(v) == pytest.approx(sol.value / 2.0, abs=1e-12)

    def test_infeasible_rejected(self, small_pmf):
        sol = solve_secrecy_lp(small_pmf, RatePair(0.5, 0.5))
        with pytest.raises(ValueError):
            lp_payoff(sol, STANDARD_SOURCE)


@pytest.fixture(scope="module")
def support15():
    """R = 2.7 pmf folded to 15 points, its candidates, and LP values on a key-rate grid."""
    step = step_size_for_entropy(STANDARD_SOURCE, 2.7)
    pmf = build_quantized_pmf(STANDARD_SOURCE, QuantizerSpec(step=step), max_support=15)
    cands = enumerate_subset_candidates(pmf)
    h = pmf.entropy_bits()
    grid = np.append(np.linspace(0.0, h, 10), h + 0.5)
    values = np.array(
        [solve_secrecy_lp(pmf, RatePair(2.7, float(rs)), cands).value for rs in grid]
    )
    return pmf, cands, grid, values


class TestValueCurveSupport15:
    def test_full_support_and_candidates(self, support15):
        pmf, cands, _, _ = support15
        assert pmf.points.size == 15
        assert len(cands) == 2**15 - 1

    def test_zero_without_key(self, support15):
        _, _, _, values = support15
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing_and_concave(self, support15):
        _, _, grid, values = support15
        slopes = np.diff(values) / np.diff(grid)
        assert (slopes >= -1e-9).all()
        assert (np.diff(slopes) <= 1e-7).all()

    def test_variance_once_key_covers_entropy(self, support15):
        pmf, _, grid, values = support15
        assert grid[-2] == pytest.approx(pmf.entropy_bits(), abs=1e-12)
        np.testing.assert_allclose(values[-2:], pmf.variance(), atol=1e-9)

    def test_matches_highs_on_the_equilibrated_lp(self, support15, monkeypatch):
        # Capture the scaled program the solver is handed and give it to
        # HiGHS too.  HiGHS stops within its own tolerances, which leave
        # its value a few 1e-9 off the exact optimum.  Key rate 0.25 and
        # grid points 3, 6 and 10; the last lies above H(pmf).
        pmf, cands, grid, _ = support15
        original = lp_module.linear_program_max
        seen = []

        def spy(c, a, b, **kwargs):
            x, value = original(c, a, b, **kwargs)
            seen.append((c, a, b, value))
            return x, value

        monkeypatch.setattr(lp_module, "linear_program_max", spy)
        for rs in (0.25, float(grid[3]), float(grid[6]), float(grid[10])):
            seen.clear()
            solve_secrecy_lp(pmf, RatePair(2.7, rs), cands)
            (c, a, b, value), = seen
            ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            assert ref.success, rs
            assert value == pytest.approx(-ref.fun, abs=1e-7), rs


class TestDominatesGreedy:
    @pytest.mark.parametrize("rate", [1.5, 2.0])
    def test_lp_at_least_greedy_at_equal_step(self, rate):
        # Greedy disclosure of the index mod n is one feasible subset
        # mixture, and Bob's lattice decoding is no better than the
        # centroid the LP assumes, so the LP can only do better.
        plan = GreedyQuantizedScheme(rate)
        pmf = build_quantized_pmf(STANDARD_SOURCE, QuantizerSpec(step=plan.step))
        cands = enumerate_subset_candidates(pmf)
        for rs in (0.0, 0.25, 0.5, 1.0):
            point = plan.evaluate(rs)
            assert point.meta["feasible"] and point.meta["t"] == plan.step
            lp = solve_secrecy_lp(pmf, RatePair(rate, rs), cands)
            assert float(lp_payoff(lp, STANDARD_SOURCE)) >= point.payoff.value - 1e-9
