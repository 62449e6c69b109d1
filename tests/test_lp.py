"""The secrecy LP: candidate family, endpoints, brute-force oracle."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog
from subset_reference import dense_subset_candidates

from secgauss import (
    STANDARD_SOURCE,
    CandidateSet,
    FiniteJoint,
    GaussianSource,
    GreedyQuantizedScheme,
    LpSolution,
    PayoffValue,
    QuantizedPmf,
    RatePair,
    build_bin_table,
    bob_distortion,
    build_quantized_pmf,
    entropy_given_residue,
    enumerate_subset_candidates,
    eve_mmse_given_residue,
    evaluate_finite_strategy,
    solve_secrecy_lp,
    step_size_for_entropy,
    sweep_secrecy_lp,
)
from secgauss import lp as lp_module
from secgauss import simplex
from secgauss.cli import main as cli_main


@pytest.fixture(scope="module")
def unit_pmf():
    return build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0))


@pytest.fixture(scope="module")
def small_pmf():
    # Five points, hand-checkable: mirrored masses on points that are not mirrored.
    return QuantizedPmf(
        points=np.array([-2.0, -0.5, 0.0, 1.0, 2.5]),
        probs=np.array([0.1, 0.25, 0.3, 0.25, 0.1]),
    )


@pytest.fixture(scope="module")
def small_cands(small_pmf):
    return enumerate_subset_candidates(small_pmf)


def brute_force_value(pmf, rs, drop=()):
    """Exhaustive vertex enumeration over basic candidate subsets.

    A basic optimal solution activates at most K+1 candidates (K
    barycenter rows plus the entropy row), so checking every subset of
    that size is a complete oracle for small K.  The candidates are the
    dense reference's posterior rows, less the subsets whose masks are
    in `drop`.
    """
    k = pmf.points.size
    masks, post, ent, score = dense_subset_candidates(pmf)
    keep = ~np.isin(masks, drop)
    post, ent, score = post[keep], ent[keep], score[keep]
    best = -1.0
    for size in range(1, k + 2):
        for idx in itertools.combinations(range(ent.size), size):
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
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0), max_support=7)
        assert pmf.points.size == 7
        full = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0))
        # Folding merges outer mass; entropy and variance both shrink.
        assert pmf.entropy_bits() <= full.entropy_bits()
        assert pmf.variance() <= full.variance() + 1e-12

    def test_even_support_rejected(self):
        with pytest.raises(ValueError):
            build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0), max_support=8)

    @pytest.mark.parametrize("cap", [1, -1, 0])
    def test_support_below_three_rejected_by_name(self, cap):
        # A cap of 1 once reached the fold with a half-width of 0, whose
        # message named the fold's own parameter rather than max_support.
        with pytest.raises(ValueError, match=r"^max_support must be an odd integer >= 3"):
            build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0), max_support=cap)

    def test_support_above_the_largest_rejected(self):
        with pytest.raises(ValueError, match=r"^support cap 41 exceeds the largest supported, 19$"):
            build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.0), max_support=41)

    def test_smallest_cap_folds_to_three_points(self):
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.6), max_support=3)
        assert pmf.points.size == 3

    def test_integer_source_gives_the_float_pmf(self):
        # The fold fills arrays with the source mean; an int mean once
        # made them integer arrays, and the fold raised.
        source = GaussianSource(0, 1)
        assert type(source.mean) is float and type(source.variance) is float
        got = build_quantized_pmf(build_bin_table(source, 1.0), max_support=5)
        want = build_quantized_pmf(build_bin_table(GaussianSource(0.0, 1.0), 1.0), max_support=5)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()


class TestCandidateScore:
    """The `scores` column of enumerate_subset_candidates."""

    HALVES = QuantizedPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def full_score(self, mode):
        cands = enumerate_subset_candidates(self.HALVES, mode=mode)
        assert cands.masks[-1] == 3
        return cands.scores[-1]

    def test_continuous_is_variance(self):
        assert self.full_score("continuous") == pytest.approx(0.25, abs=1e-15)

    def test_restricted_adds_nearest_gap(self):
        # Eve must answer 0 or 1; either is 0.5 away from the mean.
        assert self.full_score("alphabet_restricted") == pytest.approx(0.5, abs=1e-15)

    def test_restricted_no_worse_than_continuous(self, small_pmf):
        c = enumerate_subset_candidates(small_pmf, mode="continuous").scores
        r = enumerate_subset_candidates(small_pmf, mode="alphabet_restricted").scores
        assert (r >= c - 1e-15).all()

    def test_singleton_scores_zero(self, small_pmf):
        for mode in ("continuous", "alphabet_restricted"):
            cands = enumerate_subset_candidates(small_pmf, mode=mode)
            single = (cands.masks & (cands.masks - 1)) == 0
            assert single.sum() == small_pmf.points.size
            assert (cands.scores[single] == 0.0).all()

    def test_unknown_mode(self, small_pmf):
        with pytest.raises(ValueError):
            enumerate_subset_candidates(small_pmf, mode="quantized")


class TestEnumerateCandidates:
    def test_two_point_family(self):
        pmf = QuantizedPmf(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        cands = enumerate_subset_candidates(pmf)
        assert [cands.label(i) for i in range(len(cands))] == ["0", "1", "0+1"]
        assert cands.entropy_bits.tolist() == [0.0, 0.0, 1.0]
        assert cands.scores[2] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(cands.masks, [1, 2, 3])

    def test_count(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        assert len(cands) == 2**5 - 1

    def test_cap_enforced(self):
        k = lp_module._MAX_SUPPORT + 1
        pmf = QuantizedPmf(np.arange(float(k)), np.full(k, 1.0 / k))
        with pytest.raises(ValueError, match=f"support size {k} .* fold the pmf"):
            enumerate_subset_candidates(pmf)

    def test_support_cap_bounded(self):
        # 2**64 subset masks cannot be built: the refusal must come first.
        pmf = QuantizedPmf(np.arange(64.0), np.full(64, 1.0 / 64))
        with pytest.raises(ValueError, match="largest supported, 19"):
            enumerate_subset_candidates(pmf, mode="alphabet_restricted")

    def test_default_candidates_take_supports_above_15(self):
        # The default enumeration takes every support up to _MAX_SUPPORT;
        # at 16 points the endpoints are no disclosure and full secrecy.
        pmf = QuantizedPmf(np.arange(16.0), np.full(16, 1.0 / 16))
        cands = enumerate_subset_candidates(pmf)
        none, full = sweep_secrecy_lp(pmf, 9.0, [0.0, 4.0], cands)
        assert abs(none.value) <= 1e-9
        assert full.value == pytest.approx(pmf.variance(), abs=1e-9)

    def test_posteriors_match_renormalization(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        # Subset {1, 3} has bitmask 0b01010 = 10; candidates are in
        # ascending mask order starting at 1.
        i = 10 - 1
        assert cands.label(i) == "1+3"
        p = small_pmf.probs[[1, 3]] / small_pmf.probs[[1, 3]].sum()
        x = small_pmf.points[[1, 3]]
        assert cands.entropy_bits[i] == pytest.approx(
            -float(np.sum(p * np.log2(p))), abs=1e-12
        )
        assert cands.scores[i] == pytest.approx(float(p @ (x - p @ x) ** 2), abs=1e-15)


@pytest.mark.parametrize("mode", ["continuous", "alphabet_restricted"])
@pytest.mark.parametrize("mean", [0.0, 3.0, 1e3])
@pytest.mark.parametrize("support", [3, 5, 9, 15])
@pytest.mark.parametrize("step", [0.25, 0.5, 1.0, 2.0, 3.0])
def test_enumeration_matches_dense_reference(step, support, mean, mode):
    # The bit recurrence against one posterior row per subset.  At mean
    # 1e3 both sides' scores are within 8.3e-13 of 50-digit values.
    pmf = build_quantized_pmf(build_bin_table(GaussianSource(mean, 1.0), step),
                              max_support=support)
    cands = enumerate_subset_candidates(pmf, mode=mode)
    masks, _, ent, scores = dense_subset_candidates(pmf, mode)
    np.testing.assert_array_equal(cands.masks, masks)
    np.testing.assert_allclose(cands.entropy_bits, ent, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(cands.scores, scores, rtol=2e-12, atol=0.0)


def test_tiny_entropies_are_accurate():
    # Subsets holding the centre bin and one or two far bins have
    # entropies of 7.6e-11 to 1.5e-10 bits, where summing -q log q over a
    # renormalized row loses about six digits.
    pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 2.0), max_support=9)
    cands = enumerate_subset_candidates(pmf)
    for subset in ((0, 4), (4, 8), (0, 4, 8)):
        with mpmath.workdps(50):
            p = [mpmath.mpf(float(pmf.probs[j])) for j in subset]
            total = mpmath.fsum(p)
            exact = float(-mpmath.fsum(q / total * mpmath.log(q / total, 2) for q in p))
        got = cands.entropy_bits[sum(1 << j for j in subset) - 1]
        assert 0.0 < exact < 2e-10
        assert got == pytest.approx(exact, rel=1e-14, abs=0.0), subset


class TestCandidateSet:
    def test_items_are_the_rows(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        assert isinstance(cands, CandidateSet)
        assert len(cands) == 31
        assert cands.masks.shape == cands.entropy_bits.shape == cands.scores.shape == (31,)
        np.testing.assert_array_equal(cands.masks, np.arange(1, 32))
        assert cands.label(0) == "0"
        assert cands.label(np.int64(17)) == "1+4"  # mask 18
        assert cands.label(-1) == "0+1+2+3+4"
        with pytest.raises(IndexError):
            cands.label(31)

    def test_columns_read_only(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        for column in (cands.masks, cands.entropy_bits, cands.scores):
            with pytest.raises(ValueError):
                column[0] = 0

    @pytest.mark.parametrize(
        "row, entropy, score, error",
        [([1, 0, 1], 1.0, 0.1, "outside the 2-point support"),
         ([0, 0], 0.0, 0.0, "zero mass"),
         ([1, 1], -0.1, 0.1, "nonnegative"),
         ([1, 1], 1.0, -0.1, "nonnegative")],
        ids=["row0-1.0-0.1", "row1-0.0-0.0", "row2--0.1-0.1", "row3-1.0--0.1"],
    )
    def test_rejects_what_a_candidate_rejects(self, row, entropy, score, error):
        # `row` is the second candidate's incidence over the support
        # points: set bits outside the support, or an empty subset, fail
        # where the candidates meet a pmf; bad columns fail at once.
        pmf = QuantizedPmf(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        mask = sum(bit << j for j, bit in enumerate(row))
        with pytest.raises(ValueError, match=error):
            cands = CandidateSet([1, mask], [0.0, entropy], [0.0, score])
            solve_secrecy_lp(pmf, RatePair(5.0, 1.0), candidates=cands)

    def test_rejects_zero_mass_subset(self):
        # Point 1 has no mass, so the subset {1} cannot be disclosed.
        pmf = QuantizedPmf(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        cands = CandidateSet([1, 2, 4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero mass"):
            solve_secrecy_lp(pmf, RatePair(5.0, 0.5), candidates=cands)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="one entry per"):
            CandidateSet([1, 2], [0.0], [0.0])

    def test_mismatched_support_rejected(self, small_pmf, unit_pmf):
        cands = enumerate_subset_candidates(unit_pmf)
        with pytest.raises(ValueError, match="outside the 5-point support"):
            solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=cands)

    # The solver starts from the singletons, so each point of positive
    # mass needs one, spending no key.
    def test_rejects_a_missing_singleton(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        keep = cands.masks != 4
        cands = CandidateSet(cands.masks[keep], cands.entropy_bits[keep], cands.scores[keep])
        with pytest.raises(ValueError, match="singleton subset of point 2 is missing"):
            solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=cands)

    def test_rejects_a_singleton_that_spends_key(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        ent = np.where(cands.masks == 2, 0.5, cands.entropy_bits)
        cands = CandidateSet(cands.masks, ent, cands.scores)
        with pytest.raises(ValueError, match="singleton subset of point 1 has entropy 0.5"):
            solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=cands)

    @pytest.mark.parametrize("order", ["ascending", "reversed", "repeated"])
    def test_start_is_the_first_singletons_and_the_slack(self, small_pmf, monkeypatch, order):
        cands = enumerate_subset_candidates(small_pmf)
        columns = (cands.masks, cands.entropy_bits, cands.scores)
        if order == "reversed":
            cands = CandidateSet(*(column[::-1] for column in columns))
        elif order == "repeated":
            cands = CandidateSet(*(np.concatenate([column, column]) for column in columns))
        original = lp_module.linear_program_sweep
        starts = []

        def spy(c, a, b, start, row, values):
            starts.append(list(start))
            return original(c, a, b, start, row, values)

        monkeypatch.setattr(lp_module, "linear_program_sweep", spy)
        list(sweep_secrecy_lp(small_pmf, 5.0, [0.6], cands))
        # Singleton 2**i is column 2**i - 1 in ascending order and 31 - 2**i
        # reversed; the slack is the last column.
        first = {"ascending": [0, 1, 3, 7, 15], "reversed": [30, 29, 27, 23, 15],
                 "repeated": [0, 1, 3, 7, 15]}[order]
        assert starts == [first + [len(cands)]]


class TestSolveEndpoints:
    def test_zero_key_rate_is_zero(self, small_pmf, small_cands):
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.0), small_cands)
        assert sol.feasible
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_full_key_rate_is_variance(self, small_pmf, small_cands):
        h = small_pmf.entropy_bits()
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, h), small_cands)
        assert sol.value == pytest.approx(small_pmf.variance(), abs=1e-9)
        beyond = solve_secrecy_lp(small_pmf, RatePair(5.0, h + 2.0), small_cands)
        assert beyond.value == pytest.approx(small_pmf.variance(), abs=1e-9)
        assert beyond.slack_rs > 1.0

    def test_key_rate_past_every_candidate_entropy(self, small_pmf):
        # No mixture spends more key than its largest candidate entropy, so
        # these rates share one value; the slack is against the rate given.
        cands = enumerate_subset_candidates(small_pmf)
        rates = [cands.entropy_bits.max(), 10.0, 1e5, 1e308]
        swept = sweep_secrecy_lp(small_pmf, 5.0, rates, cands)
        for rs, sol in zip(rates, swept):
            assert sol.value == pytest.approx(small_pmf.variance(), abs=1e-9), rs
            assert sol.slack_rs == rs - float(sol.weights @ cands.entropy_bits), rs

    def test_message_rate_gate(self, small_pmf, small_cands):
        sol = solve_secrecy_lp(small_pmf, RatePair(1.0, 0.5), small_cands)
        assert not sol.feasible
        assert math.isnan(sol.value)

    def test_monotone_in_key_rate(self, small_pmf, small_cands):
        prev = -1.0
        for rs in np.linspace(0.0, 2.5, 11):
            sol = solve_secrecy_lp(small_pmf, RatePair(5.0, float(rs)), small_cands)
            assert sol.value >= prev - 1e-9
            assert sol.value <= small_pmf.variance() + 1e-9
            prev = sol.value

    def test_weights_form_distribution(self, small_pmf, small_cands):
        sol = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.8), small_cands)
        assert float(sol.weights.sum()) == pytest.approx(1.0, abs=1e-8)
        assert (sol.weights >= -1e-10).all()

    def test_zero_probability_point_changes_nothing(self, small_pmf, small_cands):
        # A point of zero mass gets no barycenter row; the subsets that
        # add it to others repeat those others' columns.
        padded = QuantizedPmf(np.insert(small_pmf.points, 3, 0.5),
                              np.insert(small_pmf.probs, 3, 0.0))
        rates = [0.0, 0.4, 0.8, 1.2, 1.6, 2.5, 1.0, 0.0]
        got = sweep_secrecy_lp(padded, 5.0, rates, enumerate_subset_candidates(padded))
        want = sweep_secrecy_lp(small_pmf, 5.0, rates, small_cands)
        for rs, g, w in zip(rates, got, want):
            assert g.feasible and g.value == pytest.approx(w.value, abs=1e-9), rs
            assert g.slack_rs == pytest.approx(w.slack_rs, abs=1e-9), rs


class TestHandInstance:
    def test_symmetric_pair_half_bit(self):
        # Equal masses at -m and m with half a bit of key: the best
        # mixture discloses nothing half the time, everything the other
        # half, leaving m^2 / 2.
        m = math.sqrt(2.0 / math.pi)
        pmf = QuantizedPmf(np.array([-m, m]), np.array([0.5, 0.5]))
        sol = solve_secrecy_lp(pmf, RatePair(2.0, 0.5), enumerate_subset_candidates(pmf))
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
        ref = brute_force_value(pmf, rs)
        assert sol.value == pytest.approx(ref, abs=1e-8)


class TestInvariances:
    def test_candidate_order_irrelevant(self, small_pmf):
        cands = enumerate_subset_candidates(small_pmf)
        sol1 = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=cands)
        flipped = CandidateSet(cands.masks[::-1], cands.entropy_bits[::-1], cands.scores[::-1])
        sol2 = solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), candidates=flipped)
        assert sol1.value == pytest.approx(sol2.value, abs=1e-9)

    def test_mirror_symmetry(self):
        pts = np.array([-2.0, -1.0, 1.0, 2.0])
        pr = np.array([0.1, 0.4, 0.4, 0.1])
        pmf, mirrored = QuantizedPmf(pts, pr), QuantizedPmf(-pts[::-1], pr[::-1])
        a = solve_secrecy_lp(pmf, RatePair(5.0, 0.7), enumerate_subset_candidates(pmf))
        b = solve_secrecy_lp(mirrored, RatePair(5.0, 0.7), enumerate_subset_candidates(mirrored))
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_restricted_mode_dominates(self, small_pmf, small_cands):
        for rs in (0.3, 0.8, 1.5):
            cont = solve_secrecy_lp(small_pmf, RatePair(5.0, rs), small_cands)
            restr = solve_secrecy_lp(small_pmf, RatePair(5.0, rs), enumerate_subset_candidates(
                small_pmf, mode="alphabet_restricted"))
            assert restr.value >= cont.value - 1e-9

    def test_weak_duality_cap(self, unit_pmf):
        # No disclosure mixture can beat the blind variance.
        cands = enumerate_subset_candidates(unit_pmf)
        for rs in (0.5, 1.5, 3.0):
            sol = solve_secrecy_lp(unit_pmf, RatePair(5.0, rs), cands)
            assert sol.value <= unit_pmf.variance() + 1e-9


class TestLpPayoff:
    def test_infeasible_rejected(self, small_pmf, small_cands):
        # Key rate above the rate: no feasible strategy, so the value is
        # NaN, and normalizing it into a payoff raises.
        sol = solve_secrecy_lp(small_pmf, RatePair(0.5, 0.5), small_cands)
        assert sol.feasible is False
        with pytest.raises(ValueError):
            PayoffValue(sol.value / STANDARD_SOURCE.variance)

    def test_feasible_is_set_from_the_value(self):
        assert LpSolution(0.5, [1.0], 0.0).feasible is True
        assert LpSolution(math.nan, [], math.nan).feasible is False
        # Not an input, so it can never disagree with the value.
        with pytest.raises(TypeError):
            LpSolution(math.nan, [], True, math.nan)


def mirror_index(masks, k):
    """Index of each mask's mirror image under point i -> k - 1 - i, among `masks`."""
    where = {int(mask): j for j, mask in enumerate(masks)}
    return np.array([where[int(f"{int(mask):0{k}b}"[::-1], 2)] for mask in masks])


def program_shapes(monkeypatch):
    """Record the shape of every constraint matrix the LP hands the simplex."""
    shapes = []
    original = lp_module.linear_program_sweep

    def spy(c, a, b, start, row, values):
        shapes.append(a.shape)
        return original(c, a, b, start, row, values)

    monkeypatch.setattr(lp_module, "linear_program_sweep", spy)
    return shapes


def without(cands, mask):
    """The candidate set less the subset `mask`."""
    keep = cands.masks != mask
    return CandidateSet(cands.masks[keep], cands.entropy_bits[keep], cands.scores[keep])


def with_repeat(cands, mask):
    """The candidate set with the subset `mask` listed twice: the same LP, not mirror-closed."""
    j = int(np.flatnonzero(cands.masks == mask)[0])
    return CandidateSet(*(np.append(col, col[j]) for col in
                          (cands.masks, cands.entropy_bits, cands.scores)))


# Mirror-symmetric pmfs: an even and an odd support, small enough for brute force.
MIRRORED = {
    "even": QuantizedPmf(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0.1, 0.4, 0.4, 0.1])),
    "odd": QuantizedPmf(np.array([-1.5, 0.0, 1.5]), np.array([0.25, 0.5, 0.25])),
}


class TestMirrorOrbits:
    """The LP over orbits of the mirror i -> k - 1 - i: one column per pair of
    mirror subsets, one row per pair of mirror points, the key row.  A pmf
    or candidate set without that symmetry takes the trivial group: every
    candidate its own column and every point of positive mass its own row.
    """

    @pytest.mark.parametrize("support", [3, 9, 15])
    def test_weights_are_mirror_symmetric(self, support, monkeypatch):
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.3), max_support=support)
        cands = enumerate_subset_candidates(pmf)
        twin = mirror_index(cands.masks, support)
        orbits = int(np.count_nonzero(cands.masks <= cands.masks[twin]))
        shapes = program_shapes(monkeypatch)
        rates = [0.0, 0.3, 0.9, 1.7, pmf.entropy_bits()]
        for rs, sol in zip(rates, sweep_secrecy_lp(pmf, 9.0, rates, cands)):
            assert sol.feasible, rs
            np.testing.assert_array_equal(sol.weights[twin], sol.weights)
        assert orbits == (2**support + 2 ** ((support + 1) // 2)) // 2 - 1
        assert shapes == [((support + 3) // 2, orbits + 1)]

    @pytest.mark.parametrize("rs", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("shape", ["even", "odd"])
    def test_symmetric_pmf_matches_brute_force(self, shape, rs, monkeypatch):
        pmf = MIRRORED[shape]
        k = pmf.points.size
        shapes = program_shapes(monkeypatch)
        sol = solve_secrecy_lp(pmf, RatePair(5.0, rs), enumerate_subset_candidates(pmf))
        assert sol.value == pytest.approx(brute_force_value(pmf, rs), abs=1e-9)
        assert shapes[0][0] == (k + 3) // 2

    def test_small_pmf_takes_the_trivial_group(self, small_pmf, small_cands, monkeypatch):
        # Its masses are mirrored, its points are not, so neither are the scores.
        shapes = program_shapes(monkeypatch)
        solve_secrecy_lp(small_pmf, RatePair(5.0, 0.6), small_cands)
        assert shapes == [(6, len(small_cands) + 1)]

    @pytest.mark.parametrize("rs", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("probs, points", [
        ([0.1, 0.3, 0.4, 0.2], [-2.0, -1.0, 1.0, 2.0]),  # masses not mirrored
        ([0.1, 0.4, 0.4, 0.1], [-2.0, -0.5, 1.0, 2.0]),  # points not mirrored
    ])
    def test_asymmetric_pmf_takes_the_trivial_group(self, probs, points, rs, monkeypatch):
        pmf = QuantizedPmf(np.array(points), np.array(probs))
        cands = enumerate_subset_candidates(pmf)
        shapes = program_shapes(monkeypatch)
        sol = solve_secrecy_lp(pmf, RatePair(5.0, rs), cands)
        assert sol.value == pytest.approx(brute_force_value(pmf, rs), abs=1e-9)
        assert shapes == [(5, len(cands) + 1)]

    def test_masses_decide_whatever_the_scores(self, monkeypatch):
        # Candidates scored on the mirrored pmf, solved on one whose masses
        # are not mirrored: the subset masses break the symmetry, so the
        # trivial group solves it, as it does with a subset listed twice.
        cands = enumerate_subset_candidates(MIRRORED["odd"])
        pmf = QuantizedPmf(MIRRORED["odd"].points, np.array([0.15, 0.5, 0.35]))
        shapes = program_shapes(monkeypatch)
        rates = [0.0, 0.2, 0.5, 0.9]
        got = [sol.value for sol in sweep_secrecy_lp(pmf, 5.0, rates, cands)]
        want = [sol.value for sol in sweep_secrecy_lp(pmf, 5.0, rates, with_repeat(cands, 0b11))]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert shapes == [(4, len(cands) + 1), (4, len(cands) + 2)]

    @pytest.mark.parametrize("rs", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("shape, mask", [("even", 0b0011), ("even", 0b1101), ("odd", 0b011)])
    def test_a_subset_without_its_mirror_takes_the_trivial_group(self, shape, mask, rs,
                                                                 monkeypatch):
        # The subset's mirror image (0b1100, 0b1011, 0b110) stays a candidate.
        pmf = MIRRORED[shape]
        k = pmf.points.size
        cands = without(enumerate_subset_candidates(pmf), mask)
        shapes = program_shapes(monkeypatch)
        sol = solve_secrecy_lp(pmf, RatePair(5.0, rs), cands)
        assert sol.value == pytest.approx(brute_force_value(pmf, rs, drop=[mask]), abs=1e-9)
        assert shapes == [(k + 1, len(cands) + 1)]

    @pytest.mark.parametrize("mode", ["continuous", "alphabet_restricted"])
    @pytest.mark.parametrize("support", [3, 5, 7, 9, 11, 13, 15])
    def test_orbit_program_matches_the_trivial_group(self, support, mode, monkeypatch):
        # A subset listed twice leaves the LP as it is but the candidate set
        # without the mirror symmetry, so the trivial group solves it.
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.3), max_support=support)
        cands = enumerate_subset_candidates(pmf, mode)
        repeated = with_repeat(cands, 0b11)
        grid = np.append(np.linspace(0.0, pmf.entropy_bits(), 9), pmf.entropy_bits() + 0.5)
        shapes = program_shapes(monkeypatch)
        for rates in (grid.tolist(), grid[::-1].tolist()):
            orbit = [sol.value for sol in sweep_secrecy_lp(pmf, 9.0, rates, cands)]
            trivial = [sol.value for sol in sweep_secrecy_lp(pmf, 9.0, rates, repeated)]
            np.testing.assert_allclose(orbit, trivial, rtol=0.0, atol=1e-9)
        assert [rows for rows, _ in shapes] == [(support + 3) // 2, support + 1] * 2


@pytest.fixture(scope="module")
def support15():
    """R = 2.7 pmf folded to 15 points, its candidates, and LP values on a key-rate grid."""
    pmf = build_quantized_pmf(step_size_for_entropy(STANDARD_SOURCE, 2.7), max_support=15)
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

    def test_matches_highs_on_the_program_it_is_handed(self, support15, monkeypatch):
        # Capture the program the sweep is handed and give it to
        # HiGHS's interior-point method at each of its key rates; on this
        # 32767-column program it is about twice as fast as the dual
        # simplex HiGHS picks by default.  Either stops within its own
        # tolerances: after crossover the interior point lands within
        # 1e-13 of our value here, the dual simplex up to 2e-9 off.  Key
        # rate 0.25 and grid points 3, 6 and 10, solved as one warm
        # sweep.  The last lies above every candidate entropy, so the sweep
        # hands the solver the largest instead; HiGHS solves the rate given.
        pmf, cands, grid, _ = support15
        original = lp_module.linear_program_sweep
        seen = []

        def spy(c, a, b, start, row, values):
            solved = list(original(c, a, b, start, row, values))
            seen.append((c, a, b, row, values, solved))
            return solved

        monkeypatch.setattr(lp_module, "linear_program_sweep", spy)
        rates = (0.25, float(grid[3]), float(grid[6]), float(grid[10]))
        list(sweep_secrecy_lp(pmf, 2.7, rates, cands))
        (c, a, b, row, values, solved), = seen
        assert list(values) == [min(rs, cands.entropy_bits.max()) for rs in rates]
        assert values[-1] < rates[-1]
        for rs, (_, value) in zip(rates, solved):
            b = b.copy()
            b[row] = rs
            ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs-ipm")
            assert ref.success, rs
            assert value == pytest.approx(-ref.fun, abs=1e-7), rs


@pytest.fixture(scope="module")
def lp_sweep_instance():
    """The 17-rate `lp --t 0.6 --r 3 --max-support 11` instance and its cold values."""
    pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.6), max_support=11)
    cands = enumerate_subset_candidates(pmf)
    grid = [i * 0.0625 for i in range(17)]
    cold = {rs: solve_secrecy_lp(pmf, RatePair(3.0, rs), cands).value for rs in grid}
    return pmf, cands, grid, cold


def test_lp_sweep_instance_matches_highs_on_the_full_program(lp_sweep_instance):
    # The program before any reduction, straight from the dense reference:
    # one column per subset posterior and a key slack, one row per point
    # and the key row.  HiGHS solves it at each rate; the sweep's weights,
    # expanded to every subset, must satisfy it and reach the same value.
    pmf, cands, grid, _ = lp_sweep_instance
    masks, post, ent, score = dense_subset_candidates(pmf)
    k, n = pmf.points.size, masks.size
    np.testing.assert_array_equal(masks, cands.masks)
    a = np.zeros((k + 1, n + 1))
    a[:k, :n], a[k, :n], a[k, n] = post.T, ent, 1.0
    c = np.append(score, 0.0)
    for rs, sol in zip(grid, sweep_secrecy_lp(pmf, 3.0, grid, cands)):
        b = np.append(pmf.probs, rs)
        ref = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.success, rs
        assert sol.value == pytest.approx(-ref.fun, abs=1e-7), rs
        x = np.append(sol.weights, sol.slack_rs)
        assert np.abs(a @ x - b).max() <= 1e-8, rs
        assert float(c @ x) == pytest.approx(sol.value, abs=1e-9), rs


def sweep_orders(grid):
    """Ascending, descending and repeated-rate orders of a key-rate grid."""
    return {
        "ascending": list(grid),
        "descending": list(grid)[::-1],
        "repeated": [grid[3], grid[3], grid[6], grid[6], grid[3], grid[-1], grid[-1], grid[0]],
    }


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call is counted; return the counter."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWarmSweep:
    # Each `solve_secrecy_lp` call is a one-rate sweep, that is a cold
    # solve; a sweep starts every later rate from the last optimal basis.

    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    def test_support15_sweep_matches_cold_solves(self, support15, order):
        pmf, cands, grid, values = support15
        cold = dict(zip(grid.tolist(), values))
        rates = sweep_orders(grid.tolist())[order]
        swept = sweep_secrecy_lp(pmf, 2.7, rates, cands)
        for rs, sol in zip(rates, swept):
            assert sol.feasible and sol.value == pytest.approx(cold[rs], abs=1e-9), rs

    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    def test_lp_sweep_instance_matches_cold_solves(self, lp_sweep_instance, order):
        pmf, cands, grid, cold = lp_sweep_instance
        rates = sweep_orders(grid)[order]
        swept = list(sweep_secrecy_lp(pmf, 3.0, rates, cands))
        assert len(swept) == len(rates)
        for rs, sol in zip(rates, swept):
            assert sol.value == pytest.approx(cold[rs], abs=1e-9), rs
            assert sol.slack_rs >= -1e-8

    def test_fallback_from_the_zero_key_rate_basis(self, monkeypatch):
        # At rs = 0 the only feasible mixture is the singletons.  On the
        # 11-point pmf of the 1.5-sigma table, scored in alphabet_restricted
        # mode, the dual pivots from the rs = 0.5 basis toward it pass a
        # basis of condition about 6e9 with basic values near -8e8 and lose
        # dual feasibility, so the sweep must solve rs = 0 cold again and
        # still return the cold answer at every rate.  It is the one sweep
        # of the family below that still falls back.
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 1.5), max_support=11)
        cands = enumerate_subset_candidates(pmf, "alphabet_restricted")
        rates = [2.0, 1.5, 1.0, 0.5, 0.0]
        cold = [solve_secrecy_lp(pmf, RatePair(20.0, rs), cands).value for rs in rates]
        colds = count_calls(monkeypatch, simplex, "_cold")
        swept = list(sweep_secrecy_lp(pmf, 20.0, rates, cands))
        assert len(colds) == 2
        np.testing.assert_allclose([s.value for s in swept], cold, rtol=0.0, atol=1e-9)

    def test_family_sweeps_stay_warm(self, monkeypatch):
        # Steps 0.25 to 3 sigma, supports 3 to 13, grids of step 0.0625 to
        # 0.5 over 0:2, each ascending and descending, in both score modes:
        # 672 sweeps.  Only the sweep of the test above may solve cold after
        # its first rate; it is reached twice, since the 1.5-sigma table has
        # 11 bins of positive mass, so supports 11 and 13 give one pmf.  On
        # every ascending grid D is nondecreasing and concave (equal steps).
        colds = count_calls(monkeypatch, simplex, "_cold")
        fell_back = 0
        for mode, step, support in itertools.product(
                ("continuous", "alphabet_restricted"), (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                range(3, 14, 2)):
            pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, step), support)
            cands = enumerate_subset_candidates(pmf, mode)
            for size in (0.0625, 0.125, 0.25, 0.5):
                grid = [i * size for i in range(round(2.0 / size) + 1)]
                for rates in (grid, grid[::-1]):
                    swept = sweep_secrecy_lp(pmf, 20.0, rates, cands)
                    values = [next(swept).value]
                    first = len(colds)
                    values += [sol.value for sol in swept]
                    fell_back += len(colds) > first
                    if rates is grid:
                        rises = np.diff(values)
                        assert (rises >= -1e-9).all(), (mode, step, support, size)
                        assert (np.diff(rises) <= 1e-9).all(), (mode, step, support, size)
        assert fell_back <= 2

    def test_lp_sweep_command_pivots(self, monkeypatch, capsys):
        # 18 pivots; the cold solve at every rate took 860 here.
        pivots = count_calls(monkeypatch, simplex, "_pivot")
        code = cli_main(["lp", "--t", "0.6", "--r", "3", "--rs-range", "0:1:0.0625",
                         "--max-support", "11"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 18
        assert 0 < len(pivots) < 60

    def test_curve_solve_starts_from_the_singletons(self, monkeypatch, capsys):
        # The support-15 lp_quantized solve of the benchmark's first
        # variant: the cold solve is one round of pivots from the singleton
        # and key-slack columns, all of them primal: 15 pivots.
        pivots = count_calls(monkeypatch, simplex, "_pivot")
        rounds = count_calls(monkeypatch, simplex, "_iterate")
        code = cli_main(["curve", "--schemes", "lp_quantized", "--r", "2.7", "--rs", "0.25"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert 0 < len(pivots) < 40
        assert len(rounds) == 1

    def test_sweep_holds_one_dense_solution_at_a_time(self):
        # A 17-rate sweep at support 13, 8191 candidates, read as a stream
        # and each solution dropped once read.  Beside the (k + 1) x (n + 1)
        # matrix it may hold only a few dense n-vectors at once: cost, the
        # current solution and weights, and the pricing temporaries.
        # Solutions kept until the sweep ends would add 17.
        pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.3), max_support=13)
        cands = enumerate_subset_candidates(pmf)
        rates = [i * 0.125 for i in range(17)]
        tracemalloc.start()
        try:
            feasible = [sol.feasible for sol in sweep_secrecy_lp(pmf, 9.0, rates, cands)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector = 8 * (len(cands) + 1)
        matrix = (pmf.points.size + 1) * vector
        assert len(cands) == 8191 and feasible == [True] * 17
        assert peak < matrix + 14 * vector

    def test_message_rate_gate_covers_the_sweep(self, small_pmf, small_cands):
        swept = list(sweep_secrecy_lp(small_pmf, 1.0, [0.0, 0.5, 1.0], small_cands))
        assert [s.feasible for s in swept] == [False] * 3
        assert list(sweep_secrecy_lp(small_pmf, 5.0, [], small_cands)) == []
        # A generator: a bad key rate raises when the sweep is read.
        swept = sweep_secrecy_lp(small_pmf, 5.0, [0.5, -0.1], small_cands)
        with pytest.raises(ValueError):
            next(swept)


@pytest.fixture(scope="module", params=[1.5, 2.0])
def greedy_and_lp(request):
    """The greedy plan at R = 1.5 or 2 (9 and 15 bins), its unfolded pmf and candidates."""
    plan = GreedyQuantizedScheme(request.param)
    pmf = build_quantized_pmf(plan.table)
    assert pmf.points.size == plan.table.prob.size  # every bin has mass: point i is row i
    return plan, pmf, enumerate_subset_candidates(pmf)


class TestDominatesGreedy:
    """Disclosing the index mod n is one subset mixture: class S weighted P(S)."""

    def test_residue_classes_are_a_mixture(self, greedy_and_lp):
        # Its key use is H(X | X mod n) and its value Eve's error less the
        # within-bin variances, which the LP's centroid pmf does not hold.
        plan, _, cands = greedy_and_lp
        table = plan.table
        within = float(np.dot(table.prob, table.within_var))
        for n in range(1, table.prob.size + 2):
            classes = np.mod(table.indices, n)
            rows = [np.flatnonzero(classes == r) for r in np.unique(classes)]
            masks = [int(np.sum(1 << i)) for i in rows]
            at = np.searchsorted(cands.masks, masks)
            assert cands.masks[at].tolist() == masks
            mass = np.array([table.prob[i].sum() for i in rows])
            assert float(mass @ cands.entropy_bits[at]) == pytest.approx(
                entropy_given_residue(table, n), abs=1e-12), n
            assert float(mass @ cands.scores[at]) == pytest.approx(
                eve_mmse_given_residue(table, n) - within, abs=1e-12), n

    def test_lp_at_least_greedy_at_equal_step(self, greedy_and_lp):
        # So at each rate where the plan fits, the LP is at least the plan's
        # mixture, and Bob decodes to lattice points, no better than centroids.
        plan, pmf, cands = greedy_and_lp
        var = STANDARD_SOURCE.variance
        lattice, centroid = (bob_distortion(plan.table, rule) for rule in ("lattice", "centroid"))
        bob_gap = (lattice - centroid) / var
        rates = np.arange(31) * 0.05
        checked = 0
        for rs, lp in zip(rates, sweep_secrecy_lp(pmf, plan.rate_bits, rates, cands)):
            point = plan.evaluate(rs)
            if point.feasible:
                assert lp.value / var - point.payoff.value - bob_gap >= -1e-12, rs
                checked += 1
        assert checked == rates.size


@pytest.fixture(scope="module")
def support9_mixtures():
    """The support-9 pmf of step 0.6, its candidates, and one sweep over three key rates."""
    pmf = build_quantized_pmf(build_bin_table(STANDARD_SOURCE, 0.6), max_support=9)
    cands = enumerate_subset_candidates(pmf)
    rates = (0.25, 0.75, 1.5)
    return pmf, cands, dict(zip(rates, sweep_secrecy_lp(pmf, 3.0, rates, cands)))


class TestMixtureMonteCarlo:
    """The LP's optimal mixture played out as a randomized disclosure.

    A symbol at point i reveals the subset S it falls in with probability
    w_S / P(S); the barycenter rows make these sum to 1 over the S that
    hold i.  Eve plays the pmf's mean on S, and the key hides which point
    of S it is.  Seeds were fixed before the first run.
    """

    @pytest.mark.parametrize("rs, seed", [(0.25, 21), (0.75, 22), (1.5, 23)])
    def test_draws_reach_the_value_and_key_use(self, support9_mixtures, rs, seed):
        pmf, cands, sols = support9_mixtures
        sol = sols[rs]
        active = np.flatnonzero(sol.weights > 0.0)
        k = pmf.points.size
        member = (cands.masks[active] >> np.arange(k)[:, None] & 1).astype(float)
        mass = pmf.probs @ member
        reveal = member * (sol.weights[active] / mass)  # P(S | point i), row i
        np.testing.assert_allclose(reveal.sum(axis=1), 1.0, rtol=0.0, atol=1e-8)
        eve_point = (pmf.probs * pmf.points) @ member / mass

        rng = np.random.default_rng(seed)
        n = 2**18
        point = rng.choice(k, size=n, p=pmf.probs)
        cum = np.cumsum(reveal, axis=1)
        u = rng.random(n) * cum[:, -1][point]
        subset = np.minimum((cum[point] <= u[:, None]).sum(axis=1), active.size - 1)

        err = np.square(pmf.points[point] - eve_point[subset])
        std_error = err.std(ddof=1) / math.sqrt(n)
        assert abs(err.mean() - sol.value) <= 4.0 * std_error
        ent = cands.entropy_bits[active]
        key_use = float(np.dot(sol.weights[active], ent))  # at most rs, as the solver checks
        freq = np.bincount(subset, minlength=active.size) / n
        assert float(np.dot(freq, ent)) == pytest.approx(key_use, abs=0.01)


class TestMixtureRegionOracle:
    """The LP's optimal mixtures scored by the finite-strategy evaluator, which shares no code
    with the LP: X = Y = the support point and U = the disclosed subset, with
    pmf[i, i, S] = w_S * p_i / P(S) for each point i of each active subset S.
    """

    def test_golden_instance_matches_key_use_and_value(self):
        # The instance of tests/golden/lp.txt: t = 1, R = 5, support 9, rs 0:2:0.25.
        table = build_bin_table(STANDARD_SOURCE, 1.0)
        pmf = build_quantized_pmf(table, max_support=9)
        cands = enumerate_subset_candidates(pmf)
        k = pmf.points.size
        key_rates = [0.25 * i for i in range(9)]
        for rs, sol in zip(key_rates, sweep_secrecy_lp(pmf, 5.0, key_rates, cands)):
            active = np.flatnonzero(sol.weights > 0.0)
            member = (cands.masks[active] >> np.arange(k)[:, None] & 1).astype(float)
            joint = np.zeros((k, k, active.size))
            joint[np.arange(k), np.arange(k)] = (member * pmf.probs[:, None]
                                                 * (sol.weights[active] / (pmf.probs @ member)))
            report = evaluate_finite_strategy(
                FiniteJoint(pmf.points, pmf.points, np.arange(active.size), joint), table.source)
            key_use = float(np.dot(sol.weights, cands.entropy_bits))
            assert report.i_xy_given_u == pytest.approx(key_use, abs=1e-12), rs
            assert float(report.payoff) == pytest.approx(
                sol.value / table.source.variance, abs=1e-12), rs
            assert report.i_x_uy == pytest.approx(pmf.entropy_bits(), abs=1e-12), rs
