"""Quantizer tables, conditional entropies, and the entropy-step inverse.

Oracle values at step = sigma were computed with mpmath (40 digits)
from the exact truncated-Gaussian bin law and frozen here; within-bin
variances are checked against mpmath at 50 digits as the tests run.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secgauss import model, quantizer
from secgauss import (
    STANDARD_SOURCE,
    BinTable,
    GaussianSource,
    SolverError,
    bob_distortion,
    build_bin_table,
    entropy_given_magnitude,
    entropy_given_residue,
    eve_mmse_given_magnitude,
    eve_mmse_given_residue,
    fold_bin_table,
    output_entropy,
    step_size_for_entropy,
    truncated_moments,
)

# mpmath oracles at step = sigma = 1, mu = 0
H_UNIT = 2.104832654177668659
PROB_CENTER_UNIT = 0.38292492254802620728
H_GIVEN_MAG_UNIT = 0.61707507745197379272
H_GIVEN_MOD2_UNIT = 1.1048931403524484934
H_GIVEN_MOD3_UNIT = 0.53183560031596920136
D_LATTICE_UNIT = 0.083333333062269987494
D_CENTROID_UNIT = 0.076915184529407984263
EVE_MOD3_UNIT = 0.91796817096592129026
HALF_LOG2_2PIE = 2.0470955851806411027


@pytest.fixture(scope="module")
def unit_table():
    return build_bin_table(STANDARD_SOURCE, 1.0)


class TestBinTable:
    def test_probabilities_sum_to_one(self, unit_table):
        assert float(unit_table.prob.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_center_bin_mass(self, unit_table):
        assert unit_table.prob[unit_table.row(0)] == pytest.approx(
            PROB_CENTER_UNIT, abs=1e-13
        )

    def test_mirror_symmetry_exact(self, unit_table):
        k = unit_table.max_index
        for i in range(1, k + 1):
            assert unit_table.prob[unit_table.row(i)] == unit_table.prob[
                unit_table.row(-i)
            ]
            assert unit_table.offset[unit_table.row(i)] == -unit_table.offset[
                unit_table.row(-i)
            ]

    def test_total_second_moment_is_source_power(self, unit_table):
        # Tails are folded, never dropped, so the law of total variance
        # gives the source variance to machine precision.
        assert total_variance(unit_table) == pytest.approx(1.0, abs=1e-12)

    def test_total_mean_is_source_mean(self, unit_table):
        mean = float(unit_table.prob @ unit_table.offset)
        assert mean == pytest.approx(0.0, abs=1e-13)

    def test_arrays_read_only(self, unit_table):
        with pytest.raises(ValueError):
            unit_table.prob[0] = 0.5

    def test_indices_set_from_the_columns(self, unit_table):
        k = unit_table.max_index
        table = BinTable(unit_table.prob, unit_table.offset, unit_table.within_var,
                         unit_table.source, unit_table.step)
        assert table.max_index == k
        np.testing.assert_array_equal(table.indices, np.arange(-k, k + 1))
        with pytest.raises(ValueError):
            table.indices[0] = 0
        # A row column can no longer be passed, so it can no longer disagree.
        with pytest.raises(TypeError):
            BinTable(unit_table.prob, unit_table.offset, unit_table.within_var,
                     unit_table.source, unit_table.step, indices=np.arange(2 * k + 1))
        assert bob_distortion(table, "lattice") == bob_distortion(unit_table, "lattice")

    def test_row_bounds(self, unit_table):
        with pytest.raises(ValueError):
            unit_table.row(unit_table.max_index + 1)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="step must be finite and positive"):
            build_bin_table(STANDARD_SOURCE, step)

    def test_shifted_source_symmetry(self):
        src = GaussianSource(0.3, 1.0)
        table = build_bin_table(src, 1.0)
        k = table.max_index
        for i in range(1, k + 1):
            assert table.prob[table.row(i)] == table.prob[table.row(-i)]
            # Offsets from the source mean mirror about 0.
            left = table.offset[table.row(-i)]
            right = table.offset[table.row(i)]
            assert right == pytest.approx(-left, abs=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(
        st.floats(-1e15, 1e15),
        st.floats(-12.0, 12.0).map(lambda e: 10.0**e),
        st.floats(-3.0, math.log10(40.0)).map(lambda e: 10.0**e),
        st.integers(1, 20),
    )
    @example(0.3, 1e7, 100.0 / math.sqrt(1e7), 3)  # a tolerance blind to the variance fails these two
    @example(-1.1103405879995603, 40213331.8, 4155.258 / math.sqrt(40213331.8), 1)
    @example(1e15, 1e-12, 1.0, 2)
    def test_every_built_and_folded_table_is_symmetric(self, mu, variance, step, fold):
        # Symmetry is checked where every table is made, in the source's own
        # scale, so building or folding one never trips it.
        source = GaussianSource(mu, variance)
        table = build_bin_table(source, step * source.std)
        assert fold_bin_table(table, fold).max_index == min(fold, table.max_index)

    # Means at which bin edges in source units would overflow (1.5e308, -1e308)
    # or round together (1e16, 1e17, and 2**52, where bin 1's lower edge would
    # round to the mean).
    @pytest.mark.parametrize("mu, step", [(1.5e308, 1e308), (1.5e308, 4e307), (-1e308, 1e307),
                                          (1e16, 1.0), (1e17, 0.5), (2.0**52, 0.9)])
    def test_a_huge_mean_builds_the_centred_table(self, mu, step):
        # Offsets about the mean neither overflow nor round together at any
        # mean: the table and its mass-only entropy are the centred source's,
        # bit for bit, with no warning.
        source = GaussianSource(mu, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build_bin_table(source, step)
            entropy = quantizer._step_entropy(source, step)
        want = build_bin_table(STANDARD_SOURCE, step)
        for column in ("prob", "offset", "within_var"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert entropy == output_entropy(got) == quantizer._step_entropy(STANDARD_SOURCE, step)

    def test_tail_width_literal_is_erfcinv(self):
        # The package keeps the constant as a literal so as not to import scipy.
        assert quantizer._TAIL_STDS == math.sqrt(2.0) * float(special.erfcinv(1e-12))


class TestEntropies:
    def test_output_entropy_oracle(self, unit_table):
        assert output_entropy(unit_table) == pytest.approx(H_UNIT, abs=1e-11)

    def test_magnitude_oracle(self, unit_table):
        assert entropy_given_magnitude(unit_table) == pytest.approx(
            H_GIVEN_MAG_UNIT, abs=1e-11
        )

    def test_magnitude_matches_entropy_difference(self, unit_table):
        # H(Y | |Y|) = H(Y) - H(|Y|) since |Y| is a function of Y.
        k = unit_table.max_index
        mag = np.empty(k + 1)
        mag[0] = unit_table.prob[unit_table.row(0)]
        for u in range(1, k + 1):
            mag[u] = unit_table.prob[unit_table.row(u)] + unit_table.prob[
                unit_table.row(-u)
            ]
        h_mag = -float(np.sum(mag[mag > 0] * np.log2(mag[mag > 0])))
        assert entropy_given_magnitude(unit_table) == pytest.approx(
            output_entropy(unit_table) - h_mag, abs=1e-12
        )

    def test_residue_oracles(self, unit_table):
        assert entropy_given_residue(unit_table, 2) == pytest.approx(
            H_GIVEN_MOD2_UNIT, abs=1e-11
        )
        assert entropy_given_residue(unit_table, 3) == pytest.approx(
            H_GIVEN_MOD3_UNIT, abs=1e-11
        )

    def test_residue_edge_moduli(self, unit_table):
        # Modulus 1 discloses nothing; the full modulus discloses the index.
        assert entropy_given_residue(unit_table, 1) == pytest.approx(
            output_entropy(unit_table), abs=1e-12
        )
        full = 2 * unit_table.max_index + 1
        assert entropy_given_residue(unit_table, full) == pytest.approx(0.0, abs=1e-12)

    def test_conditioning_reduces_entropy(self, unit_table):
        h = output_entropy(unit_table)
        for n in range(1, 8):
            assert entropy_given_residue(unit_table, n) <= h + 1e-12

    def test_refinement_monotonicity(self, unit_table):
        # n mod 2N determines n mod N, so doubling the modulus can only
        # reduce the conditional entropy.
        for n in (1, 2, 3, 4):
            coarse = entropy_given_residue(unit_table, n)
            fine = entropy_given_residue(unit_table, 2 * n)
            assert fine <= coarse + 1e-12

    def test_bad_modulus_rejected(self, unit_table):
        with pytest.raises(ValueError):
            entropy_given_residue(unit_table, 0)


# The residue sweep's two paths for moduli above k on a small table: as
# configured, labelling bins 0..k (k below quantizer._PAIRS_FROM, as in every
# drawn table), and from k = 1 on, as bin pairs.
BOTH_PATHS = (quantizer._PAIRS_FROM, 1)


class TestDistortions:
    def test_lattice_oracle(self, unit_table):
        assert bob_distortion(unit_table, "lattice") == pytest.approx(
            D_LATTICE_UNIT, abs=1e-11
        )

    def test_centroid_oracle(self, unit_table):
        assert bob_distortion(unit_table, "centroid") == pytest.approx(
            D_CENTROID_UNIT, abs=1e-11
        )

    def test_centroid_never_worse(self, unit_table):
        # The centroid is the in-bin MMSE reconstruction.
        assert bob_distortion(unit_table, "centroid") <= bob_distortion(
            unit_table, "lattice"
        )

    def test_unknown_rule_rejected(self, unit_table):
        with pytest.raises(ValueError):
            bob_distortion(unit_table, "midpoint")

    def test_empty_bins_add_nothing_at_a_huge_step(self, monkeypatch):
        # Bin 0 holds all the mass; the empty outer bins keep offsets
        # near +-5e299, whose squared gaps would overflow to inf * 0.
        table = build_bin_table(STANDARD_SOURCE, 1e300)
        assert table.prob.tolist() == [0.0, 1.0, 0.0]
        assert bob_distortion(table, "lattice") == 1.0
        assert eve_mmse_given_magnitude(table) == 1.0
        # Modulus 1 labels bins 0..1; 2 labels them too or takes the massless
        # pair of bins -1 and 1; 3 and 4 leave every bin alone.  None may form
        # 0/0 or inf * 0.
        moduli = np.arange(1, table.prob.size + 2)
        for pairs_from in BOTH_PATHS:
            monkeypatch.setattr(quantizer, "_PAIRS_FROM", pairs_from)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entropies = entropy_given_residue(table, moduli)
                errors = eve_mmse_given_residue(table, moduli)
                assert [entropy_given_residue(table, int(n)) for n in moduli] == entropies.tolist()
                assert [eve_mmse_given_residue(table, int(n)) for n in moduli] == errors.tolist()
            assert np.isfinite(entropies).all() and np.isfinite(errors).all()
            assert errors[1] == 1.0, pairs_from


class TestEveMmse:
    def test_mod3_oracle(self, unit_table):
        assert eve_mmse_given_residue(unit_table, 3) == pytest.approx(
            EVE_MOD3_UNIT, abs=1e-11
        )

    def test_magnitude_is_blind(self, unit_table):
        # Pairwise symmetry collapses Eve's estimate to the mean.
        assert eve_mmse_given_magnitude(unit_table) == pytest.approx(1.0, abs=1e-9)

    def test_magnitude_identity_checked_in_the_source_scale(self):
        # A variance off by 1e-6 of itself is refused at 1e-8 as at 1 (an
        # absolute 1e-9 would let it pass at 1e-8), and a NaN is refused.
        for variance in (1e-8, 1.0, 1e8):
            table = build_bin_table(GaussianSource(0.3, variance), math.sqrt(variance))
            assert eve_mmse_given_magnitude(table) == pytest.approx(variance, rel=1e-12)
            for wrong in (table.within_var * (1.0 + 1e-6), table.within_var + math.nan):
                off = BinTable(table.prob, table.offset, wrong, table.source, table.step)
                with pytest.raises(SolverError, match="magnitude-only MMSE"):
                    eve_mmse_given_magnitude(off)

    def test_modulus_one_is_blind(self, unit_table):
        assert eve_mmse_given_residue(unit_table, 1) == pytest.approx(1.0, abs=1e-12)

    def test_full_modulus_matches_centroid_decoder(self, unit_table):
        # Knowing the index exactly leaves the within-bin variance.
        full = 2 * unit_table.max_index + 1
        assert eve_mmse_given_residue(unit_table, full) == pytest.approx(
            bob_distortion(unit_table, "centroid"), abs=1e-12
        )

    def test_mmse_decreasing_in_disclosure(self, unit_table):
        # More residue classes mean a finer disclosure on average; the
        # anchor cases bound every modulus in between.
        var = STANDARD_SOURCE.variance
        lo = bob_distortion(unit_table, "centroid")
        for n in range(1, 2 * unit_table.max_index + 2):
            v = eve_mmse_given_residue(unit_table, n)
            assert lo - 1e-12 <= v <= var + 1e-12


class TestFolding:
    def test_fold_preserves_global_moments(self, unit_table):
        folded = fold_bin_table(unit_table, 3)
        assert folded.max_index == 3
        assert float(folded.prob.sum()) == pytest.approx(1.0, abs=1e-12)
        mean = float(folded.prob @ folded.offset)
        assert mean == pytest.approx(0.0, abs=1e-13)
        assert total_variance(folded) == pytest.approx(1.0, abs=1e-12)

    def test_fold_reduces_entropy(self, unit_table):
        folded = fold_bin_table(unit_table, 3)
        assert output_entropy(folded) <= output_entropy(unit_table) + 1e-12

    def test_fold_keeps_symmetry(self, unit_table):
        folded = fold_bin_table(unit_table, 2)
        for i in (1, 2):
            assert folded.prob[folded.row(i)] == folded.prob[folded.row(-i)]

    def test_fold_to_same_width_is_identity(self, unit_table):
        same = fold_bin_table(unit_table, unit_table.max_index)
        assert np.array_equal(same.prob, unit_table.prob)

    def test_fold_wider_is_noop(self, unit_table):
        assert fold_bin_table(unit_table, unit_table.max_index + 1) is unit_table

    def test_fold_bad_index_rejected(self, unit_table):
        with pytest.raises(ValueError):
            fold_bin_table(unit_table, 0)


class TestCoverLimit:
    def test_gap_shrinks_toward_differential_entropy(self):
        gaps = []
        for denom in (16, 32, 64):
            t = 1.0 / denom
            table = build_bin_table(STANDARD_SOURCE, t)
            gap = abs(output_entropy(table) + math.log2(t) - HALF_LOG2_2PIE)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.01


class TestStepSizeForEntropy:
    @pytest.mark.parametrize("target", [1.2, 2.0, 2.7, 4.0])
    def test_hits_target_from_below(self, target):
        h = output_entropy(step_size_for_entropy(STANDARD_SOURCE, target))
        assert h <= target + 1e-9
        assert h >= target - 5e-4

    def test_monotone_in_target(self):
        t_coarse = step_size_for_entropy(STANDARD_SOURCE, 1.5).step
        t_fine = step_size_for_entropy(STANDARD_SOURCE, 3.0).step
        assert t_fine < t_coarse

    def test_scales_with_sigma(self):
        t1 = step_size_for_entropy(GaussianSource(0.0, 1.0), 2.0).step
        t2 = step_size_for_entropy(GaussianSource(0.0, 4.0), 2.0).step
        assert t2 == pytest.approx(2.0 * t1, rel=1e-6)

    def test_entropy_nonincreasing_in_step(self):
        # The search bisects without checking this; it holds exactly on
        # a fine log grid, tables of up to 14263 bins included, for the
        # tables' entropies and for the bin-mass entropies the search reads.
        steps = np.geomspace(1e-3, 16.0, 400)
        for entropy in (lambda source, t: output_entropy(build_bin_table(source, t)),
                        quantizer._step_entropy):
            h = [entropy(STANDARD_SOURCE, float(t)) for t in steps]
            assert (np.diff(h) <= 0.0).all()

    # The searches behind the golden files' T columns; their steps stay exact.
    @pytest.mark.parametrize("target, step", [
        (0.5, 3.456295133333952), (2.7, 0.6470195905216309),
        (6.0, 0.06458663940429688), (7.0, 0.03228950500488281),
    ])
    def test_builds_each_step_once(self, monkeypatch, target, step):
        # The candidates' entropies come from bin masses; one table is built, at the result.
        built, evaluated = [], []
        step_entropy = quantizer._step_entropy

        def build_spy(source, t):
            built.append(build_bin_table(source, t))
            return built[-1]

        def entropy_spy(source, t):
            evaluated.append(t)
            return step_entropy(source, t)

        monkeypatch.setattr(quantizer, "build_bin_table", build_spy)
        monkeypatch.setattr(quantizer, "_step_entropy", entropy_spy)
        table = step_size_for_entropy(STANDARD_SOURCE, target)
        assert table.step == step
        assert len(built) == 1 and built[0] is table
        assert len(evaluated) == len(set(evaluated)) <= 16
        assert step in evaluated
        fresh = build_bin_table(STANDARD_SOURCE, table.step)
        for column in ("indices", "prob", "offset", "within_var"):
            assert np.array_equal(getattr(table, column), getattr(fresh, column)), column

    @settings(deadline=None)
    @given(
        st.floats(-3.0, math.log10(40.0)).map(lambda e: 10.0**e),
        st.floats(-1e6, 1e6),
        st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    )
    @example(1e-3, 0.0, 1.0)  # the 14263-bin fine end
    @example(40.0, 1e6, 1e4)
    @example(2.0, 2.0**52 + 1.0, 1.0)  # bin 0's edges an ulp either side of a huge mean: erf pair
    @example(74.6, 0.0, 1.0)  # bin 1's mass about 8e-305, floored to 0
    @example(quantizer._TAIL_STDS / 1.5, 0.0, 1.0)  # the finest three-bin step; an ulp less has five
    @example(1e300, 0.0, 1.0)  # three bins, the outer two without mass
    def test_mass_entropy_is_the_table_entropy(self, step, mu, variance):
        source = GaussianSource(mu, variance)
        t = step * source.std
        assert quantizer._step_entropy(source, t) == output_entropy(build_bin_table(source, t))

    def test_search_steps_match_table_priced_search(self, monkeypatch):
        # The same bisection with every candidate priced by its built table
        # lands on the same step, bit for bit.
        sources = [GaussianSource(0.0, 1.0), GaussianSource(3.0, 0.25),
                   GaussianSource(-1e6, 1e-4), GaussianSource(1e3, 7.0)]
        targets = [0.25 * i for i in range(1, 29)] + [10.0, 12.0]
        got = [step_size_for_entropy(s, r).step for s in sources for r in targets]
        monkeypatch.setattr(quantizer, "_step_entropy",
                            lambda source, t: output_entropy(build_bin_table(source, t)))
        monkeypatch.setattr(quantizer, "build_bin_table", lambda source, t: t)  # the step alone
        assert got == [step_size_for_entropy(s, r) for s in sources for r in targets]

    # Steps no table is built for raise the same error from both.  At the
    # huge means, where bin edges in source units would round together
    # (1e17, 2**52) or overflow (1.5e308), neither raises, and the two agree.
    @pytest.mark.parametrize("mu, step", [
        (1e17, 0.5), (0.0, 1e-6), (0.0, math.inf), (0.0, math.nan), (0.0, 0.0), (0.0, 1e-320),
        (2.0**52, 0.9), (1.5e308, 1e308),
    ])
    def test_mass_entropy_raises_as_the_table_does(self, mu, step):
        source = GaussianSource(mu, 1.0)
        if mu != 0.0:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entropy = quantizer._step_entropy(source, step)
                assert entropy == output_entropy(build_bin_table(source, step))
            return
        with np.errstate(over="ignore"), pytest.raises(ValueError) as built:
            build_bin_table(source, step)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as evaluated:
            quantizer._step_entropy(source, step)
        assert type(evaluated.value) is type(built.value)
        assert str(evaluated.value) == str(built.value)

    # Too fine a step, a subnormal one (R = 1050) and one rounded to 0 all name the target.
    @pytest.mark.parametrize("target", [19.0, 30.0, 1050.0, 1100.0, 1e308])
    def test_target_beyond_the_bin_limit_named(self, target):
        message = f"an output entropy of {target} bits needs more than the 1000000 supported bins"
        with pytest.raises(ValueError, match=re.escape(message)):
            step_size_for_entropy(STANDARD_SOURCE, target)

    def test_unreachable_target_rejected(self):
        with pytest.raises((ValueError, SolverError)):
            step_size_for_entropy(STANDARD_SOURCE, -1.0)


def total_variance(table):
    """Source variance from a table: within-bin spread plus spread of the offsets."""
    mean = float(table.prob @ table.offset)
    return float(table.prob @ (table.within_var + (table.offset - mean) ** 2))


def centroids(table):
    """Each bin's conditional mean in source units, for the references below."""
    return table.source.mean + table.offset


# Reference implementations: the per-class loops that the vectorized
# grouping in secgauss.quantizer replaced, kept to pin its results.


def ref_fold_bin_table(table, max_index):
    k_old = table.max_index
    if max_index >= k_old:
        return table
    k = int(max_index)
    prob = np.zeros(2 * k + 1)
    offset = np.zeros(2 * k + 1)
    within_var = np.zeros(2 * k + 1)
    for j in range(k + 1):
        if j < k:
            rows = [table.row(j)]
        else:
            rows = [table.row(i) for i in range(k, k_old + 1)]
        p = float(sum(table.prob[r] for r in rows))
        # Centered sums: within-bin variance plus the spread of the
        # offsets about the merged offset.  A class without mass gets
        # offset 0 and no spread.
        c, v = 0.0, 0.0
        if p > 0.0:
            c = float(sum(table.prob[r] * table.offset[r] for r in rows)) / p
            # d * d, as numpy squares an array: a scalar ** 2 goes through
            # libm's pow, which can round the square the other way.
            dev = [table.offset[r] - c for r in rows]
            v = float(sum(table.prob[r] * (table.within_var[r] + d * d)
                          for r, d in zip(rows, dev))) / p
        prob[k + j] = p
        offset[k + j] = c
        within_var[k + j] = v
        if j > 0:
            prob[k - j] = p
            offset[k - j] = -c
            within_var[k - j] = v
    return BinTable(prob, offset, within_var, table.source, table.step)


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p) variable."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def ref_entropy_given_magnitude(table):
    acc = 0.0
    for k in range(1, table.max_index + 1):
        p_pos = float(table.prob[table.row(k)])
        p_neg = float(table.prob[table.row(-k)])
        pu = p_pos + p_neg
        if pu <= 0.0:
            continue
        acc += pu * binary_entropy(p_pos / pu)
    return acc


def ref_entropy_given_residue(table, modulus):
    """Exact for the table's float probabilities: each class summed at 50 digits."""
    residues = np.mod(table.indices, modulus)
    acc = mpmath.mpf(0)
    with mpmath.workdps(50):
        for u in range(int(modulus)):
            probs = [mpmath.mpf(float(x)) for x in table.prob[residues == u] if x > 0.0]
            pu = mpmath.fsum(probs)
            acc -= mpmath.fsum(x * mpmath.log(x / pu) for x in probs)
        return float(acc / mpmath.log(2))


def second_moment(table):
    """E[X^2] from a table, the raw form the centered tables replaced."""
    return float(np.dot(table.prob, table.within_var + centroids(table)**2))


def ref_eve_mmse_given_residue(table, modulus):
    second = second_moment(table)
    residues = np.mod(table.indices, modulus)
    acc = 0.0
    for u in range(int(modulus)):
        mask = residues == u
        pu = float(table.prob[mask].sum())
        if pu <= 0.0:
            continue
        mean_u = float(np.dot(table.prob[mask], centroids(table)[mask])) / pu
        acc += pu * mean_u * mean_u
    return max(second - acc, 0.0)


def ref_eve_mmse_given_magnitude(table):
    second = second_moment(table)
    acc = 0.0
    for u in range(table.max_index + 1):
        if u == 0:
            rows = [table.row(0)]
        else:
            rows = [table.row(u), table.row(-u)]
        pu = float(sum(table.prob[r] for r in rows))
        if pu <= 0.0:
            continue
        mean_u = float(sum(table.prob[r] * centroids(table)[r] for r in rows)) / pu
        acc += pu * mean_u * mean_u
    return max(second - acc, 0.0)


# Half-table bin weights: exact zeros, and masses small enough that an
# entropy computed as a difference of large entropies would lose them.
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))


@st.composite
def symmetric_tables(draw):
    """A hand-built table, symmetric about a nonzero-capable mean, any bin possibly empty."""
    k = draw(st.integers(1, 6))
    mu = draw(st.floats(-5.0, 5.0))
    w = draw(st.lists(_WEIGHT, min_size=k + 1, max_size=k + 1))
    offset = draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k))
    spread = draw(st.lists(st.floats(0.01, 2.0), min_size=k + 1, max_size=k + 1))
    return symmetric_table(mu, w, offset, spread)


def symmetric_table(mu, weights, offset, spread):
    """Bins 0..k weighted by `weights`, offsets [0] + `offset` from mu, mirrored about 0."""
    w, spread = np.array(weights, dtype=float), np.array(spread, dtype=float)
    if w.sum() == 0.0:
        w[0] = 1.0
    offset = np.array([0.0] + list(offset))
    half = w / (w[0] + 2.0 * w[1:].sum())
    prob = np.concatenate([half[:0:-1], half])
    offset = np.concatenate([-offset[:0:-1], offset])
    within_var = np.concatenate([spread[:0:-1], spread])
    variance = float(prob @ (within_var + offset**2))
    return BinTable(prob, offset, within_var, GaussianSource(mu, variance), 1.0)


# Each class of residues mod 1 and mod 5 is nearly all one bin, whose
# share p / P rounds away the other bins' 8e-12: log(p / P) was 3e-7
# (relative) off the entropy, where log1p(-rest / P) keeps every digit.
_NEAR_POINT_MASS_TABLE = symmetric_table(0.0, [1.0, 2e-12, 0.0, 0.0, 0.0, 2e-12], [0.0] * 5,
                                         [1.0] * 6)


# Folding to k = 2 squares bin 4's gap from its class offset, 0.7615905401174479,
# whose square libm's pow rounds one ulp away from the exact product d * d, and
# the within-bin variance keeps that ulp.  The offsets are centroids less the
# mean 1.9, but bins +-2's, set to 2.089175 so that some gap rounds so.
_POW_ROUNDING_TABLE = BinTable(
    np.array([0.17329951929302995, 0.0, 0.17225463380372533, 0.0, 1.4297557291688563e-05,
              0.1544315493459531, 0.0, 0.1544315493459531, 1.4297557291688563e-05, 0.0,
              0.17225463380372533, 0.0, 0.17329951929302995]),
    np.array([-0.5910195808388439, 0.0, -2.109669898092036, 0.0, -2.089175,
              -2.6698500547029584, 0.0, 2.6698500547029584, 2.089175, 0.0,
              2.109669898092036, 0.0, 0.5910195808388439]),
    np.array([0.5, 1.0, 2.0, 1.0, 0.8125, 1.4883873502437106, 1.0, 1.4883873502437106,
              0.8125, 1.0, 2.0, 1.0, 0.5]),
    GaussianSource(1.9, 5.178161433935129), 1.0,
)


class TestClassStatisticsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    @example(_NEAR_POINT_MASS_TABLE)
    def test_entropies(self, table):
        # Relative comparison: a conditional entropy that is tiny next to
        # H(output) must still be exact to its own size.
        got = entropy_given_magnitude(table)
        assert got == pytest.approx(ref_entropy_given_magnitude(table), rel=1e-10, abs=0.0)
        assert math.copysign(1.0, got) == 1.0
        refs = [ref_entropy_given_residue(table, n) for n in range(1, 2 * table.max_index + 3)]
        for pairs_from in BOTH_PATHS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quantizer, "_PAIRS_FROM", pairs_from)
                for n, ref in enumerate(refs, start=1):
                    got = entropy_given_residue(table, n)
                    assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (pairs_from, n)
                    assert math.copysign(1.0, got) == 1.0
                assert_array_calls_match_scalar(entropy_given_residue, table)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    def test_eve_mmse(self, table):
        tol = 1e-12 * max(1.0, second_moment(table))
        assert eve_mmse_given_magnitude(table) == pytest.approx(
            ref_eve_mmse_given_magnitude(table), abs=tol
        )
        refs = [ref_eve_mmse_given_residue(table, n) for n in range(1, 2 * table.max_index + 3)]
        for pairs_from in BOTH_PATHS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quantizer, "_PAIRS_FROM", pairs_from)
                for n, ref in enumerate(refs, start=1):
                    got = eve_mmse_given_residue(table, n)
                    assert got == pytest.approx(ref, abs=tol), (pairs_from, n)
                    assert math.isfinite(got)
                assert_array_calls_match_scalar(eve_mmse_given_residue, table)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    @example(_POW_ROUNDING_TABLE)
    def test_fold_is_bit_identical(self, table):
        # Same additions in the same order, so no tolerance.
        for k in range(1, table.max_index + 2):
            got, ref = fold_bin_table(table, k), ref_fold_bin_table(table, k)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.prob, ref.prob)
            assert np.array_equal(got.offset, ref.offset)
            assert np.array_equal(got.within_var, ref.within_var)

    def test_eve_mmse_at_rate7_width(self, rate7_scalars):
        # The drawn tables above have at most 13 bins; greedy_sweep runs 221-443.
        table, _ = rate7_scalars
        tol = 1e-12 * max(1.0, second_moment(table))
        moduli = [1, 2, 3, 7, 64, 221, 222, 442, 443]
        for n, got in zip(moduli, eve_mmse_given_residue(table, np.array(moduli))):
            assert got == pytest.approx(ref_eve_mmse_given_residue(table, n), abs=tol), n

    def test_both_statistics_at_the_rate7_path_boundaries(self, rate7_scalars):
        # k = 221: n <= k takes the mirror classes, k < n < W = 443 the bin
        # pairs, and n >= W leaves every bin alone.
        table, scalars = rate7_scalars
        k, width = table.max_index, table.prob.size
        tol = 1e-12 * max(1.0, second_moment(table))
        moduli = [1, 2, 3, k - 1, k, k + 1, k + 2, width - 1, width, width + 1]
        entropies = entropy_given_residue(table, np.array(moduli))
        errors = eve_mmse_given_residue(table, np.array(moduli))
        for n, got_h, got_e in zip(moduli, entropies, errors):
            ref_h = ref_entropy_given_residue(table, n)
            assert got_h == pytest.approx(ref_h, rel=1e-10, abs=0.0), n
            assert got_e == pytest.approx(ref_eve_mmse_given_residue(table, n), abs=tol), n
            if n <= width:
                assert got_h == scalars["entropy_given_residue"][n - 1]
                assert got_e == scalars["eve_mmse_given_residue"][n - 1]

    @pytest.mark.parametrize("stat", [entropy_given_residue, eve_mmse_given_residue])
    # With k + 1 = 222 labels per modulus n <= k at R = 7: one modulus a block
    # (1, 3, 221, 442, 443), two (444), three (886) and five (1329).  Moduli
    # k < n < W hold 111, 110, 110, 109, ..., 1, 1 pairs: one modulus a block
    # (1; 3 but for n = 440 with 441), two (221, the first block ending
    # before n = 224), four (442-444), eight (886) and twelve (1329) at first.
    @pytest.mark.parametrize("block", [1, 442, 443, 444, 886, 1329, 3, 221])
    def test_block_size_keeps_the_bits(self, monkeypatch, rate7_scalars, stat, block):
        # Blocks of one modulus, as in a scalar call, and of several
        # stacked moduli must all give the scalar calls' bits.
        table, scalars = rate7_scalars
        monkeypatch.setattr(quantizer, "_RESIDUE_BLOCK", block)
        assert np.array_equal(stat(table, np.arange(1, 444)), scalars[stat.__name__])

    @pytest.mark.parametrize("stat", [entropy_given_residue, eve_mmse_given_residue])
    def test_array_moduli_validated_like_scalars(self, unit_table, stat):
        for bad in ([3, 0, 2], [-1], [1.5, 2.0], [2.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="modulus must be an integer >= 1"):
                stat(unit_table, np.array(bad))
        for bad in (0, -3, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="modulus must be an integer >= 1"):
                stat(unit_table, bad)
        empty = stat(unit_table, np.array([], dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == np.float64
        full = 2 * unit_table.max_index + 1
        capped = stat(unit_table, np.array([10**15, full, 3], dtype=np.int64))
        assert capped.tolist() == [stat(unit_table, full)] * 2 + [stat(unit_table, 3)]
        square = stat(unit_table, np.array([[1, 2], [3, 4]]))
        assert square.tolist() == [[stat(unit_table, 1), stat(unit_table, 2)],
                                   [stat(unit_table, 3), stat(unit_table, 4)]]

    @pytest.mark.parametrize("stat", [entropy_given_residue, eve_mmse_given_residue])
    @pytest.mark.parametrize("column", ["prob", "offset"])
    def test_asymmetric_table_refused(self, unit_table, stat, column):
        # Both paths read half the table or half the pairs (n = 3 <= k and
        # n = 9 > k), so a table that is not its own mirror image is refused
        # when it is built; one within the 1e-12 tolerance is built and scored.
        def perturbed(by):
            cols = {name: getattr(unit_table, name).copy()
                    for name in ("prob", "offset", "within_var")}
            # Mass moved from bin 2 to bin 1, or bins 1 and 2 moved right.
            cols[column][8:10] += [by, -by] if column == "prob" else by
            return BinTable(cols["prob"], cols["offset"], cols["within_var"],
                            unit_table.source, 1.0)

        assert unit_table.max_index == 7
        message = {"prob": "bin table is not symmetric about the source mean",
                   "offset": "bin offsets are not symmetric about the source mean"}[column]
        with pytest.raises(SolverError, match=f"^{message}$"):
            perturbed(1e-9)
        table = perturbed(1e-13)
        for n in (3, 9):
            assert stat(table, n) == pytest.approx(stat(unit_table, n), rel=0.0, abs=1e-12)

    def test_huge_modulus_needs_no_allocation(self, unit_table):
        # Every modulus past the table width discloses the index exactly.
        full = 2 * unit_table.max_index + 1
        assert entropy_given_residue(unit_table, 10**15) == 0.0
        assert eve_mmse_given_residue(unit_table, 10**15) == pytest.approx(
            eve_mmse_given_residue(unit_table, full), abs=1e-15
        )


def assert_array_calls_match_scalar(stat, table):
    """An array of moduli gives the scalar calls' bits, sorted or not, with repeats."""
    moduli = np.arange(1, 2 * table.max_index + 3)
    scalars = np.array([stat(table, int(n)) for n in moduli])
    assert np.array_equal(stat(table, moduli), scalars)
    mixed = np.concatenate([moduli[::-1], moduli[::2], [1, 1]])
    assert np.array_equal(stat(table, mixed), scalars[mixed - 1])
    assert all(math.copysign(1.0, x) == 1.0 for x in stat(table, mixed))


@pytest.fixture(scope="module")
def rate7_scalars():
    """The R = 7 table (443 bins) and both statistics at moduli 1..443, one call each."""
    table = step_size_for_entropy(STANDARD_SOURCE, 7.0)
    assert table.prob.size == 443
    moduli = range(1, table.prob.size + 1)
    return table, {stat.__name__: np.array([stat(table, n) for n in moduli])
                   for stat in (entropy_given_residue, eve_mmse_given_residue)}


# Reference for the array bin table: the per-bin loop over scalar
# truncated moments (math.erf/erfc and math.exp) that build_bin_table
# replaced with one array call.

_SQRT2 = math.sqrt(2.0)


def ref_upper_tail(x):
    return 0.5 * math.erfc(x / _SQRT2)


def ref_interval_mass(alpha, beta):
    if alpha >= 0.0:
        return max(0.0, ref_upper_tail(alpha) - ref_upper_tail(beta))
    if beta <= 0.0:
        return max(0.0, ref_upper_tail(-beta) - ref_upper_tail(-alpha))
    return 0.5 * (math.erf(beta / _SQRT2) + math.erf(-alpha / _SQRT2))


def ref_pdf(x):
    if not math.isfinite(x) or abs(x) > 40.0:
        return 0.0
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def ref_truncated_moments(a, b, source):
    """Mass and conditional mean of the source on (a, b]."""
    mu, sigma = source.mean, source.std
    alpha = (a - mu) / sigma if math.isfinite(a) else -math.inf
    beta = (b - mu) / sigma if math.isfinite(b) else math.inf
    mass = ref_interval_mass(alpha, beta)
    if mass < 1e-300:
        edge = a if alpha > 0.0 else b
        if not math.isfinite(edge):
            edge = b if math.isfinite(b) else a
        return 0.0, edge
    return mass, mu + sigma * (ref_pdf(alpha) - ref_pdf(beta)) / mass


def bin_edges(source, step, k, k_max):
    """Endpoints of bin k >= 0 as build_bin_table forms them."""
    hi = source.mean + (k + 0.5) * step if k < k_max else math.inf
    return source.mean + (k - 0.5) * step, hi


def ref_build_bin_table(source, t):
    """Indices, masses and offsets of the table, one bin at a time, about 0."""
    centred = GaussianSource(0.0, source.variance)
    need = _SQRT2 * float(special.erfcinv(1e-12)) * source.std / t - 0.5
    k_max = max(int(math.ceil(need)), 1)
    prob = np.zeros(2 * k_max + 1)
    offset = np.zeros(2 * k_max + 1)
    for k in range(k_max + 1):
        p, d = ref_truncated_moments(*bin_edges(centred, t, k, k_max), centred)
        prob[k_max + k], offset[k_max + k] = p, d
        if k > 0:
            prob[k_max - k] = p
            offset[k_max - k] = -d
    return np.arange(-k_max, k_max + 1, dtype=np.int64), prob, offset


def mp_within_var(a, b, source):
    """Variance of the source on the float interval (a, b], at 50 digits."""
    with mpmath.workdps(50):
        mu, sigma = mpmath.mpf(source.mean), mpmath.sqrt(source.variance)
        alpha = (mpmath.mpf(a) - mu) / sigma
        beta = (mpmath.mpf(b) - mu) / sigma if math.isfinite(b) else mpmath.inf
        if alpha >= 0:
            mass = mpmath.ncdf(-alpha) - mpmath.ncdf(-beta)
        else:
            mass = mpmath.ncdf(beta) - mpmath.ncdf(alpha)
        pdf_a, pdf_b = mpmath.npdf(alpha), mpmath.npdf(beta)
        first = (pdf_a - pdf_b) / mass
        excess = alpha * pdf_a - (beta * pdf_b if math.isfinite(b) else 0)
        return float(sigma**2 * (1 + excess / mass - first**2))


class TestBinTableMatchesReference:
    # The masses come from math.erf/erfc on the same arguments as the
    # loop's, so they are the same bits.  numpy's exp may differ from
    # math's in the last ulp, and the offset divides a difference of
    # two densities by the mass, reaching 7 sigma in the tails; the bound
    # on offsets is the one set when the masses came from scipy (worst
    # gap then 6.4e-12 sigma over 1500 random tables).
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(1e-3, 3.0),
        st.floats(-5.0, 5.0).filter(lambda mu: mu != 0.0),
        st.floats(0.1, 4.0),
    )
    def test_array_table_matches_per_bin_loop(self, step, mu, variance):
        source = GaussianSource(mu, variance)
        got = build_bin_table(source, step)
        indices, prob, offset = ref_build_bin_table(source, step)
        assert np.array_equal(got.indices, indices)
        assert np.array_equal(got.prob, prob)
        np.testing.assert_allclose(got.offset, offset, rtol=0.0, atol=5e-11 * source.std)

    # The rounding of alpha = (a - mu)/sigma alone moves a bin's width by
    # up to 2 * 8 * 1.1e-16 / step relative, 1.8e-10 at step 1e-5 sigma,
    # so the variance can be no closer to the exact one than about 4e-10.
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-5.0, math.log10(3.0)).map(lambda e: 10.0**e),
        st.floats(-7.2, 7.2),
        st.floats(-1e6, 1e6),
        st.floats(0.25, 4.0),
    )
    def test_within_var_matches_mpmath(self, step, center, mean_stds, variance):
        # A bin as build_bin_table forms it: steps down to 1e-5 sigma,
        # centers out to the folded tails, means up to 1e6 sigma.
        source = GaussianSource(mean_stds * math.sqrt(variance), variance)
        t = step * source.std
        k = round(center / step)
        a, b = bin_edges(source, t, k, k + 1)
        got = truncated_moments(a, b, source).variance
        assert got == pytest.approx(mp_within_var(a, b, source), rel=1e-9, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-3, 3.0), st.floats(-5.0, 5.0), st.floats(0.1, 4.0), st.floats(0.0, 1.0))
    def test_table_rows_match_mpmath(self, step, mu, variance, where):
        # The centre bin, one inner bin, the last finite bin and the folded tail.
        source = GaussianSource(mu, variance)
        table = build_bin_table(source, step)
        k_max = table.max_index
        for k in {0, round(where * k_max), k_max - 1, k_max}:
            a, b = bin_edges(source, step, k, k_max)
            want = mp_within_var(a, b, source)
            for row in (table.row(k), table.row(-k)):
                assert table.within_var[row] == pytest.approx(want, rel=1e-9, abs=0.0), k

    def test_fine_steps_keep_the_uniform_variance(self):
        # Inside the tails a bin's variance is step^2/12 up to a relative
        # -(3 m^2 + 2) step^2 / 60 at m standard deviations, under 1e-9 here.
        t = 3e-5
        table = build_bin_table(STANDARD_SOURCE, t)
        inner = slice(1, -1)
        mse = float(table.prob[inner] @ table.within_var[inner])
        assert mse / (float(table.prob[inner].sum()) * t * t / 12.0) == pytest.approx(
            1.0, rel=1e-9, abs=0.0)


# Reference for truncated_moments over a partition: each interval's two
# endpoint tails and densities taken separately, with the empty-interval
# replacements always applied, as before shared edges were taken once.


def ref_two_tail_moments(a, b, source):
    """Mass, mean and variance arrays on the intervals (a, b], two tails per interval."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    mu, sigma = source.mean, source.std
    alpha, beta = (a - mu) / sigma, (b - mu) / sigma
    qa, qb = model.normal_cdf(-np.abs(alpha)), model.normal_cdf(-np.abs(beta))
    mass = np.maximum(np.where(alpha >= 0.0, qa - qb, qb - qa), 0.0).ravel()
    mid = np.flatnonzero((alpha < 0.0) & (beta > 0.0))
    mass[mid] = [0.5 * (math.erf(hi / _SQRT2) + math.erf(-lo / _SQRT2))
                 for lo, hi in zip(alpha.take(mid).tolist(), beta.take(mid).tolist())]
    mass = mass.reshape(alpha.shape)
    empty = mass < 1e-300
    divisor = np.where(empty, 1.0, mass)
    pdf_a, pdf_b = model.normal_pdf(alpha), model.normal_pdf(beta)
    first = (pdf_a - pdf_b) / divisor
    excess = (np.where(np.isfinite(alpha), alpha, 0.0) * pdf_a
              - np.where(np.isfinite(beta), beta, 0.0) * pdf_b)
    var_std = np.maximum(1.0 + excess / divisor - first * first, 0.0).ravel()
    narrow = np.flatnonzero((beta - alpha < model._NARROW_WIDTH) & ~empty)
    for start in range(0, narrow.size, model._NARROW_BLOCK):
        rows = narrow[start:start + model._NARROW_BLOCK]
        half = 0.5 * (beta.take(rows) - alpha.take(rows))
        var_std[rows] = model._narrow_variance(alpha.take(rows) + half, half)
    edge = np.where(alpha > 0.0, a, b)
    return (np.where(empty, 0.0, mass), np.where(empty, edge, mu + sigma * first),
            np.where(empty, 0.0, source.variance * var_std.reshape(mass.shape)))


def ref_two_tail_table(source, t):
    """build_bin_table's table from the two-tail moments, about 0."""
    centred = GaussianSource(0.0, source.variance)
    k_max = max(int(math.ceil(quantizer._TAIL_STDS * source.std / t - 0.5)), 1)
    k = np.arange(k_max + 1)
    hi = np.where(k < k_max, (k + 0.5) * t, math.inf)
    return quantizer._mirrored(*ref_two_tail_moments((k - 0.5) * t, hi, centred), source, t)


def intervals(draw, size):
    """`size` intervals anywhere from 60 sigma below to 60 above, some with infinite ends."""
    a = np.array(draw(st.lists(st.floats(-60.0, 60.0), min_size=size, max_size=size)))
    width = np.array(draw(st.lists(st.floats(-6.0, 1.5), min_size=size, max_size=size)))
    b = a + 10.0 ** width
    for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        a[i] = -math.inf
    for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        b[i] = math.inf
    return a, b


class TestSharedEdgesKeepTheBits:
    """truncated_moments takes each shared edge once; the two-tail form is the reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(-4.0, math.log10(3.0)).map(lambda e: 10.0**e),
        st.sampled_from([0.0, 3.0, -1e3, 1e6]) | st.floats(-5.0, 5.0),
        st.floats(0.1, 4.0),
    )
    def test_bin_table_columns(self, step, mu, variance):
        source = GaussianSource(mu, variance)
        t = step * source.std
        got, ref = build_bin_table(source, t), ref_two_tail_table(source, t)
        for column in ("indices", "prob", "offset", "within_var"):
            assert np.array_equal(getattr(got, column), getattr(ref, column)), column

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 12), st.floats(-5.0, 5.0), st.floats(0.1, 4.0))
    def test_separate_intervals(self, data, size, mu, variance):
        # Intervals that share no edge, as arrays and one at a time.
        source = GaussianSource(mu, variance)
        sigma = source.std
        a, b = intervals(data.draw, size)
        a, b = mu + sigma * a, mu + sigma * b
        assume(np.all(a < b))
        got, ref = truncated_moments(a, b, source), ref_two_tail_moments(a, b, source)
        for i, field in enumerate(("mass", "mean", "variance")):
            assert np.array_equal(getattr(got, field), ref[i]), field
        for j in range(size):
            one = truncated_moments(float(a[j]), float(b[j]), source)
            assert (one.mass, one.mean, one.variance) == tuple(float(r[j]) for r in ref)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-45.0, 45.0), min_size=2, max_size=40, unique=True),
           st.booleans(), st.booleans())
    def test_partition(self, edges, open_below, open_above):
        # Adjacent intervals over sorted edges, possibly open at either end.
        e = np.sort(np.array(edges))
        if open_below:
            e[0] = -math.inf
        if open_above:
            e[-1] = math.inf
        got, ref = truncated_moments(e[:-1], e[1:], STANDARD_SOURCE), ref_two_tail_moments(
            e[:-1], e[1:], STANDARD_SOURCE)
        for i, field in enumerate(("mass", "mean", "variance")):
            assert np.array_equal(getattr(got, field), ref[i]), field
