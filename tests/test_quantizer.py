"""Quantizer tables, conditional entropies, and the entropy-step inverse.

Oracle values at step = sigma were computed with mpmath (40 digits)
from the exact truncated-Gaussian bin law and frozen here.
"""

import math

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings
from hypothesis import strategies as st

from secgauss import (
    STANDARD_SOURCE,
    BinTable,
    GaussianSource,
    QuantizerSpec,
    SolverError,
    binary_entropy,
    bob_distortion,
    build_bin_table,
    entropy_given_magnitude,
    entropy_given_residue,
    eve_mmse_given_magnitude,
    eve_mmse_given_residue,
    fold_bin_table,
    output_entropy,
    entropy_bits,
    quantize_index,
    step_size_for_entropy,
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
    return build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=12))


class TestQuantizeIndex:
    def test_round_half_to_even(self):
        assert quantize_index(0.5, 1.0, STANDARD_SOURCE) == 0
        assert quantize_index(1.5, 1.0, STANDARD_SOURCE) == 2
        assert quantize_index(-0.5, 1.0, STANDARD_SOURCE) == 0
        assert quantize_index(-1.5, 1.0, STANDARD_SOURCE) == -2

    def test_centered_on_source_mean(self):
        src = GaussianSource(2.0, 1.0)
        assert quantize_index(2.0, 0.5, src) == 0
        assert quantize_index(2.6, 0.5, src) == 1

    def test_plain_values(self):
        assert quantize_index(0.74, 0.5, STANDARD_SOURCE) == 1
        assert quantize_index(-1.6, 0.5, STANDARD_SOURCE) == -3


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
            assert unit_table.centroid[unit_table.row(i)] == -unit_table.centroid[
                unit_table.row(-i)
            ]

    def test_total_second_moment_is_source_power(self, unit_table):
        # Tails are folded, never dropped, so the law of total
        # expectation holds to machine precision.
        power = float(unit_table.prob @ unit_table.second_moment)
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_total_mean_is_source_mean(self, unit_table):
        mean = float(unit_table.prob @ unit_table.centroid)
        assert mean == pytest.approx(0.0, abs=1e-13)

    def test_arrays_read_only(self, unit_table):
        with pytest.raises(ValueError):
            unit_table.prob[0] = 0.5

    def test_row_bounds(self, unit_table):
        with pytest.raises(ValueError):
            unit_table.row(unit_table.max_index + 1)

    def test_wider_table_same_entropy(self):
        narrow = build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=12))
        wide = build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=1.0, max_index=40))
        assert output_entropy(wide) == pytest.approx(output_entropy(narrow), abs=1e-12)

    def test_shifted_source_symmetry(self):
        src = GaussianSource(0.3, 1.0)
        table = build_bin_table(src, QuantizerSpec(step=1.0, max_index=10))
        k = table.max_index
        for i in range(1, k + 1):
            assert table.prob[table.row(i)] == table.prob[table.row(-i)]
            # Centroids mirror around the source mean.
            left = table.centroid[table.row(-i)] - 0.3
            right = table.centroid[table.row(i)] - 0.3
            assert right == pytest.approx(-left, abs=1e-12)


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


class TestEveMmse:
    def test_mod3_oracle(self, unit_table):
        assert eve_mmse_given_residue(unit_table, 3) == pytest.approx(
            EVE_MOD3_UNIT, abs=1e-11
        )

    def test_magnitude_is_blind(self, unit_table):
        # Pairwise symmetry collapses Eve's estimate to the mean.
        assert eve_mmse_given_magnitude(unit_table) == pytest.approx(1.0, abs=1e-9)

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
        mean = float(folded.prob @ folded.centroid)
        power = float(folded.prob @ folded.second_moment)
        assert mean == pytest.approx(0.0, abs=1e-13)
        assert power == pytest.approx(1.0, abs=1e-12)

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
            table = build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=t))
            gap = abs(output_entropy(table) + math.log2(t) - HALF_LOG2_2PIE)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.01


class TestStepSizeForEntropy:
    @pytest.mark.parametrize("target", [1.2, 2.0, 2.7, 4.0])
    def test_hits_target_from_below(self, target):
        t = step_size_for_entropy(STANDARD_SOURCE, target)
        h = output_entropy(build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=t)))
        assert h <= target + 1e-9
        assert h >= target - 5e-4

    def test_monotone_in_target(self):
        t_coarse = step_size_for_entropy(STANDARD_SOURCE, 1.5)
        t_fine = step_size_for_entropy(STANDARD_SOURCE, 3.0)
        assert t_fine < t_coarse

    def test_scales_with_sigma(self):
        t1 = step_size_for_entropy(GaussianSource(0.0, 1.0), 2.0)
        t2 = step_size_for_entropy(GaussianSource(0.0, 4.0), 2.0)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-6)

    def test_explicit_bracket(self):
        t = step_size_for_entropy(STANDARD_SOURCE, 2.7, bracket=(0.1, 2.0))
        h = output_entropy(build_bin_table(STANDARD_SOURCE, QuantizerSpec(step=t)))
        assert h == pytest.approx(2.7, abs=5e-4)

    def test_unreachable_target_rejected(self):
        with pytest.raises((ValueError, SolverError)):
            step_size_for_entropy(STANDARD_SOURCE, -1.0)


# Reference implementations: the per-class loops that the vectorized
# grouping in secgauss.quantizer replaced, kept to pin its results.


def ref_fold_bin_table(table, max_index):
    k_old = table.max_index
    if max_index >= k_old:
        return table
    k = int(max_index)
    prob = np.zeros(2 * k + 1)
    centroid = np.zeros(2 * k + 1)
    second = np.zeros(2 * k + 1)
    mu = table.source.mean
    for j in range(k + 1):
        if j < k:
            rows = [table.row(j)]
        else:
            rows = [table.row(i) for i in range(k, k_old + 1)]
        p = float(sum(table.prob[r] for r in rows))
        if p > 0.0:
            c = float(sum(table.prob[r] * table.centroid[r] for r in rows)) / p
            s = float(sum(table.prob[r] * table.second_moment[r] for r in rows)) / p
        else:
            c = table.centroid[rows[0]]
            s = table.second_moment[rows[0]]
        prob[k + j] = p
        centroid[k + j] = c
        second[k + j] = s
        if j > 0:
            prob[k - j] = p
            centroid[k - j] = 2.0 * mu - c
            second[k - j] = 4.0 * mu * mu - 4.0 * mu * c + s
    indices = np.arange(-k, k + 1, dtype=np.int64)
    return BinTable(indices, prob, centroid, second, table.source, table.step)


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
    residues = np.mod(table.indices, modulus)
    acc = 0.0
    for u in range(int(modulus)):
        mask = residues == u
        pu = float(table.prob[mask].sum())
        if pu <= 0.0:
            continue
        acc += pu * entropy_bits(table.prob[mask] / pu)
    return acc


def ref_eve_mmse_given_residue(table, modulus):
    second = float(np.dot(table.prob, table.second_moment))
    residues = np.mod(table.indices, modulus)
    acc = 0.0
    for u in range(int(modulus)):
        mask = residues == u
        pu = float(table.prob[mask].sum())
        if pu <= 0.0:
            continue
        mean_u = float(np.dot(table.prob[mask], table.centroid[mask])) / pu
        acc += pu * mean_u * mean_u
    return max(second - acc, 0.0)


def ref_eve_mmse_given_magnitude(table):
    second = float(np.dot(table.prob, table.second_moment))
    acc = 0.0
    for u in range(table.max_index + 1):
        if u == 0:
            rows = [table.row(0)]
        else:
            rows = [table.row(u), table.row(-u)]
        pu = float(sum(table.prob[r] for r in rows))
        if pu <= 0.0:
            continue
        mean_u = float(sum(table.prob[r] * table.centroid[r] for r in rows)) / pu
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
    w = np.array(draw(st.lists(_WEIGHT, min_size=k + 1, max_size=k + 1)))
    if w.sum() == 0.0:
        w[0] = 1.0
    offset = np.array([0.0] + draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k)))
    spread = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=k + 1, max_size=k + 1)))
    half = w / (w[0] + 2.0 * w[1:].sum())
    prob = np.concatenate([half[:0:-1], half])
    centroid = mu + np.concatenate([-offset[:0:-1], offset])
    second = centroid**2 + np.concatenate([spread[:0:-1], spread])
    variance = float(prob @ second) - mu * mu
    indices = np.arange(-k, k + 1, dtype=np.int64)
    return BinTable(indices, prob, centroid, second, GaussianSource(mu, variance), 1.0)


class TestClassStatisticsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    def test_entropies(self, table):
        # Relative comparison: a conditional entropy that is tiny next to
        # H(output) must still be exact to its own size.
        got = entropy_given_magnitude(table)
        assert got == pytest.approx(ref_entropy_given_magnitude(table), rel=1e-10, abs=0.0)
        assert math.copysign(1.0, got) == 1.0
        for n in range(1, 2 * table.max_index + 3):
            got = entropy_given_residue(table, n)
            ref = ref_entropy_given_residue(table, n)
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0), n
            assert math.copysign(1.0, got) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    def test_eve_mmse(self, table):
        power = float(table.prob @ table.second_moment)
        tol = 1e-12 * max(1.0, power)
        assert eve_mmse_given_magnitude(table) == pytest.approx(
            ref_eve_mmse_given_magnitude(table), abs=tol
        )
        for n in range(1, 2 * table.max_index + 3):
            got = eve_mmse_given_residue(table, n)
            assert got == pytest.approx(ref_eve_mmse_given_residue(table, n), abs=tol), n
            assert math.isfinite(got)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_tables())
    def test_fold_is_bit_identical(self, table):
        # Same additions in the same order, so no tolerance.
        for k in range(1, table.max_index + 2):
            got, ref = fold_bin_table(table, k), ref_fold_bin_table(table, k)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.prob, ref.prob)
            assert np.array_equal(got.centroid, ref.centroid)
            assert np.array_equal(got.second_moment, ref.second_moment)

    def test_huge_modulus_needs_no_allocation(self, unit_table):
        # Every modulus past the table width discloses the index exactly.
        full = 2 * unit_table.max_index + 1
        assert entropy_given_residue(unit_table, 10**15) == 0.0
        assert eve_mmse_given_residue(unit_table, 10**15) == pytest.approx(
            eve_mmse_given_residue(unit_table, full), abs=1e-15
        )


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
    mu, sigma = source.mean, source.std
    alpha = (a - mu) / sigma if math.isfinite(a) else -math.inf
    beta = (b - mu) / sigma if math.isfinite(b) else math.inf
    mass = ref_interval_mass(alpha, beta)
    if mass < 1e-300:
        edge = a if alpha > 0.0 else b
        if not math.isfinite(edge):
            edge = b if math.isfinite(b) else a
        return 0.0, edge, edge * edge
    pdf_a, pdf_b = ref_pdf(alpha), ref_pdf(beta)
    first = (pdf_a - pdf_b) / mass
    excess = (alpha * pdf_a if math.isfinite(alpha) else 0.0) - (
        beta * pdf_b if math.isfinite(beta) else 0.0
    )
    var_std = max(1.0 + excess / mass - first * first, 0.0)
    mean = mu + sigma * first
    return mass, mean, mean * mean + source.variance * var_std


def ref_build_bin_table(source, spec):
    mu, t = source.mean, spec.step
    need = _SQRT2 * float(special.erfcinv(1e-12)) * source.std / t - 0.5
    k_max = max(int(spec.max_index), int(math.ceil(need)), 1)
    prob = np.zeros(2 * k_max + 1)
    centroid = np.zeros(2 * k_max + 1)
    second = np.zeros(2 * k_max + 1)
    for k in range(k_max + 1):
        lo = mu + (k - 0.5) * t
        hi = mu + (k + 0.5) * t if k < k_max else math.inf
        p, c, s = ref_truncated_moments(lo, hi, source)
        prob[k_max + k], centroid[k_max + k], second[k_max + k] = p, c, s
        if k > 0:
            prob[k_max - k] = p
            centroid[k_max - k] = 2.0 * mu - c
            second[k_max - k] = 4.0 * mu * mu - 4.0 * mu * c + s
    indices = np.arange(-k_max, k_max + 1, dtype=np.int64)
    return BinTable(indices, prob, centroid, second, source, t)


class TestBinTableMatchesReference:
    # scipy's erfc and exp may differ from math's in the last ulp.  A
    # narrow bin's mass is a difference of two tail masses, which scales
    # that ulp by up to about sigma/step (some 3000 here); the centroid
    # and second moment divide by the mass and reach 7 sigma in the
    # tails.  Worst gaps seen over 1500 random tables: 1.6e-12 relative
    # on mass, 6.4e-12 sigma on centroids and 1.4e-12 (mu^2 + c^2 +
    # sigma^2) on second moments.  The bounds sit at 6 to 14 times those.
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(1e-3, 3.0),
        st.floats(-5.0, 5.0).filter(lambda mu: mu != 0.0),
        st.floats(0.1, 4.0),
        st.integers(1, 40),
    )
    def test_array_table_matches_per_bin_loop(self, step, mu, variance, max_index):
        source = GaussianSource(mu, variance)
        spec = QuantizerSpec(step=step, max_index=max_index)
        got, ref = build_bin_table(source, spec), ref_build_bin_table(source, spec)
        assert np.array_equal(got.indices, ref.indices)
        np.testing.assert_allclose(got.prob, ref.prob, rtol=1e-11, atol=0.0)
        assert np.array_equal(got.prob == 0.0, ref.prob == 0.0)
        np.testing.assert_allclose(got.centroid, ref.centroid, rtol=0.0,
                                   atol=5e-11 * source.std)
        scale = mu * mu + ref.centroid**2 + variance
        assert (np.abs(got.second_moment - ref.second_moment) <= 2e-11 * scale).all()
