"""Core model: payoff algebra, Gaussian helpers, truncated moments.

Reference values were frozen from high-precision evaluation (mpmath,
30+ digits) and are independent of the library code paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgauss import (
    STANDARD_SOURCE,
    GaussianSource,
    PayoffValue,
    RatePair,
    binary_entropy,
    differential_entropy_bits,
    distortion_rate,
    entropy_bits,
    normal_cdf,
    normal_pdf,
    payoff,
    sequence_payoff,
    std_normal,
    truncated_moments,
)

# mpmath, 30 digits
HALF_LOG2_2PIE = 2.0470955851806411027
PHI_AT_ONE = 0.84134474606854294859
NEG_HALF_NORMAL_MEAN = -0.79788456080286535588
PDF_AT_ZERO = 0.39894228040143267794

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestPayoff:
    def test_hand_value(self):
        # x=0, y=1, z=2: (4 - 1) / 1
        assert payoff(0.0, 1.0, 2.0, STANDARD_SOURCE) == 3.0

    def test_variance_normalization(self):
        src = GaussianSource(0.0, 4.0)
        assert payoff(0.0, 1.0, 2.0, src) == 0.75

    @given(finite, finite, finite)
    def test_swap_antisymmetry(self, x, y, z):
        a = payoff(x, y, z, STANDARD_SOURCE)
        b = payoff(x, z, y, STANDARD_SOURCE)
        assert a == pytest.approx(-b, abs=1e-6)

    @given(finite, finite, finite, st.floats(-100, 100))
    def test_translation_invariance(self, x, y, z, c):
        a = payoff(x, y, z, STANDARD_SOURCE)
        b = payoff(x + c, y + c, z + c, STANDARD_SOURCE)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-7)

    @given(finite, finite, finite, st.floats(0.01, 100))
    def test_scale_invariance(self, x, y, z, s):
        # Scaling all points by s and the variance by s**2 cancels.
        a = payoff(x, y, z, GaussianSource(0.0, 1.0))
        b = payoff(s * x, s * y, s * z, GaussianSource(0.0, s * s))
        assert b == pytest.approx(a, rel=1e-9, abs=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            payoff(math.nan, 0.0, 0.0, STANDARD_SOURCE)
        with pytest.raises(ValueError):
            payoff(0.0, math.inf, 0.0, STANDARD_SOURCE)

    def test_sequence_payoff_is_mean_of_singles(self):
        xs = [0.0, 1.0, -2.0]
        ys = [0.5, 1.0, -1.0]
        zs = [1.0, 0.0, 0.0]
        singles = [payoff(x, y, z, STANDARD_SOURCE) for x, y, z in zip(xs, ys, zs)]
        assert sequence_payoff(xs, ys, zs, STANDARD_SOURCE) == pytest.approx(
            np.mean(singles), abs=1e-15
        )

    def test_sequence_payoff_shape_checks(self):
        with pytest.raises(ValueError):
            sequence_payoff([1.0], [1.0, 2.0], [1.0], STANDARD_SOURCE)
        with pytest.raises(ValueError):
            sequence_payoff([], [], [], STANDARD_SOURCE)


class TestRateTypes:
    def test_rate_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.0)
        with pytest.raises(ValueError):
            RatePair(1.0, -0.1)

    def test_payoff_value_cap(self):
        assert float(PayoffValue(1.0)) == 1.0
        with pytest.raises(ValueError):
            PayoffValue(1.0 + 1e-6)

    def test_payoff_value_accepts_negative(self):
        # Eve may beat Bob; only the upper cap is structural.
        assert float(PayoffValue(-3.0)) == -3.0


class TestDistortionRate:
    def test_zero_rate_is_variance(self):
        src = GaussianSource(1.0, 2.5)
        assert distortion_rate(0.0, src) == 2.5

    def test_known_point(self):
        assert distortion_rate(1.0, STANDARD_SOURCE) == 0.25

    @given(st.floats(0.0, 20.0))
    def test_one_extra_bit_quarters(self, r):
        d0 = distortion_rate(r, STANDARD_SOURCE)
        d1 = distortion_rate(r + 1.0, STANDARD_SOURCE)
        assert d1 == pytest.approx(d0 / 4.0, rel=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            distortion_rate(-0.5, STANDARD_SOURCE)


class TestGaussianHelpers:
    def test_differential_entropy_standard(self):
        assert differential_entropy_bits(STANDARD_SOURCE) == pytest.approx(
            HALF_LOG2_2PIE, abs=1e-12
        )

    def test_differential_entropy_scaling(self):
        src = GaussianSource(3.0, 16.0)
        expect = HALF_LOG2_2PIE + 0.5 * math.log2(16.0)
        assert differential_entropy_bits(src) == pytest.approx(expect, abs=1e-12)

    def test_std_normal_frozen_points(self):
        pdf0, cdf0 = std_normal(0.0)
        assert pdf0 == pytest.approx(PDF_AT_ZERO, abs=1e-15)
        assert cdf0 == pytest.approx(0.5, abs=1e-15)
        _, cdf1 = std_normal(1.0)
        assert cdf1 == pytest.approx(PHI_AT_ONE, abs=1e-14)

    @given(st.floats(-8.0, 8.0))
    def test_cdf_symmetry(self, x):
        _, up = std_normal(x)
        _, down = std_normal(-x)
        assert up + down == pytest.approx(1.0, abs=1e-14)

    def test_far_tail_pdf_flushes(self):
        pdf, cdf = std_normal(50.0)
        assert pdf == 0.0
        assert cdf == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            std_normal(math.nan)

    def test_array_forms_match_scalar(self):
        xs = np.linspace(-5.0, 5.0, 41)
        pdfs = normal_pdf(xs)
        cdfs = normal_cdf(xs)
        for i, x in enumerate(xs):
            p, c = std_normal(float(x))
            assert pdfs[i] == pytest.approx(p, abs=1e-15)
            assert cdfs[i] == pytest.approx(c, abs=1e-15)

    def test_cdf_pdf_consistency_by_difference(self):
        # cdf increments match the density to first order.
        h = 1e-6
        for x in (-2.0, -0.3, 0.0, 1.2, 3.1):
            mid = normal_pdf(x)
            slope = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
            assert slope == pytest.approx(mid, rel=1e-6)


class TestTruncatedMoments:
    def test_half_line(self):
        m = truncated_moments(-math.inf, 0.0, STANDARD_SOURCE)
        assert m.mass == pytest.approx(0.5, abs=1e-15)
        assert m.mean == pytest.approx(NEG_HALF_NORMAL_MEAN, abs=1e-13)
        assert m.second_moment == pytest.approx(1.0, abs=1e-12)

    def test_full_line(self):
        src = GaussianSource(1.5, 4.0)
        m = truncated_moments(-math.inf, math.inf, src)
        assert m.mass == pytest.approx(1.0, abs=1e-14)
        assert m.mean == pytest.approx(1.5, abs=1e-13)
        assert m.second_moment == pytest.approx(4.0 + 1.5**2, abs=1e-12)

    def test_deep_tail_degenerates_to_edge(self):
        m = truncated_moments(50.0, 51.0, STANDARD_SOURCE)
        assert m.mass == 0.0
        assert m.mean == 50.0

    @given(
        st.floats(-4.0, 4.0),
        st.floats(0.05, 4.0),
        st.floats(0.05, 4.0),
    )
    @settings(max_examples=60)
    def test_partition_additivity(self, a, w1, w2):
        mid, b = a + w1, a + w1 + w2
        left = truncated_moments(a, mid, STANDARD_SOURCE)
        right = truncated_moments(mid, b, STANDARD_SOURCE)
        whole = truncated_moments(a, b, STANDARD_SOURCE)
        assert left.mass + right.mass == pytest.approx(whole.mass, abs=1e-14)
        assert left.mass * left.mean + right.mass * right.mean == pytest.approx(
            whole.mass * whole.mean, abs=1e-14
        )
        assert (
            left.mass * left.second_moment + right.mass * right.second_moment
        ) == pytest.approx(whole.mass * whole.second_moment, abs=1e-13)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=60)
    def test_translation_to_source_mean(self, a, w):
        src = GaussianSource(0.7, 1.0)
        base = truncated_moments(a, a + w, STANDARD_SOURCE)
        moved = truncated_moments(a + 0.7, a + w + 0.7, src)
        assert moved.mass == pytest.approx(base.mass, abs=1e-14)
        assert moved.mean == pytest.approx(base.mean + 0.7, abs=1e-12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            truncated_moments(1.0, 1.0, STANDARD_SOURCE)
        with pytest.raises(ValueError):
            truncated_moments(2.0, 1.0, STANDARD_SOURCE)

    def test_array_entries_match_scalar_calls(self):
        # Infinite endpoints inside an array, every branch of the mass.
        src = GaussianSource(0.3, 2.0)
        a = np.array([-math.inf, -2.0, -0.5, 0.3, 1.0, -math.inf])
        b = np.array([-2.0, -0.5, 0.3, 1.0, math.inf, math.inf])
        m = truncated_moments(a, b, src)
        for i in range(a.size):
            one = truncated_moments(float(a[i]), float(b[i]), src)
            assert (m.mass[i], m.mean[i], m.second_moment[i]) == (
                one.mass, one.mean, one.second_moment
            )
        assert m.mass[:5].sum() == pytest.approx(1.0, abs=1e-15)
        assert m.mass[5] == pytest.approx(1.0, abs=1e-15)

    def test_underflowed_entries_pinned_per_entry(self):
        m = truncated_moments(
            np.array([50.0, -0.5, -math.inf]), np.array([51.0, 0.5, -50.0]), STANDARD_SOURCE
        )
        assert m.mass[0] == 0.0 and m.mean[0] == 50.0 and m.second_moment[0] == 2500.0
        assert m.mass[2] == 0.0 and m.mean[2] == -50.0 and m.second_moment[2] == 2500.0
        assert m.mass[1] == pytest.approx(truncated_moments(-0.5, 0.5, STANDARD_SOURCE).mass)
        assert m.mean[1] == pytest.approx(0.0, abs=1e-15)

    def test_any_bad_entry_rejected(self):
        for a, b in (([0.0, 1.0], [1.0, 1.0]), ([0.0, 2.0], [1.0, 1.0]),
                     ([0.0, math.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, math.nan])):
            with pytest.raises(ValueError):
                truncated_moments(np.array(a), np.array(b), STANDARD_SOURCE)

    def test_zero_dim_input_returns_floats(self):
        m = truncated_moments(np.float64(-1.0), np.array(0.5), STANDARD_SOURCE)
        assert all(type(v) is float for v in (m.mass, m.mean, m.second_moment))
        assert m == truncated_moments(-1.0, 0.5, STANDARD_SOURCE)


class TestEntropyHelpers:
    def test_uniform(self):
        assert entropy_bits([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_zero_padding_ignored(self):
        assert entropy_bits([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_bits([0.5, -0.5])

    def test_binary_entropy_points(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=5e-6)

    @given(st.floats(0.0, 1.0))
    def test_binary_entropy_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestGaussianSource:
    def test_std(self):
        assert GaussianSource(0.0, 9.0).std == 3.0

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            GaussianSource(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianSource(0.0, -1.0)
        with pytest.raises(ValueError):
            GaussianSource(math.nan, 1.0)
