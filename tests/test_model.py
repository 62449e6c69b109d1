"""Core model: payoff algebra, Gaussian helpers, truncated moments.

Reference values were frozen from high-precision evaluation (mpmath,
30+ digits) and are independent of the library code paths.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secgauss import (
    STANDARD_SOURCE,
    BinTable,
    CandidateSet,
    FiniteJoint,
    GaussianSource,
    GreedyQuantizedScheme,
    LpSolution,
    PayoffValue,
    QuantizedPmf,
    RatePair,
    SimConfig,
    build_bin_table,
    build_quantized_pmf,
    differential_entropy_bits,
    distortion_rate,
    entropy_bits,
    fold_bin_table,
    normal_cdf,
    normal_pdf,
    payoff,
    truncated_moments,
)
from secgauss import model

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
        with pytest.raises(ValueError, match="NaN"):  # an infeasible LP's value
            PayoffValue(math.nan)

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
        assert normal_pdf(0.0) == pytest.approx(PDF_AT_ZERO, abs=1e-15)
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf(1.0) == pytest.approx(PHI_AT_ONE, abs=1e-14)

    @given(st.floats(-8.0, 8.0))
    def test_cdf_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_far_tail_pdf_flushes(self):
        assert normal_pdf(50.0) == 0.0
        assert normal_cdf(50.0) == 1.0

    def test_array_forms_match_scalar(self):
        xs = np.linspace(-5.0, 5.0, 41)
        pdfs = normal_pdf(xs)
        cdfs = normal_cdf(xs)
        for i, x in enumerate(xs):
            assert type(normal_pdf(float(x))) is float
            assert pdfs[i] == pytest.approx(normal_pdf(float(x)), abs=1e-15)
            assert cdfs[i] == pytest.approx(normal_cdf(float(x)), abs=1e-15)

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
        # E[X^2] = 1 on the half line, so the variance is 1 - mean^2.
        assert m.variance == pytest.approx(1.0 - NEG_HALF_NORMAL_MEAN**2, abs=1e-12)

    def test_full_line(self):
        src = GaussianSource(1.5, 4.0)
        m = truncated_moments(-math.inf, math.inf, src)
        assert m.mass == pytest.approx(1.0, abs=1e-14)
        assert m.mean == pytest.approx(1.5, abs=1e-13)
        assert m.variance == pytest.approx(4.0, abs=1e-12)

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
        # Law of total variance: within-part spread plus spread of the part means.
        spread = sum(part.mass * (part.variance + (part.mean - whole.mean) ** 2)
                     for part in (left, right))
        assert spread == pytest.approx(whole.mass * whole.variance, abs=1e-13)

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
            assert (m.mass[i], m.mean[i], m.variance[i]) == (
                one.mass, one.mean, one.variance
            )
        assert m.mass[:5].sum() == pytest.approx(1.0, abs=1e-15)
        assert m.mass[5] == pytest.approx(1.0, abs=1e-15)

    def test_underflowed_entries_pinned_per_entry(self):
        m = truncated_moments(
            np.array([50.0, -0.5, -math.inf]), np.array([51.0, 0.5, -50.0]), STANDARD_SOURCE
        )
        assert m.mass[0] == 0.0 and m.mean[0] == 50.0 and m.variance[0] == 0.0
        assert m.mass[2] == 0.0 and m.mean[2] == -50.0 and m.variance[2] == 0.0
        assert m.mass[1] == pytest.approx(truncated_moments(-0.5, 0.5, STANDARD_SOURCE).mass)
        assert m.mean[1] == pytest.approx(0.0, abs=1e-15)

    def test_any_bad_entry_rejected(self):
        for a, b in (([0.0, 1.0], [1.0, 1.0]), ([0.0, 2.0], [1.0, 1.0]),
                     ([0.0, math.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, math.nan])):
            with pytest.raises(ValueError):
                truncated_moments(np.array(a), np.array(b), STANDARD_SOURCE)

    def test_narrow_blocks_match_one_shot(self):
        # Narrow and wide intervals mixed, with narrow ones filling more than one block.
        rng = np.random.default_rng(5)
        n = 3 * model._NARROW_BLOCK + 17
        alpha = rng.uniform(-6.0, 6.0, n)
        beta = alpha + rng.uniform(1e-5, 1.0, n)
        narrow = beta - alpha < model._NARROW_WIDTH
        assert model._NARROW_BLOCK < narrow.sum() < n
        half = 0.5 * (beta - alpha)[narrow]
        one_shot = model._narrow_variance(alpha[narrow] + half, half)
        m = truncated_moments(alpha, beta, STANDARD_SOURCE)
        assert np.array_equal(m.variance[narrow], one_shot)

    def test_zero_dim_input_returns_floats(self):
        m = truncated_moments(np.float64(-1.0), np.array(0.5), STANDARD_SOURCE)
        assert all(type(v) is float for v in (m.mass, m.mean, m.variance))
        assert m == truncated_moments(-1.0, 0.5, STANDARD_SOURCE)


def mp_upper_tail(x):
    """P(xi > x) for a standard normal xi, as an mpmath number."""
    return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def mp_interval_mass(a, b):
    """P(a < xi <= b) at 50 digits, from the form that keeps every digit."""
    with mpmath.workdps(50):
        if a >= 0.0:
            return mp_upper_tail(a) - mp_upper_tail(b)
        if b <= 0.0:
            return mp_upper_tail(-b) - mp_upper_tail(-a)
        return (mpmath.erf(mpmath.mpf(b) / mpmath.sqrt(2))
                - mpmath.erf(mpmath.mpf(a) / mpmath.sqrt(2))) / 2


def cdf_rel_bound(x):
    """normal_cdf's documented relative error at x (x**2 from the rounding of x/sqrt(2))."""
    return 1e-15 + 2e-16 * x * x


endpoints = st.one_of(st.floats(-37.0, 37.0), st.sampled_from([-math.inf, math.inf]))


class TestGaussianMassesMatchMpmath:
    # Out to 37 sigma, the last point before the lower tail is subnormal.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-37.0, 37.0), min_size=1, max_size=6))
    @example([-37.0, -22.0, -1e-300, 0.0, 8.0, 37.0])
    def test_normal_cdf(self, xs):
        cdfs = normal_cdf(np.array(xs))
        for x, cdf in zip(xs, cdfs):
            assert cdf == normal_cdf(x)  # the same bits alone as inside an array
            with mpmath.workdps(50):
                exact = 1 - mp_upper_tail(x) if x > 0 else mp_upper_tail(-x)
                assert abs(mpmath.mpf(cdf) - exact) <= cdf_rel_bound(x) * exact, x

    # A one-sided mass is a difference of two upper tails P(xi > |a|) and
    # P(xi > |b|), each as exact as normal_cdf, so its error is bounded by
    # those tails, not by the mass: a narrow interval far out has a mass
    # much smaller than its tails.  Across 0 it is a sum of two erf terms.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(endpoints, endpoints), min_size=1, max_size=6))
    @example([(-math.inf, math.inf), (-math.inf, -37.0), (37.0, math.inf), (-1e-10, 1e-10),
              (-3.0, 0.0), (0.0, 2.0), (-0.5, 0.25), (36.0, 36.5), (-9.0, -8.999999)])
    def test_truncated_moments_mass(self, pairs):
        pairs = [(min(p), max(p)) for p in pairs if p[0] != p[1]]
        assume(pairs)
        a, b = map(np.array, zip(*pairs))
        masses = truncated_moments(a, b, STANDARD_SOURCE).mass
        for (lo, hi), mass in zip(pairs, masses):
            assert mass == truncated_moments(lo, hi, STANDARD_SOURCE).mass
            with mpmath.workdps(50):
                exact = mp_interval_mass(lo, hi)
                one_sided = lo >= 0.0 or hi <= 0.0
                bound = 1e-15 * exact + one_sided * sum(
                    cdf_rel_bound(x) * mp_upper_tail(abs(x)) for x in (lo, hi) if math.isfinite(x))
                if mass == 0.0:  # an underflowed interval, emptied by design
                    assert exact < 1e-300 + bound, (lo, hi)
                else:
                    assert abs(mpmath.mpf(mass) - exact) <= bound, (lo, hi)


class TestEntropyHelpers:
    def test_uniform(self):
        assert entropy_bits([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_zero_padding_ignored(self):
        assert entropy_bits([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_bits([0.5, -0.5])

    def test_rounding_negatives_count_as_zero(self):
        assert entropy_bits([0.5, 0.5, -1e-13]) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            entropy_bits([math.nan, 0.5])

    def test_binary_entropy_points(self):
        assert entropy_bits([0.5, 0.5]) == 1.0
        assert entropy_bits([0.11, 0.89]) == pytest.approx(0.49992, abs=5e-6)
        # A point mass has entropy +0, never -0.
        for point_mass in ([0.0, 1.0], [1.0, 0.0], [1.0]):
            assert math.copysign(1.0, entropy_bits(point_mass)) == 1.0

    @given(st.floats(0.0, 1.0))
    def test_binary_entropy_symmetry(self, p):
        assert entropy_bits([p, 1.0 - p]) == pytest.approx(entropy_bits([1.0 - p, p]), abs=1e-12)


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


def _value_type_cases():
    """(type, the caller's arrays by field, the other fields) for each value type."""
    half = np.array([0.25, 0.5, 0.25])
    return {
        "BinTable": (BinTable, {"prob": half.copy(),
                                "centroid": np.array([-1.5, 0.0, 1.5]),
                                "within_var": np.full(3, 0.1)},
                     {"source": STANDARD_SOURCE, "step": 1.0}),
        "QuantizedPmf": (QuantizedPmf, {"points": np.array([-1.0, 0.0, 1.0]),
                                        "probs": half.copy()}, {}),
        "CandidateSet": (CandidateSet, {"masks": np.array([1, 2, 3]),
                                        "entropy_bits": np.array([0.0, 0.0, 1.0]),
                                        "scores": np.array([0.0, 0.0, 0.25])}, {}),
        "LpSolution": (LpSolution, {"weights": half.copy()},
                       {"value": 0.5, "slack_rs": 0.0}),
        "FiniteJoint": (FiniteJoint, {"x_points": np.array([-1.0, 1.0]),
                                      "y_points": np.array([-1.0, 1.0]),
                                      "u_points": np.array([0.0]),
                                      "pmf": np.full((2, 2, 1), 0.25)}, {}),
    }


@pytest.mark.parametrize("name", sorted(_value_type_cases()))
def test_value_types_keep_read_only_copies(name):
    cls, arrays, rest = _value_type_cases()[name]
    value = cls(**arrays, **rest)
    kept = {field: getattr(value, field).copy() for field in arrays}
    for field, arr in arrays.items():
        assert arr.flags.writeable, field
        arr[...] = 7
        np.testing.assert_array_equal(getattr(value, field), kept[field])
        assert not getattr(value, field).flags.writeable, field


# The field of each value type that holds probabilities (or, for
# CandidateSet, nonnegative columns); NaN must fail its checks.
_NONNEGATIVE_FIELDS = {"BinTable": "prob", "QuantizedPmf": "probs", "FiniteJoint": "pmf",
                       "CandidateSet": "scores"}


@pytest.mark.parametrize("name", sorted(_NONNEGATIVE_FIELDS))
def test_value_types_reject_nan_probabilities(name):
    cls, arrays, rest = _value_type_cases()[name]
    arrays[_NONNEGATIVE_FIELDS[name]].flat[0] = math.nan
    with pytest.raises(ValueError):
        cls(**arrays, **rest)


def test_pmf_rule_makes_one_clipped_read_only_copy():
    values = np.array([0.5, 0.5 + 1e-13, -1e-13])
    p = model._pmf(values)
    assert p is not values and p.base is None
    assert not p.flags.writeable and p.dtype == np.float64
    np.testing.assert_array_equal(p, [0.5, 0.5 + 1e-13, 0.0])
    for bad in ([0.5, 0.5, -1e-11], [0.5, 0.5 + 1e-9], [math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(ValueError):
            model._pmf(bad)


def _integer_sites():
    """Each library input that must be a whole number, with the message naming it."""
    table = build_bin_table(STANDARD_SOURCE, 0.5)

    def sim(**kw):
        fields = dict(scheme="sign_pad", scenario="weak", rates=RatePair(4.0, 1.0), step=0.5,
                      n_symbols=10, seed=1)
        return SimConfig(**{**fields, **kw})

    return {
        "n_max": (lambda v: GreedyQuantizedScheme(2.7, n_max=v), "n_max must be an integer"),
        "max_index": (lambda v: fold_bin_table(table, v), "max_index must be an integer"),
        "n_symbols": (lambda v: sim(n_symbols=v), "n_symbols must be an integer"),
        "seed": (lambda v: sim(seed=v), "seed must be a 64-bit unsigned integer"),
        "max_support": (lambda v: build_quantized_pmf(table, v), "max_support must be an odd"),
    }


@pytest.mark.parametrize("value", [math.inf, math.nan, 9.5], ids=["inf", "nan", "9.5"])
@pytest.mark.parametrize("site", sorted(_integer_sites()))
def test_integer_inputs_refuse_what_is_not_whole(site, value):
    # Every site refuses through one rule, model._whole: int() overflows on
    # inf and fails on NaN, and 9.5 must not pass as 9 (a 9-point fold).
    build, message = _integer_sites()[site]
    with pytest.raises(ValueError, match=message):
        build(value)
