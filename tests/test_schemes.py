"""Closed-form payoffs, the grid certificate, the sign-split integral,
and the greedy quantized scheme.

Sign-split references were frozen from an mpmath double quadrature of
the posterior-entropy integral (absolute error below 1e-6), and again at
32 digits from an independent form of it (see SIGN_SPLIT_BITS).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secgauss import (
    STANDARD_SOURCE,
    CorrelationTriple,
    FiniteJoint,
    GaussianSource,
    GreedyQuantizedScheme,
    InfeasibleError,
    PayoffPoint,
    PayoffValue,
    RatePair,
    asymptotic_quantization_bound,
    entropy_given_residue,
    evaluate_finite_strategy,
    jointly_gaussian_payoff,
    optimal_high_key_payoff,
    output_entropy,
    sign_split_key_requirement,
    verify_jointly_gaussian_grid,
    weak_eavesdropper_payoff,
)
from secgauss import quantizer as quantizer_module
from secgauss import schemes as schemes_module
from secgauss.schemes import _binary_entropy_of_logits

WEAK_AT_2P7 = 0.97631692864827502996  # 1 - 2^-5.4, mpmath
PI_E_HALF = 4.2698671113367835327

# r -> I(X; sign | X-hat, magnitude), mpmath double quadrature
SIGN_SPLIT_REFS = {
    0.25: 0.19979455,
    0.5: 0.34442059,
    1.0: 0.54855682,
    2.0: 0.77817973,
    4.0: 0.94482769,
    8.0: 0.99655288,
}

# I(X; V | U) at the `verify --suite sign_split` grid and off it, to 20
# digits, from mpmath at 32 digits in a form independent of the module's:
# I = 1 - 2c int_0^inf phi(c b) h(b) db with c = s / (2 rho), where
# h(b) = E log2(1 + exp(-Z)), Z ~ N(b^2/2, b^2), equals the mean of
# H(sigmoid(Z)) because Z is a consistent log-likelihood ratio.  The inner
# integral is tanh-sinh over the whole line (no window); the outer is
# 24-node Gauss-Legendre panels in b on [0, 40], of width 1 and of width 2,
# which agree to 25 digits.  The quadrature must match within 1e-13.
SIGN_SPLIT_BITS = {
    0.0: 0.0,
    0.25: 0.19979454581810566192,
    0.5: 0.34442059323481291593,
    1.0: 0.54855682492202886402,
    2.0: 0.77817972944075788998,
    4.0: 0.94482768567536005024,
    8.0: 0.99655288311854593138,
    10.0: 0.99913822183799949012,
}
SIGN_SPLIT_OFF_GRID_BITS = {
    0.1: 0.08975957566325935454,
    0.75: 0.45749844538130631085,
    1.5: 0.68453089521301298735,
    3.0: 0.88954378163531694499,
    6.0: 0.98621126151474856465,
    12.0: 0.99978455547603672393,
    20.0: 0.99999915841983257485,
}

# The same rates as computed by the nested QUADPACK quadrature this
# module used before, kept as a record; its own error reached 5.6e-11.
QUADPACK_BITS = {
    0.0: 0.0,
    0.25: 0.19979454582570488,
    0.5: 0.3444205932347648,
    1.0: 0.5485568249265476,
    2.0: 0.7781797294427327,
    4.0: 0.944827685675844,
    8.0: 0.9965528831045577,
    10.0: 0.9991382218345025,
}
QUADPACK_OFF_GRID_BITS = {
    0.1: 0.0897595756632592,
    0.75: 0.45749844538598183,
    1.5: 0.684530895215908,
    3.0: 0.8895437816362873,
    6.0: 0.9862112614587849,
    12.0: 0.9997845554751624,
    20.0: 0.9999991584198291,
}
PINNED_SIGN_SPLIT = SIGN_SPLIT_BITS | SIGN_SPLIT_OFF_GRID_BITS


class TestClosedForms:
    def test_weak_value(self):
        v = weak_eavesdropper_payoff(RatePair(2.7, 0.01))
        assert float(v) == pytest.approx(WEAK_AT_2P7, abs=1e-12)

    def test_weak_ignores_key_amount(self):
        a = weak_eavesdropper_payoff(RatePair(1.5, 0.01))
        b = weak_eavesdropper_payoff(RatePair(1.5, 3.0))
        assert float(a) == float(b)

    def test_weak_needs_positive_key(self):
        with pytest.raises(InfeasibleError):
            weak_eavesdropper_payoff(RatePair(1.5, 0.0))

    def test_weak_zero_rate(self):
        assert float(weak_eavesdropper_payoff(RatePair(0.0, 1.0))) == 0.0

    @pytest.mark.parametrize(
        "r,rs",
        [(1.0, 1.0), (2.0, 0.25), (2.0, 0.5), (0.5, 2.0), (2.7, 0.7)],
    )
    def test_jointly_gaussian_min_form(self, r, rs):
        v = float(jointly_gaussian_payoff(RatePair(r, rs)))
        assert v == pytest.approx(1.0 - 2.0 ** (-2.0 * min(r, rs)), abs=1e-15)

    def test_high_key_matches_weak(self):
        v = float(optimal_high_key_payoff(RatePair(2.7, 1.0)))
        assert v == pytest.approx(WEAK_AT_2P7, abs=1e-12)

    def test_high_key_needs_full_bit(self):
        with pytest.raises(InfeasibleError):
            optimal_high_key_payoff(RatePair(2.7, 0.999))

    def test_asymptotic_bound_value(self):
        v = float(asymptotic_quantization_bound(2.7))
        assert v == pytest.approx(1.0 - PI_E_HALF * 2.0 ** (-5.4), abs=1e-12)

    def test_asymptotic_bound_below_ideal(self):
        # The quantization penalty pi*e/2 > 1 keeps the bound under the
        # unconstrained payoff at every rate.
        for r in (0.5, 1.0, 3.0, 6.0):
            assert float(asymptotic_quantization_bound(r)) < 1.0 - 2.0 ** (-2.0 * r)


class TestCorrelationTriple:
    def test_valid_triple(self):
        t = CorrelationTriple(0.9, 0.9, 0.9)
        assert t.validity() >= 0.0

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            CorrelationTriple(0.9, 0.9, -0.9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorrelationTriple(1.1, 0.0, 0.0)


def reference_grid_certificate(rates, step):
    """The grid certificate as one Python step per rho_xy value.

    The loop that `verify_jointly_gaussian_grid` replaced with its
    one-pass search, kept as the reference it must match bit for bit.
    """
    r, rs = rates.rate, rates.key_rate
    n = round(1.0 / step)
    axis_pos = np.minimum(np.arange(n + 1) * step, 1.0)
    axis_full = np.clip(np.arange(-n, n + 1) * step, -1.0, 1.0)
    xu, yu = np.meshgrid(axis_pos, axis_full, indexing="ij")
    xu2, yu2 = xu * xu, yu * yu

    best_g = -math.inf
    best = None
    for a in axis_pos:
        det = 1.0 - a * a - xu2 - yu2 + 2.0 * a * xu * yu
        valid = det > 1e-15
        with np.errstate(divide="ignore", invalid="ignore"):
            rs_need = 0.5 * np.log2((1.0 - xu2) * (1.0 - yu2) / det)
            r_need = 0.5 * np.log2((1.0 - yu2) / det)
        feasible = valid & (rs_need <= rs + 1e-12) & (r_need <= r + 1e-12)
        if not feasible.any():
            continue
        g = np.where(feasible, a * a - xu2, -math.inf)
        flat = int(np.argmax(g))
        if g.flat[flat] > best_g:
            best_g = float(g.flat[flat])
            i, j = np.unravel_index(flat, g.shape)
            best = CorrelationTriple(float(a), float(axis_pos[i]), float(axis_full[j]))
    return best_g, best


# (r, rs) -> (g_max, rho_xy, rho_xu, rho_yu) at step 0.005, the twelve
# pairs of `verify --suite thm2_grid`, recorded from the reference loop.
THM2_GRID_RESULTS = {
    (0.5, 0.25): (0.2916, 0.54, 0.0, -0.065),
    (0.5, 0.5): (0.49702499999999994, 0.705, 0.0, -0.075),
    (0.5, 1.0): (0.49702499999999994, 0.705, 0.0, -0.075),
    (0.5, 2.0): (0.49702499999999994, 0.705, 0.0, -0.075),
    (1.0, 0.25): (0.2916, 0.54, 0.0, -0.065),
    (1.0, 0.5): (0.49702499999999994, 0.705, 0.0, -0.075),
    (1.0, 1.0): (0.748225, 0.865, 0.0, -0.045),
    (1.0, 2.0): (0.748225, 0.865, 0.0, -0.045),
    (2.0, 0.25): (0.2916, 0.54, 0.0, -0.065),
    (2.0, 0.5): (0.49702499999999994, 0.705, 0.0, -0.075),
    (2.0, 1.0): (0.748225, 0.865, 0.0, -0.045),
    (2.0, 2.0): (0.931225, 0.965, 0.0, -0.08),
}

rates_0_3 = st.floats(0.0, 3.0)
grid_steps = st.sampled_from([0.05, 0.02, 0.01])


class TestGridCertificate:
    @settings(max_examples=40, deadline=None)
    @given(rates_0_3, rates_0_3, grid_steps)
    @example(0.0, 1.3, 0.05)
    @example(1.3, 0.0, 0.05)
    @example(0.0, 0.0, 0.05)
    @example(3.0, 3.0, 0.05)
    @example(0.0, 0.0, 0.005)
    @example(3.0, 3.0, 0.005)
    @example(0.0, 1.3, 0.005)
    @example(1.3, 0.0, 0.005)
    def test_matches_reference_loop(self, r, rs, step):
        rates = RatePair(r, rs)
        g, triple = verify_jointly_gaussian_grid(rates, step)
        assert (g, triple) == reference_grid_certificate(rates, step)
        assert g >= 0.0 and triple.validity() >= -1e-12

    @pytest.mark.parametrize("k", [10, 18, 19])
    def test_root_just_below_a_grid_point(self, k):
        # In the column (rho_xu, rho_yu) = (0, 0) the root a+ lies 1e-14 below
        # the grid point k*step, so floor(a+/step) = k - 1, yet the 1e-12 slacks
        # let rho_xy = k*step pass: the window must start one point above floor.
        a_k = np.arange(0.0, 1.0 + 0.025, 0.05)[k]
        m = -0.5 * math.log2(1.0 - (a_k - 1e-14) ** 2)
        g, triple = verify_jointly_gaussian_grid(RatePair(m, m), 0.05)
        assert (g, triple) == reference_grid_certificate(RatePair(m, m), 0.05)
        assert triple.rho_xy == a_k

    @pytest.mark.parametrize("r, rs", sorted(THM2_GRID_RESULTS))
    def test_coarsest_grid_has_more_columns_than_the_seed(self, r, rs):
        # Step 0.05, the coarsest accepted, gives 21 * 41 = 861 columns; the
        # seed, the row rho_xu = 0 that sets the level, is 41 of them and
        # leaves the rest to prune.
        rates = RatePair(r, rs)
        assert verify_jointly_gaussian_grid(rates, 0.05) == reference_grid_certificate(rates, 0.05)

    @pytest.mark.parametrize("r, rs", [(0.0, 0.0), (0.0, 1.3), (1.3, 0.0), (1.0, 1.0)])
    def test_one_column_seed_matches_the_reference(self, r, rs):
        # The pairs where a one-column seed once failed its test and fell
        # back to every column (the first three) or passed and pruned (1, 1).
        # With a zero rate the seed row's level is 0, so every row gets a
        # bound and every column whose bound is >= 0 is scanned; at (1, 1)
        # the level prunes.  Both must give the reference's result.
        rates = RatePair(r, rs)
        assert verify_jointly_gaussian_grid(rates, 0.05) == reference_grid_certificate(rates, 0.05)

    # 201 * 401 + 1 is more than the column count of the finest step, 0.005.
    @pytest.mark.parametrize("block", [1, 7, 8191, 201 * 401 + 1])
    def test_block_size_keeps_the_bits(self, monkeypatch, block):
        # The bounds are computed in blocks of whole rows, each entry by one
        # expression, so any block size (ragged last block, one row, all rows
        # at once) must give the default's bits.  A block smaller than a row
        # means one row: block 1 at step 0.005 gives 201 one-row blocks of
        # 401 columns, not 80,601 one-column blocks.  Block 1 skips that
        # step all the same.
        cases = [(RatePair(r, rs), step) for r, rs in [(0.5, 0.25), (1.0, 1.0), (0.0, 1.3)]
                 for step in (0.05, 0.02)]
        if block > 1:
            cases.append((RatePair(2.0, 2.0), 0.005))
        default = [verify_jointly_gaussian_grid(rates, step) for rates, step in cases]
        monkeypatch.setattr(schemes_module, "_GRID_BLOCK", block)
        assert [verify_jointly_gaussian_grid(rates, step) for rates, step in cases] == default

    @pytest.mark.parametrize("r, rs", sorted(THM2_GRID_RESULTS))
    def test_thm2_grid_pairs_match_recorded_reference(self, r, rs):
        g, triple = verify_jointly_gaussian_grid(RatePair(r, rs), step=0.005)
        assert (g, triple.rho_xy, triple.rho_xu, triple.rho_yu) == THM2_GRID_RESULTS[r, rs]

    def test_known_point(self):
        g, triple = verify_jointly_gaussian_grid(RatePair(1.0, 1.0), step=0.01)
        assert g == pytest.approx(0.75, abs=0.02)
        assert triple.validity() >= -1e-12

    def test_deterministic(self):
        g1, t1 = verify_jointly_gaussian_grid(RatePair(2.0, 0.5), step=0.02)
        g2, t2 = verify_jointly_gaussian_grid(RatePair(2.0, 0.5), step=0.02)
        assert g1 == g2
        assert t1 == t2

    def test_key_constraint_binds(self):
        g_small, _ = verify_jointly_gaussian_grid(RatePair(2.0, 0.25), step=0.01)
        g_big, _ = verify_jointly_gaussian_grid(RatePair(2.0, 2.0), step=0.01)
        assert g_small < g_big

    def test_step_validation(self):
        with pytest.raises(ValueError):
            verify_jointly_gaussian_grid(RatePair(1.0, 1.0), step=0.2)
        with pytest.raises(ValueError, match="divide 1"):
            verify_jointly_gaussian_grid(RatePair(1.0, 1.0), step=0.03)

    def test_one_call_holds_one_bound_array_and_keeps_nothing(self):
        # bound is the only full-grid array; top is recomputed per scan and
        # nothing is cached, so the peak stays near one float per grid entry
        # and the call gives back all it allocated.
        n = 200
        limit = 2.5 * 8 * (n + 1) * (2 * n + 1)
        verify_jointly_gaussian_grid(RatePair(1.0, 0.5), 0.05)  # numpy's first-call setup
        tracemalloc.start()
        try:
            verify_jointly_gaussian_grid(RatePair(2.0, 2.0), 0.005)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"peak {peak} bytes, limit {limit:.0f}"
        assert retained < 64 * 1024, f"{retained} bytes retained"

    def test_bounds_only_the_rows_that_can_reach_the_level(self):
        # At (2, 2) the level from the row rho_xu = 0 is 0.931225, so only
        # the 53 rows with 1 - rho_xu^2 >= level get a bound: the peak stays
        # below 1.5 full-grid arrays, where a full bound array alone is one.
        n = 200
        limit = 1.5 * 8 * (n + 1) * (2 * n + 1)
        verify_jointly_gaussian_grid(RatePair(1.0, 0.5), 0.05)  # numpy's first-call setup
        tracemalloc.start()
        try:
            verify_jointly_gaussian_grid(RatePair(2.0, 2.0), 0.005)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"peak {peak} bytes, limit {limit:.0f}"

    @pytest.mark.parametrize("step", [0.05, 0.02, 0.01, 0.005])
    def test_axes_are_integer_multiples_of_the_step(self, step):
        # The reported rho_yu is k*step for an integer k, with no drift from
        # accumulating -1 + step + step + ..., and lies in [-1, 1].
        rates = RatePair(1.0, 0.5)
        _, triple = verify_jointly_gaussian_grid(rates, step)
        k = round(triple.rho_yu / step)
        assert triple.rho_yu == k * step and abs(triple.rho_yu) <= 1.0
        assert triple.rho_xy == round(triple.rho_xy / step) * step


def reference_binary_entropy_of_logit(z):
    """H_binary(sigmoid(z)) in bits through 0-d numpy, as the integrand had it."""
    sp_pos = np.logaddexp(0.0, z)
    sp_neg = np.logaddexp(0.0, -z)
    p = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
    return float(p * sp_neg + (1.0 - p) * sp_pos) / math.log(2.0)


def max_form_binary_entropy_of_logit(z):
    """H_binary(sigmoid(z)) in bits with max() for the softplus parts, as first written."""
    tail = math.log1p(math.exp(-abs(z)))
    p = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
    return (p * (max(-z, 0.0) + tail) + (1.0 - p) * (max(z, 0.0) + tail)) / math.log(2.0)


def logit_entropy_values(zs):
    """The array form at each z; exp overflows to inf and inf * 0 gives NaN as the scalars do."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _binary_entropy_of_logits(np.array(zs)).tolist()


def close_or_both_nan(got, ref):
    return abs(got - ref) <= 1e-15 or (math.isnan(got) and math.isnan(ref))


class TestSignSplit:
    def test_logit_entropy_keeps_the_max_form_bits(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 700.0, -700.0, math.inf, -math.inf, math.nan]
        zs = np.linspace(-800.0, 800.0, 16001).tolist() + specials
        for z, got in zip(zs, logit_entropy_values(zs)):
            assert close_or_both_nan(got, max_form_binary_entropy_of_logit(z)), z
            with np.errstate(invalid="ignore"):
                assert close_or_both_nan(got, reference_binary_entropy_of_logit(z)), z

    def test_logit_entropy_matches_numpy_form(self):
        edges = [0.0, 46.0, 699.0, 699.999, 700.0, 700.001, 701.0, 745.0, 746.0, 800.0]
        grid = np.concatenate([np.linspace(-800.0, 800.0, 16001), edges, np.negative(edges),
                               np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        for z, got in zip(grid.tolist(), logit_entropy_values(grid)):
            ref = reference_binary_entropy_of_logit(z)
            assert abs(got - ref) <= 1e-15, z

    def test_zero_rate(self):
        assert sign_split_key_requirement(0.0) == 0.0

    @pytest.mark.parametrize("r,ref", sorted(SIGN_SPLIT_REFS.items()))
    def test_reference_values(self, r, ref):
        assert sign_split_key_requirement(r) == pytest.approx(ref, abs=1e-4)

    @pytest.mark.parametrize("r,bits", sorted(QUADPACK_BITS.items()))
    def test_recorded_bits_at_suite_grid(self, r, bits):
        value = sign_split_key_requirement(r)
        assert abs(value - SIGN_SPLIT_BITS[r]) <= 1e-13
        assert abs(value - bits) <= 1e-10

    @pytest.mark.parametrize("r,bits", sorted(QUADPACK_OFF_GRID_BITS.items()))
    def test_recorded_bits_off_the_suite_grid(self, r, bits):
        value = sign_split_key_requirement(r)
        assert abs(value - SIGN_SPLIT_OFF_GRID_BITS[r]) <= 1e-13
        assert abs(value - bits) <= 1e-10

    def test_doubling_the_nodes_moves_no_pinned_value(self, monkeypatch):
        base = {r: sign_split_key_requirement(r) for r in PINNED_SIGN_SPLIT}
        monkeypatch.setattr(schemes_module, "_Y_PANELS", 2 * schemes_module._Y_PANELS)
        monkeypatch.setattr(schemes_module, "_T_PANELS", 2 * schemes_module._T_PANELS)
        for r, value in base.items():
            assert abs(sign_split_key_requirement(r) - value) <= 1e-14, r

    @pytest.mark.parametrize("block", [256, 4096, 65536])
    def test_blocks_move_only_the_summation_order(self, monkeypatch, block):
        base = {r: sign_split_key_requirement(r) for r in PINNED_SIGN_SPLIT}
        monkeypatch.setattr(schemes_module, "_QUAD_BLOCK", block)
        for r, value in base.items():
            assert abs(sign_split_key_requirement(r) - value) <= 1e-15, r

    def test_monotone_and_below_one(self):
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [sign_split_key_requirement(r) for r in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-6
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_monotone_and_below_one_on_a_fine_grid(self):
        vals = [sign_split_key_requirement(r) for r in np.linspace(0.0, 12.0, 241).tolist()]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert all(hi >= lo - 1e-13 for lo, hi in zip(vals, vals[1:]))

    def test_extreme_rates(self):
        # 2^(-2r) rounds to 1 at r = 1e-300, leaving no correlation to
        # integrate, and to 0 at r = 30, a saturated rate.
        assert sign_split_key_requirement(1e-300) == 0.0
        assert sign_split_key_requirement(30.0) == math.nextafter(1.0, 0.0)

    def test_saturation(self):
        assert sign_split_key_requirement(10.0) >= 0.99

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            sign_split_key_requirement(-0.1)


@pytest.fixture(scope="module")
def plan():
    return GreedyQuantizedScheme(2.7)


class TestGreedyScheme:
    def test_rate_binds(self, plan):
        assert output_entropy(plan.table) <= 2.7 + 1e-9
        assert output_entropy(plan.table) >= 2.7 - 5e-4

    def test_known_points(self, plan):
        # Frozen from this implementation's first verified run; they
        # pin the step search and the divisor sweep against drift.
        assert plan.step == pytest.approx(0.647019590522, abs=1e-9)
        p45 = plan.evaluate(0.45)
        assert p45.n_mod == 5
        assert float(p45.payoff) == pytest.approx(0.809832144986, abs=1e-9)
        p100 = plan.evaluate(1.0)
        assert p100.n_mod == 4
        assert float(p100.payoff) == pytest.approx(0.938779094779, abs=1e-9)

    def test_payoff_monotone_in_key_rate(self, plan):
        prev = -math.inf
        for rs in np.arange(0.0, 2.01, 0.1):
            point = plan.evaluate(float(rs))
            assert point.feasible
            value = float(point.payoff)
            assert value >= prev - 1e-12
            prev = value

    def test_zero_key_uses_full_disclosure(self, plan):
        point = plan.evaluate(0.0)
        assert point.feasible
        # Full disclosure leaves Eve the centroid decoder, which beats
        # Bob's lattice decoder slightly.
        assert float(point.payoff) < 0.0
        assert point.n_mod == 2 * plan.table.max_index + 1

    def test_restricted_search_flags_infeasible(self):
        plan = GreedyQuantizedScheme(2.7, n_max=3)
        point = plan.evaluate(0.0)
        assert not point.feasible
        assert point.slack_bits < 0.0
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="n_max"):
                GreedyQuantizedScheme(2.7, n_max=bad)
        assert GreedyQuantizedScheme(2.7, n_max=3.0).evaluate(0.0) == point

    def test_sweep_cap_admits_the_default_at_rate_12(self, monkeypatch):
        # The sweep itself is stubbed out: only the cap is under test.
        widths = []
        monkeypatch.setattr(schemes_module, "entropy_given_residue",
                            lambda table, moduli: widths.append(table.prob.size) or moduli)
        monkeypatch.setattr(schemes_module, "eve_mmse_given_residue", lambda table, moduli: moduli)
        GreedyQuantizedScheme(12.0)
        assert widths[0] ** 2 <= schemes_module._MAX_SWEEP
        with pytest.raises(ValueError, match="n_max"):
            GreedyQuantizedScheme(12.5)
        assert GreedyQuantizedScheme(12.5, n_max=1000).n_max == 1000

    @pytest.mark.parametrize("rate", [0.5, 7.0])
    def test_divisor_ties_survive_last_bit_noise(self, rate):
        # At R = 0.5, n = 1 and n = 2 leave Eve the same error by sign
        # symmetry, and at R = 7 several large divisors tie within 1e-15:
        # a few ulps of erfc must not move the reported divisor.
        plan = GreedyQuantizedScheme(rate)
        key_rates = np.arange(0.0, 3.01, 0.05)
        picks = [plan.evaluate(rs).n_mod for rs in key_rates]
        mmse = plan._eve_mmse.copy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            plan._eve_mmse = mmse + rng.integers(-4, 5, mmse.size) * np.spacing(mmse)
            assert [plan.evaluate(rs).n_mod for rs in key_rates] == picks

    def test_zero_rate_rejected(self):
        with pytest.raises(InfeasibleError):
            GreedyQuantizedScheme(0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0])
    def test_invalid_rate_is_a_value_error(self, rate):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            GreedyQuantizedScheme(rate)

    def test_payoff_within_cap(self, plan):
        point = plan.evaluate(1.5)
        assert float(point.payoff) <= 1.0 - 2.0 ** (-2.0 * 2.7) + 1e-9


def plug_in_entropy_bits(labels):
    """Entropy in bits of the empirical law of nonnegative integer labels."""
    p = np.bincount(labels) / labels.size
    p = p[p > 0.0]
    return float(-np.dot(p, np.log2(p)))


class TestGreedyMonteCarlo:
    """The greedy scheme played out on draws: payoff and key use as planned.

    Bob reconstructs at the lattice point; Eve sees the index mod the
    plan's divisor and plays that residue class's mean.  Seeds were fixed
    before the first run.
    """

    @pytest.mark.parametrize("rs, seed", [(0.05, 11), (0.25, 12), (0.5, 13), (0.75, 14)])
    def test_draws_reach_the_planned_payoff_and_key(self, plan, rs, seed):
        point = plan.evaluate(rs)
        assert point.feasible
        table, n_mod = plan.table, point.n_mod
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2**18)  # the standard source of `plan`
        k = table.max_index
        index = np.clip(np.rint(x / table.step), -k, k).astype(np.int64)
        residue = np.mod(index, n_mod)
        _, class_mean, _ = quantizer_module._class_moments(table, np.mod(table.indices, n_mod))
        samples = np.square(class_mean[residue] - x) - np.square(index * table.step - x)
        std_error = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - float(point.payoff)) <= 4.0 * std_error
        need = entropy_given_residue(table, n_mod)  # at most rs, as the plan is feasible
        # The residue is a function of the index: H(index | residue) = H(index) - H(residue).
        plug_in = plug_in_entropy_bits(index + k) - plug_in_entropy_bits(residue)
        assert plug_in == pytest.approx(need, abs=0.01)


@pytest.fixture(scope="module")
def plan_rate6():
    return GreedyQuantizedScheme(6.0)


class TestGreedyRegionOracle:
    """Greedy plans scored by the finite-strategy evaluator, which shares no code with the
    residue sweep: X = the bin centroid, Y = its lattice point, U = the index mod the plan's
    divisor.  I(X;Y|U) is then the plan's key need, and the within-bin variances cancel
    between Eve's error and Bob's, so the payoff is the plan's.
    """

    @pytest.mark.parametrize("plan_name", ["plan", "plan_rate6"])
    def test_plans_match_key_need_and_payoff(self, request, plan_name):
        plan = request.getfixturevalue(plan_name)
        table = plan.table
        width = table.prob.size
        lattice = table.source.mean + table.indices * table.step
        for rs in (0.05, 0.25, 0.5, 0.75):
            point = plan.evaluate(rs)
            n_mod = point.n_mod
            joint = np.zeros((width, width, n_mod))
            joint[np.arange(width), np.arange(width), np.mod(table.indices, n_mod)] = table.prob
            report = evaluate_finite_strategy(
                FiniteJoint(table.source.mean + table.offset, lattice, np.arange(n_mod), joint),
                table.source)
            need = rs - point.slack_bits
            assert report.i_xy_given_u == pytest.approx(need, abs=1e-12), rs
            assert float(report.payoff) == pytest.approx(float(point.payoff), abs=1e-12), rs
            assert report.i_x_uy == pytest.approx(output_entropy(table), abs=1e-12), rs


class TestPayoffPoint:
    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds the rate-1.0 cap"):
            PayoffPoint(RatePair(1.0, 1.0), PayoffValue(0.9), n_mod=1, feasible=True,
                        slack_bits=1.0)


class TestFiniteStrategy:
    def test_perfectly_correlated_pair(self):
        # X = Y uniform on {-1, +1}, U constant: one full bit through
        # the channel, eavesdropper blind.
        pts = np.array([-1.0, 1.0])
        pmf = np.zeros((2, 2, 1))
        pmf[0, 0, 0] = 0.5
        pmf[1, 1, 0] = 0.5
        joint = FiniteJoint(pts, pts, np.array([0.0]), pmf)
        report = evaluate_finite_strategy(joint, STANDARD_SOURCE)
        assert report.i_xy_given_u == pytest.approx(1.0, abs=1e-12)
        assert report.i_x_uy == pytest.approx(1.0, abs=1e-12)
        assert float(report.payoff) == pytest.approx(1.0, abs=1e-12)

    def test_identity_with_magnitude_disclosure(self):
        # X = Y uniform on {-1, 0, +1}, U = |X| disclosed.
        pts = np.array([-1.0, 0.0, 1.0])
        us = np.array([0.0, 1.0])
        pmf = np.zeros((3, 3, 2))
        pmf[0, 0, 1] = 1.0 / 3.0
        pmf[1, 1, 0] = 1.0 / 3.0
        pmf[2, 2, 1] = 1.0 / 3.0
        joint = FiniteJoint(pts, pts, us, pmf)
        report = evaluate_finite_strategy(joint, STANDARD_SOURCE)
        # Given U the only leftover uncertainty is the sign.
        assert report.i_xy_given_u == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.i_x_uy == pytest.approx(math.log2(3.0), abs=1e-12)
        # Eve's estimate from U alone is 0 either way; Bob is exact.
        assert float(report.payoff) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_independent_pair_carries_nothing(self):
        pts = np.array([-1.0, 1.0])
        pmf = np.full((2, 2, 1), 0.25)
        joint = FiniteJoint(pts, pts, np.array([0.0]), pmf)
        report = evaluate_finite_strategy(joint, STANDARD_SOURCE)
        assert report.i_xy_given_u == pytest.approx(0.0, abs=1e-12)
        assert report.i_x_uy == pytest.approx(0.0, abs=1e-12)
        # Bob must play the useless Y (MSE 2) while Eve's blind
        # conditional mean earns MSE 1: the gap is exactly -1.
        assert float(report.payoff) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e5, 1e6, 1e7])
    def test_blind_eve_at_large_mean(self, shift):
        # X = Y on three points, U constant: Eve's error is the variance
        # and the payoff is exactly 1 at any mean.  E[X**2] minus a squared
        # mean cancels here; at mean 1e5 it overshoots the unit bound.
        pts = np.array([-1.3, 0.2, 1.1]) + shift
        probs = np.array([0.3, 0.3, 0.4])
        mean = float(probs @ pts)
        source = GaussianSource(mean, float(probs @ (pts - mean) ** 2))
        pmf = np.zeros((3, 3, 1))
        pmf[np.arange(3), np.arange(3), 0] = probs
        report = evaluate_finite_strategy(FiniteJoint(pts, pts, np.array([0.0]), pmf), source)
        assert float(report.payoff) == pytest.approx(1.0, abs=1e-12)

    def test_pmf_validation(self):
        pts = np.array([-1.0, 1.0])
        with pytest.raises(ValueError):
            FiniteJoint(pts, pts, np.array([0.0]), np.full((2, 2, 1), 0.3))
        with pytest.raises(ValueError):
            FiniteJoint(pts, pts, np.array([0.0]), np.full((2, 2, 2), 0.125))


class TestDiscretizedSignSplit:
    def test_finite_strategy_approaches_quadrature(self):
        # Discretize the unit-rate jointly Gaussian pair (Y on a fine
        # grid, X | Y = y normal with variance 2^-2) and disclose
        # U = |Y|.  The finite I(X; Y | U) must approach the
        # sign-split integral for the same rate.
        r = 1.0
        rho2 = 1.0 - 2.0 ** (-2.0 * r)
        s2 = 1.0 - rho2
        ny, nx = 161, 241
        y_edges = np.linspace(-4.0, 4.0, ny + 1)
        x_edges = np.linspace(-6.0, 6.0, nx + 1)
        y_pts = 0.5 * (y_edges[:-1] + y_edges[1:])
        x_pts = 0.5 * (x_edges[:-1] + x_edges[1:])

        from secgauss import normal_cdf

        py = np.diff(normal_cdf(y_edges / math.sqrt(rho2)))
        py /= py.sum()
        pmf = np.zeros((nx, ny, ny))
        u_pts = np.abs(y_pts)
        # U duplicates |y| per y column; index U by the y row to keep
        # the tensor sparse and exact.
        for j, y in enumerate(y_pts):
            px = np.diff(normal_cdf((x_edges - y) / math.sqrt(s2)))
            px /= px.sum()
            pmf[:, j, j] = py[j] * px
        joint = FiniteJoint(x_pts, y_pts, u_pts, pmf)
        report = evaluate_finite_strategy(joint, STANDARD_SOURCE)
        # U indexed by y row is finer than |y|; merge mirror rows by
        # comparing against I(X;Y|U) computed with true magnitudes.
        target = sign_split_key_requirement(r)
        # The diagonal U above equals Y itself, so I(X;Y|U) = 0 there;
        # instead fold mirrored y rows into shared magnitude slots.
        m = (ny - 1) // 2
        u_mag = np.abs(y_pts[m:])
        folded = np.zeros((nx, ny, u_mag.size))
        for j, y in enumerate(y_pts):
            slot = abs(j - m)
            folded[:, j, slot] += pmf[:, j, j]
        joint2 = FiniteJoint(x_pts, y_pts, u_mag, folded)
        report2 = evaluate_finite_strategy(joint2, STANDARD_SOURCE)
        assert report.i_xy_given_u == pytest.approx(0.0, abs=1e-9)
        assert report2.i_xy_given_u == pytest.approx(target, abs=0.02)
