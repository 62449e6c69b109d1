"""Closed-form payoffs, the grid certificate, the sign-split integral,
and the greedy quantized scheme.

Sign-split references were frozen from an mpmath double quadrature of
the posterior-entropy integral (absolute error below 1e-6).
"""

import math

import numpy as np
import pytest

from secgauss import (
    STANDARD_SOURCE,
    CorrelationTriple,
    FiniteJoint,
    GreedyQuantizedScheme,
    InfeasibleError,
    PayoffPoint,
    PayoffValue,
    RatePair,
    asymptotic_quantization_bound,
    evaluate_finite_strategy,
    greedy_quantized_scheme,
    jointly_gaussian_payoff,
    optimal_high_key_payoff,
    sign_split_key_requirement,
    verify_general_awareness_construction,
    verify_jointly_gaussian_grid,
    weak_eavesdropper_payoff,
)

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


class TestGridCertificate:
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


class TestSignSplit:
    def test_zero_rate(self):
        assert sign_split_key_requirement(0.0) == 0.0

    @pytest.mark.parametrize("r,ref", sorted(SIGN_SPLIT_REFS.items()))
    def test_reference_values(self, r, ref):
        assert sign_split_key_requirement(r) == pytest.approx(ref, abs=1e-4)

    def test_monotone_and_below_one(self):
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [sign_split_key_requirement(r) for r in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-6
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_saturation(self):
        assert sign_split_key_requirement(10.0) >= 0.99

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            sign_split_key_requirement(-0.1)


class TestGeneralAwareness:
    def test_unit_rate_construction(self):
        report = verify_general_awareness_construction(1.0)
        assert report.i_xyv_given_u == pytest.approx(1.0, abs=1e-9)
        assert report.markov_ok
        assert not report.degenerate

    def test_zero_rate_degenerates(self):
        report = verify_general_awareness_construction(0.0)
        assert report.degenerate
        assert report.i_xyv_given_u == 0.0


@pytest.fixture(scope="module")
def plan():
    return GreedyQuantizedScheme(2.7)


class TestGreedyScheme:
    def test_rate_binds(self, plan):
        assert plan.entropy_bits <= 2.7 + 1e-9
        assert plan.entropy_bits >= 2.7 - 5e-4

    def test_known_points(self, plan):
        # Frozen from this implementation's first verified run; they
        # pin the step search and the divisor sweep against drift.
        assert plan.step == pytest.approx(0.647019590522, abs=1e-9)
        p45 = plan.evaluate(0.45)
        assert p45.meta["n_mod"] == 5
        assert float(p45.payoff) == pytest.approx(0.809832144986, abs=1e-9)
        p100 = plan.evaluate(1.0)
        assert p100.meta["n_mod"] == 4
        assert float(p100.payoff) == pytest.approx(0.938779094779, abs=1e-9)

    def test_payoff_monotone_in_key_rate(self, plan):
        prev = -math.inf
        for rs in np.arange(0.0, 2.01, 0.1):
            point = plan.evaluate(float(rs))
            assert point.meta["feasible"]
            value = float(point.payoff)
            assert value >= prev - 1e-12
            prev = value

    def test_zero_key_uses_full_disclosure(self, plan):
        point = plan.evaluate(0.0)
        assert point.meta["feasible"]
        # Full disclosure leaves Eve the centroid decoder, which beats
        # Bob's lattice decoder slightly.
        assert float(point.payoff) < 0.0
        assert point.meta["n_mod"] == 2 * plan.table.max_index + 1

    def test_wrapper_matches_class(self, plan):
        point = greedy_quantized_scheme(RatePair(2.7, 0.45))
        assert float(point.payoff) == pytest.approx(
            float(plan.evaluate(0.45).payoff), abs=1e-12
        )

    def test_restricted_search_flags_infeasible(self):
        plan = GreedyQuantizedScheme(2.7, n_max=3)
        point = plan.evaluate(0.0)
        assert not point.meta["feasible"]
        assert point.meta["slack_bits"] < 0.0
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="n_max"):
                GreedyQuantizedScheme(2.7, n_max=bad)
        assert GreedyQuantizedScheme(2.7, n_max=3.0).evaluate(0.0) == point

    def test_zero_rate_rejected(self):
        with pytest.raises(InfeasibleError):
            GreedyQuantizedScheme(0.0)

    def test_scheme_id_and_cap(self, plan):
        point = plan.evaluate(1.5)
        assert point.scheme_id == "quantized_greedy"
        assert float(point.payoff) <= 1.0 - 2.0 ** (-2.0 * 2.7) + 1e-9


class TestPayoffPoint:
    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            PayoffPoint(
                rates=RatePair(1.0, 1.0),
                scheme_id="weak",
                payoff=PayoffValue(0.9),
            )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            PayoffPoint(
                rates=RatePair(1.0, 1.0),
                scheme_id="mystery",
                payoff=PayoffValue(0.1),
            )


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
