"""End-to-end acceptance gate.

Eight numbered criteria, each printed as one PASS/FAIL line in the
terminal summary.  Every criterion checks library output against an
independent target: a closed form, a brute-force solve, or a fresh
Monte Carlo oracle.
"""

import itertools
import math

import numpy as np
import pytest

from secgauss import (
    STANDARD_SOURCE,
    QuantizedPmf,
    QuantizerSpec,
    RatePair,
    SimConfig,
    asymptotic_quantization_bound,
    bob_distortion,
    build_bin_table,
    build_quantized_pmf,
    enumerate_subset_candidates,
    GreedyQuantizedScheme,
    eve_mmse_given_magnitude,
    jointly_gaussian_payoff,
    optimal_high_key_payoff,
    output_entropy,
    run_sim,
    sign_split_key_requirement,
    solve_secrecy_lp,
    step_size_for_entropy,
    verify_jointly_gaussian_grid,
    weak_eavesdropper_payoff,
)

SRC = STANDARD_SOURCE
HALF_LOG2_2PIE = 2.0470955851806411


def check(report, number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    report.append(line)
    assert ok, line


def test_criterion_1_gaussian_grid_certificate(criterion_report):
    """Grid search over correlation triples attains the closed form."""
    worst = 0.0
    for r, rs in itertools.product((0.5, 1.0, 2.0), (0.25, 0.5, 1.0, 2.0)):
        best_g, _ = verify_jointly_gaussian_grid(RatePair(r, rs), step=0.005)
        target = 1.0 - 2.0 ** (-2.0 * min(r, rs))
        worst = max(worst, abs(best_g - target))
    check(
        criterion_report, 1, worst <= 0.02,
        f"grid certificate matches closed form on 12 rate pairs "
        f"(worst gap {worst:.2e}, tolerance 0.02)",
    )


def _mc_sign_split(rate_bits, n, seed):
    """Monte Carlo estimate of the sign-split key requirement.

    Samples the forward test channel and averages the binary entropy of
    the sign posterior, computed from its logit with stable log-sums.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    rho2 = 1.0 - 2.0 ** (-2.0 * rate_bits)
    s2 = 2.0 ** (-2.0 * rate_bits)
    y = math.sqrt(rho2) * rng.standard_normal(n)
    x = y + math.sqrt(s2) * rng.standard_normal(n)
    t = 2.0 * np.abs(y) * x / s2
    log_p = -np.logaddexp(0.0, -t)
    log_q = -np.logaddexp(0.0, t)
    p = np.exp(log_p)
    h = -(p * log_p + (1.0 - p) * log_q) / math.log(2.0)
    return 1.0 - float(h.mean()), float(h.std(ddof=1) / math.sqrt(n))


def test_criterion_2_sign_split_requirement(criterion_report):
    """Quadrature curve is a valid key requirement and matches Monte Carlo."""
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    values = [sign_split_key_requirement(r) for r in grid]
    in_range = all(0.0 <= v < 1.0 for v in values)
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    small_end = sign_split_key_requirement(0.01) < 0.05
    large_end = sign_split_key_requirement(10.0) >= 0.99

    worst_z = 0.0
    for r, seed in ((0.5, 101), (2.0, 202)):
        est, se = _mc_sign_split(r, 10**7, seed)
        worst_z = max(worst_z, abs(sign_split_key_requirement(r) - est) / se)

    ok = in_range and monotone and small_end and large_end and worst_z <= 3.0
    check(
        criterion_report, 2, ok,
        f"sign-split requirement in [0,1), monotone, endpoints ok, "
        f"1e7-sample Monte Carlo worst |z| {worst_z:.2f} <= 3",
    )


def test_criterion_3_high_rate_quantizer(criterion_report):
    """The matched step keeps entropy within budget at near-optimal distortion."""
    ok = True
    details = []
    for r in (4.0, 6.0, 8.0):
        step = math.sqrt(2.0 * math.pi * math.e) * SRC.std * 2.0 ** (-r)
        table = build_bin_table(SRC, QuantizerSpec(step=step))
        h = output_entropy(table)
        d = bob_distortion(table, "lattice")
        d_cap = 0.5 * math.pi * math.e * SRC.variance * 2.0 ** (-2.0 * r)
        ok = ok and h <= r + 0.01 and d <= d_cap
        details.append(f"R={r:g}: H={h:.4f}, D/cap={d / d_cap:.4f}")
    check(
        criterion_report, 3, ok,
        "entropy <= R+0.01 and lattice distortion within the asymptotic cap "
        f"({'; '.join(details)})",
    )


def test_criterion_4_entropy_limit(criterion_report):
    """Fine-step entropy approaches the differential-entropy offset."""
    gaps = []
    for denom in (16.0, 32.0, 64.0):
        step = SRC.std / denom
        table = build_bin_table(SRC, QuantizerSpec(step=step))
        h = output_entropy(table)
        gaps.append(abs(h + math.log2(step / SRC.std) - HALF_LOG2_2PIE))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.01
    check(
        criterion_report, 4, ok,
        f"entropy offset gap decreases {gaps[0]:.2e} > {gaps[1]:.2e} > "
        f"{gaps[2]:.2e} and ends <= 0.01",
    )


def _brute_force_lp(pmf, rs, candidates):
    """Dense vertex enumeration; complete for small supports."""
    k = pmf.points.size
    post, ent, score = candidates.posteriors, candidates.entropy_bits, candidates.scores
    best = -1.0
    for size in range(1, k + 2):
        for idx in itertools.combinations(range(len(candidates)), size):
            cols = np.array(idx)
            for with_entropy in (False, True):
                a = post[cols].T
                b = pmf.probs
                if with_entropy:
                    a = np.vstack([a, ent[cols]])
                    b = np.concatenate([b, [rs]])
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


def test_criterion_5_lp_endpoints_and_oracle(criterion_report):
    """Endpoints, monotonicity, brute-force agreement, hand instance."""
    pmf = build_quantized_pmf(SRC, QuantizerSpec(step=1.0), max_support=9)
    cands = enumerate_subset_candidates(pmf, 9)
    h = pmf.entropy_bits()
    var = pmf.variance()

    at_zero = solve_secrecy_lp(pmf, RatePair(6.0, 0.0), candidates=cands).value
    at_full = solve_secrecy_lp(pmf, RatePair(6.0, h), candidates=cands).value
    beyond = solve_secrecy_lp(pmf, RatePair(6.0, h + 1.0), candidates=cands).value
    endpoints = (
        abs(at_zero) <= 1e-10
        and abs(at_full - var) <= 1e-8
        and abs(beyond - var) <= 1e-8
    )

    grid = np.linspace(0.0, h + 0.3, 20)
    vals = [
        solve_secrecy_lp(pmf, RatePair(6.0, float(rs)), candidates=cands).value
        for rs in grid
    ]
    monotone = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    worst_gap = 0.0
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        pts = np.sort(rng.normal(size=k))
        pr = rng.random(k) + 0.2
        pr /= pr.sum()
        small = QuantizedPmf(pts, pr)
        small_cands = enumerate_subset_candidates(small)
        for rs in (0.3, 0.9):
            got = solve_secrecy_lp(small, RatePair(6.0, rs), candidates=small_cands).value
            ref = _brute_force_lp(small, rs, small_cands)
            worst_gap = max(worst_gap, abs(got - ref))

    m = math.sqrt(2.0 / math.pi)
    hand = QuantizedPmf(np.array([-m, m]), np.array([0.5, 0.5]))
    hand_val = solve_secrecy_lp(hand, RatePair(2.0, 0.5)).value
    hand_ok = abs(hand_val - 0.5 * m * m) <= 1e-8

    ok = endpoints and monotone and worst_gap <= 1e-8 and hand_ok
    check(
        criterion_report, 5, ok,
        f"LP endpoints exact, 20-point grid monotone, brute force within "
        f"{worst_gap:.1e}, two-point hand instance within 1e-8",
    )


def test_criterion_6_greedy_beats_gaussian(criterion_report):
    """At 2.7 bits the greedy discrete scheme beats the Gaussian curve."""
    r = 2.7
    cap = 1.0 - 2.0 ** (-2.0 * r)
    plan = GreedyQuantizedScheme(r, source=SRC)

    beats_at = []
    within_cap = True
    for rs in np.arange(0.05, 1.0, 0.05):
        rs = float(rs)
        point = plan.evaluate(rs)
        if not point.meta["feasible"]:
            continue
        within_cap = within_cap and point.payoff.value <= cap + 1e-6
        if point.payoff.value > jointly_gaussian_payoff(RatePair(r, rs)).value:
            beats_at.append(rs)

    high = [optimal_high_key_payoff(RatePair(r, rs)).value for rs in (1.0, 1.5, 2.0)]
    constant = all(abs(v - cap) <= 1e-12 for v in high)

    ok = bool(beats_at) and within_cap and constant
    check(
        criterion_report, 6, ok,
        f"greedy exceeds the Gaussian curve at {len(beats_at)} sub-bit key "
        f"rates (first {beats_at[0] if beats_at else 'none'}), stays below "
        f"the cap, unit-key curve constant",
    )


def test_criterion_7_simulation_concordance(criterion_report):
    """Empirical payoffs land within three standard errors of analytics."""
    n, seed = 100_000, 20260818
    zs = []

    step = 0.5
    cfg = SimConfig("sign_pad", "weak", RatePair(6.0, 1.0),
                    QuantizerSpec(step=step), n, seed)
    res = run_sim(cfg, SRC)
    table = build_bin_table(SRC, QuantizerSpec(step=step))
    target = (eve_mmse_given_magnitude(table) - bob_distortion(table, "lattice")) / SRC.variance
    zs.append(abs(res.empirical_payoff - target) / res.std_error)

    cfg_fe = SimConfig("full_encryption", "weak", RatePair(3.0, 3.0),
                       QuantizerSpec(step=1.0), n, seed)
    res_fe = run_sim(cfg_fe, SRC)
    t_eff = step_size_for_entropy(SRC, 3.0)
    table_fe = build_bin_table(SRC, QuantizerSpec(step=t_eff))
    target_fe = (SRC.variance - bob_distortion(table_fe, "lattice")) / SRC.variance
    zs.append(abs(res_fe.empirical_payoff - target_fe) / res_fe.std_error)

    cfg_nk = SimConfig("no_key", "weak", RatePair(6.0, 0.0),
                       QuantizerSpec(step=step, reconstruction="centroid"), n, seed)
    res_nk = run_sim(cfg_nk, SRC)
    no_key_exact = res_nk.empirical_payoff == 0.0 and res_nk.std_error == 0.0

    res_causal = run_sim(
        SimConfig("sign_pad", "causal_source", RatePair(6.0, 1.0),
                  QuantizerSpec(step=step), n, seed),
        SRC,
    )
    scenarios_agree = res_causal.eve_mse == res.eve_mse

    ok = max(zs) <= 3.0 and no_key_exact and scenarios_agree
    check(
        criterion_report, 7, ok,
        f"sign_pad z={zs[0]:.2f}, full_encryption z={zs[1]:.2f}, no_key "
        f"exactly zero, causal scenario matches weak",
    )


def test_criterion_8_cross_module_identity(criterion_report):
    """Bookkeeping is exact and closed forms match their direct formulas."""
    worst_book = 0.0
    for scheme, rs, recon in (
        ("sign_pad", 1.0, "lattice"),
        ("full_encryption", 2.0, "lattice"),
        ("no_key", 0.0, "centroid"),
    ):
        cfg = SimConfig(scheme, "weak", RatePair(6.0, rs),
                        QuantizerSpec(step=0.5, reconstruction=recon), 5_000, 17)
        res = run_sim(cfg, SRC)
        worst_book = max(
            worst_book,
            abs(res.empirical_payoff - (res.eve_mse - res.bob_mse) / SRC.variance),
        )

    worst_closed = 0.0
    for r, rs in ((0.7, 0.4), (2.0, 1.2), (3.5, 5.0)):
        worst_closed = max(
            worst_closed,
            abs(weak_eavesdropper_payoff(RatePair(r, rs)).value
                - (1.0 - 2.0 ** (-2.0 * r))),
            abs(jointly_gaussian_payoff(RatePair(r, rs)).value
                - (1.0 - 2.0 ** (-2.0 * min(r, rs)))),
            abs(asymptotic_quantization_bound(r).value
                - (1.0 - 0.5 * math.pi * math.e * 2.0 ** (-2.0 * r))),
        )
        if rs >= 1.0:
            worst_closed = max(
                worst_closed,
                abs(optimal_high_key_payoff(RatePair(r, rs)).value
                    - (1.0 - 2.0 ** (-2.0 * r))),
            )

    ok = worst_book <= 1e-12 and worst_closed <= 1e-9
    check(
        criterion_report, 8, ok,
        f"payoff bookkeeping within {worst_book:.1e} (tol 1e-12), closed "
        f"forms within {worst_closed:.1e} (tol 1e-9)",
    )
