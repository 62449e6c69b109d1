"""Monte Carlo scheme simulation: determinism, bookkeeping, concordance."""

import math

import numpy as np
import pytest

from secgauss import (
    STANDARD_SOURCE,
    GaussianSource,
    InfeasibleError,
    RatePair,
    SimConfig,
    SimResult,
    bob_distortion,
    build_bin_table,
    entropy_bits,
    eve_mmse_given_magnitude,
    output_entropy,
    run_sim,
    step_size_for_entropy,
)
from secgauss.quantizer import _class_moments
from secgauss import sim as sim_module
from secgauss.sim import _BLOCK, _RATE_TOL

SRC = STANDARD_SOURCE

# Bob's reconstruction rule, which run_sim fixes per scheme.
BOB_RULE = {"sign_pad": "lattice", "full_encryption": "lattice", "no_key": "centroid"}


def make_config(scheme="sign_pad", scenario="weak", rate=4.0, rs=1.0,
                step=0.5, n=20_000, seed=7):
    # full_encryption derives its own step.
    return SimConfig(
        scheme=scheme,
        scenario=scenario,
        rates=RatePair(rate, rs),
        step=None if scheme == "full_encryption" else step,
        n_symbols=n,
        seed=seed,
    )


def pair_means(source):
    """A symmetric table and the mean over each of its {+u, -u} bin pairs."""
    table = build_bin_table(source, 0.7)
    return table, _class_moments(table, np.abs(table.indices))[1]


class TestEveOracle:
    """Eve's sign_pad estimate given the magnitude, as run_sim forms it."""

    SOURCES = (SRC, GaussianSource(mean=0.3, variance=1.7))

    def test_zero_magnitude_is_center_centroid(self):
        for source in self.SOURCES:
            table, means = pair_means(source)
            assert means[0] == pytest.approx(float(table.offset[table.row(0)]), abs=1e-15)

    def test_symmetric_pair_averages_to_mean(self):
        # +u and -u carry equal mass and their offsets mirror about 0, the mean's.
        for source in self.SOURCES:
            _, means = pair_means(source)
            np.testing.assert_allclose(means[1:], 0.0, rtol=0.0, atol=1e-12)


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            make_config(scheme="quantum")

    def test_bad_scenario(self):
        with pytest.raises(ValueError):
            make_config(scenario="omniscient")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            make_config(n=0)
        with pytest.raises(ValueError):
            SimConfig("sign_pad", "weak", RatePair(4.0, 1.0), 0.5, 10, -1)

    def test_step_given_exactly_when_not_derived(self):
        with pytest.raises(ValueError, match="full_encryption derives its step"):
            SimConfig("full_encryption", "weak", RatePair(2.0, 2.0), 0.5, 10, 1)
        for scheme in ("sign_pad", "no_key"):
            with pytest.raises(ValueError, match="every other scheme needs one"):
                SimConfig(scheme, "weak", RatePair(4.0, 1.0), None, 10, 1)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            make_config(step=-1.0)

    def test_result_rejects_nan_payoff(self):
        with pytest.raises(ValueError):
            SimResult(float("nan"), 0.1, 1.0, 1.0, 2.0, 1.0)

    def test_result_rejects_negative_se(self):
        with pytest.raises(ValueError):
            SimResult(0.5, -0.1, 1.0, 1.0, 2.0, 1.0)


class TestDeterminism:
    def test_bit_identical_rerun(self):
        cfg = make_config()
        a = run_sim(cfg, SRC)
        b = run_sim(cfg, SRC)
        assert a == b

    def test_seed_changes_draws(self):
        a = run_sim(make_config(seed=7), SRC)
        b = run_sim(make_config(seed=8), SRC)
        assert a.empirical_payoff != b.empirical_payoff

    def test_scenario_is_bookkeeping_only(self):
        results = [
            run_sim(make_config(scenario=sc), SRC)
            for sc in ("weak", "causal_source", "causal_general")
        ]
        assert results[0] == results[1] == results[2]


class TestBookkeeping:
    def test_payoff_identity(self):
        r = run_sim(make_config(), SRC)
        assert r.empirical_payoff == pytest.approx(
            (r.eve_mse - r.bob_mse) / SRC.variance, abs=1e-12
        )

    def test_sign_pad_rates(self):
        cfg = make_config()
        r = run_sim(cfg, SRC)
        table = build_bin_table(SRC, cfg.step)
        k = table.max_index
        mag = np.empty(k + 1)
        mag[0] = table.prob[table.row(0)]
        mag[1:] = table.prob[k + 1:] + table.prob[:k][::-1]
        h_mag = -float(np.sum(mag[mag > 0] * np.log2(mag[mag > 0])))
        assert r.model_key_bits == 1.0
        assert r.model_rate_bits == pytest.approx(h_mag + 1.0, abs=1e-12)

    def test_no_key_rates(self):
        cfg = make_config(scheme="no_key", rs=0.0)
        r = run_sim(cfg, SRC)
        table = build_bin_table(SRC, cfg.step)
        assert r.model_key_bits == 0.0
        assert r.model_rate_bits == pytest.approx(output_entropy(table), abs=1e-12)

    def test_full_encryption_stays_in_budget(self):
        cfg = make_config(scheme="full_encryption", rate=2.5, rs=1.75)
        r = run_sim(cfg, SRC)
        budget = min(cfg.rates.rate, cfg.rates.key_rate)
        assert r.model_rate_bits <= budget + 1e-9
        assert r.model_key_bits == r.model_rate_bits


class TestBudgetEnforcement:
    def test_sign_pad_needs_full_key_bit(self):
        with pytest.raises(InfeasibleError):
            run_sim(make_config(rs=0.999), SRC)

    def test_rate_budget_enforced(self):
        # step 0.5 carries ~3.06 bits of index entropy.
        with pytest.raises(InfeasibleError):
            run_sim(make_config(scheme="no_key", rate=2.0, rs=0.0), SRC)


class TestOneBudgetRule:
    def test_key_budget_shares_the_rate_tolerance(self):
        # sign_pad needs exactly one key bit; a budget short of it by less
        # than _RATE_TOL runs, as a rate budget would.
        assert run_sim(make_config(rs=1.0 - 0.5 * _RATE_TOL, n=100), SRC).model_key_bits == 1.0
        with pytest.raises(InfeasibleError, match="key rate budget"):
            run_sim(make_config(rs=1.0 - 2.0 * _RATE_TOL, n=100), SRC)

    def test_full_encryption_key_need_is_checked(self, monkeypatch):
        # A step finer than the key budget allows (about 4.1 bits at step
        # 0.25 against 2) is refused rather than assumed to fit.
        monkeypatch.setattr(sim_module, "step_size_for_entropy",
                            lambda source, bits: build_bin_table(source, 0.25))
        with pytest.raises(InfeasibleError, match="key rate budget is 2.0"):
            run_sim(make_config(scheme="full_encryption", rate=10.0, rs=2.0, n=100), SRC)


class TestConcordance:
    def test_sign_pad_matches_analytic_payoff(self):
        cfg = make_config(n=100_000, seed=2024)
        r = run_sim(cfg, SRC)
        table = build_bin_table(SRC, cfg.step)
        d_bob = bob_distortion(table, "lattice")
        d_eve = eve_mmse_given_magnitude(table)
        target = (d_eve - d_bob) / SRC.variance
        assert abs(r.empirical_payoff - target) <= 3.0 * r.std_error

    @pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_no_key_centroid_payoff_exactly_zero(self, n):
        cfg = make_config(scheme="no_key", rs=0.0, n=n, seed=99)
        r = run_sim(cfg, SRC)
        assert r.empirical_payoff == 0.0
        assert r.std_error == 0.0
        assert r.bob_mse == r.eve_mse

    def test_full_encryption_matches_analytic_payoff(self):
        cfg = make_config(scheme="full_encryption", rate=3.0, rs=3.0,
                          n=100_000, seed=4242)
        r = run_sim(cfg, SRC)
        table = step_size_for_entropy(SRC, 3.0)
        d_bob = bob_distortion(table, "lattice")
        target = (SRC.variance - d_bob) / SRC.variance
        assert abs(r.empirical_payoff - target) <= 3.0 * r.std_error

    def test_nonstandard_source(self):
        src = GaussianSource(mean=-2.0, variance=4.0)
        cfg = make_config(step=1.0, n=100_000, seed=11)
        r = run_sim(cfg, src)
        # Eve averages the signed pair back to nearly the mean, so her
        # MSE hugs the variance while Bob's tracks the lattice MSE.
        assert r.eve_mse == pytest.approx(src.variance, rel=0.05)
        assert 0.0 < r.bob_mse < src.variance


class TestSmallSamples:
    def test_single_symbol_zero_se(self):
        r = run_sim(make_config(n=1), SRC)
        assert r.std_error == 0.0
        assert math.isfinite(r.empirical_payoff)

    def test_two_symbols_valid(self):
        r = run_sim(make_config(n=2, seed=5), SRC)
        assert r.std_error >= 0.0


def reference_run_sim(config, source):
    """The whole-sample run_sim that drew every symbol in one array."""
    rates = config.rates
    if config.scheme == "full_encryption":
        table = step_size_for_entropy(source, min(rates.rate, rates.key_rate))
    else:
        table = build_bin_table(source, config.step)
    h_table = output_entropy(table)
    k = table.max_index
    mag_prob, pair_mean = _class_moments(table, np.abs(table.indices))[:2]
    if config.scheme == "sign_pad":
        model_rate, model_key = entropy_bits(mag_prob) + 1.0, 1.0
    elif config.scheme == "no_key":
        model_rate, model_key = h_table, 0.0
    else:
        model_rate, model_key = h_table, h_table

    rng = np.random.Generator(np.random.PCG64(config.seed))
    xs = source.mean + source.std * rng.standard_normal(config.n_symbols)
    idx = np.rint((xs - source.mean) / table.step).astype(np.int64)
    np.clip(idx, -k, k, out=idx)
    if BOB_RULE[config.scheme] == "centroid":
        ys = source.mean + table.offset[idx + k]
    else:
        ys = source.mean + idx * table.step
    if config.scheme == "no_key":
        zs = source.mean + table.offset[idx + k]
    elif config.scheme == "full_encryption":
        zs = np.full(config.n_symbols, source.mean)
    else:
        zs = source.mean + pair_mean[np.abs(idx)]
    bob_sq = (ys - xs) ** 2
    eve_sq = (zs - xs) ** 2
    bob_mse = float(bob_sq.mean())
    eve_mse = float(eve_sq.mean())
    samples = (eve_sq - bob_sq) / source.variance
    return SimResult(
        empirical_payoff=(eve_mse - bob_mse) / source.variance,
        std_error=(float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
                   if config.n_symbols >= 2 else 0.0),
        bob_mse=bob_mse,
        eve_mse=eve_mse,
        model_rate_bits=model_rate,
        model_key_bits=model_key,
    )


def reference_points(config, source):
    """Table, model rates, and Bob's and Eve's offset per table row, as run_sim forms them."""
    rates = config.rates
    if config.scheme == "full_encryption":
        table = step_size_for_entropy(source, min(rates.rate, rates.key_rate))
    else:
        table = build_bin_table(source, config.step)
    h_table = output_entropy(table)
    k = table.max_index
    lattice = np.arange(-k, k + 1)
    mag_prob = _class_moments(table, np.abs(table.indices))[0]
    if BOB_RULE[config.scheme] == "centroid":
        bob_points = table.offset
    else:
        bob_points = lattice * table.step
    # Each {+u, -u} pair of a symmetric table has the source mean as its
    # mean, so Eve plays the mean (offset 0) under sign_pad as under full_encryption.
    eve_points = np.zeros(2 * k + 1)
    if config.scheme == "sign_pad":
        rates_used = (entropy_bits(mag_prob) + 1.0, 1.0)
    elif config.scheme == "no_key":
        rates_used, eve_points = (h_table, 0.0), table.offset
    else:
        rates_used = (h_table, h_table)
    return table, rates_used, bob_points, eve_points


def reference_block_loop(config, source):
    """The blocked run_sim that allocated fresh arrays for every block."""
    table, (model_rate, model_key), bob_points, eve_points = reference_points(config, source)
    k = table.max_index
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = config.n_symbols
    buf = np.empty(min(n, _BLOCK))
    bob_total = eve_total = mean = m2 = 0.0
    for start in range(0, n, _BLOCK):
        xs = rng.standard_normal(out=buf[: n - start])
        xs *= source.std
        rows = (np.clip(np.rint(xs / table.step), -k, k) + k).astype(np.intp)
        bob_sq = (bob_points[rows] - xs) ** 2
        eve_sq = (eve_points[rows] - xs) ** 2
        bob_total += float(bob_sq.sum())
        eve_total += float(eve_sq.sum())
        samples = (eve_sq - bob_sq) / source.variance
        block_mean = float(samples.mean())
        delta, m = block_mean - mean, samples.size
        mean += delta * m / (start + m)
        m2 += float(np.square(samples - block_mean).sum()) + delta * delta * start * m / (start + m)
    bob_mse = bob_total / n
    eve_mse = eve_total / n
    return SimResult(
        empirical_payoff=(eve_mse - bob_mse) / source.variance,
        std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n >= 2 else 0.0,
        bob_mse=bob_mse,
        eve_mse=eve_mse,
        model_rate_bits=model_rate,
        model_key_bits=model_key,
    )


def _close(actual, expected):
    if expected == 0.0:
        return actual == 0.0
    return abs(actual - expected) <= 1e-12 * abs(expected)


class TestBlockedSim:
    """run_sim scores the sample in blocks; the whole-sample run is the reference."""

    SCHEMES = {
        "sign_pad": dict(rate=4.0, rs=1.0),
        "no_key": dict(rate=4.0, rs=0.0),
        "full_encryption": dict(rate=2.5, rs=1.75),
    }

    @pytest.mark.parametrize("source", [SRC, GaussianSource(mean=0.3, variance=1.7)],
                             ids=["standard", "shifted"])
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=lambda s: f"{s}-{BOB_RULE[s]}")
    def test_matches_whole_sample_run(self, scheme, n, source):
        cfg = make_config(scheme=scheme, n=n, seed=n + 11,
                          **self.SCHEMES[scheme])
        got = run_sim(cfg, source)
        ref = reference_run_sim(cfg, source)
        for field in ("empirical_payoff", "bob_mse", "eve_mse", "std_error"):
            assert _close(getattr(got, field), getattr(ref, field)), field
        assert got.model_rate_bits == ref.model_rate_bits
        assert got.model_key_bits == ref.model_key_bits

    @pytest.mark.parametrize("source", [SRC, GaussianSource(mean=3.0, variance=2.5)],
                             ids=["standard", "mean3"])
    @pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=lambda s: f"{s}-{BOB_RULE[s]}")
    def test_buffers_keep_the_bits(self, scheme, n, source):
        # The block buffers are filled in place by the same operations in
        # the same order, so every field keeps its bits.
        cfg = make_config(scheme=scheme, n=n, seed=n + 5,
                          **self.SCHEMES[scheme])
        assert run_sim(cfg, source) == reference_block_loop(cfg, source)
