"""Achievable secrecy payoff schemes and their verifiers.

Closed-form payoff curves for the weak-eavesdropper, jointly Gaussian,
and unit-key regimes; a grid-search certifier for the jointly Gaussian
converse; the sign/magnitude disclosure construction with its key-rate
integral; the greedy quantize-then-disclose scheme; and a brute-force
evaluator for finite-alphabet strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .errors import InfeasibleError, SolverError
from .model import (
    STANDARD_SOURCE,
    GaussianSource,
    PayoffValue,
    RatePair,
    entropy_bits,
    normal_pdf,
)
from .quantizer import (
    QuantizerSpec,
    bob_distortion,
    build_bin_table,
    entropy_given_residue,
    eve_mmse_given_residue,
    output_entropy,
    step_size_for_entropy,
)

__all__ = [
    "SCHEME_IDS",
    "PayoffPoint",
    "CorrelationTriple",
    "FiniteJoint",
    "FiniteStrategyReport",
    "GeneralAwarenessReport",
    "GreedyQuantizedScheme",
    "weak_eavesdropper_payoff",
    "jointly_gaussian_payoff",
    "optimal_high_key_payoff",
    "asymptotic_quantization_bound",
    "verify_jointly_gaussian_grid",
    "sign_split_key_requirement",
    "verify_general_awareness_construction",
    "greedy_quantized_scheme",
    "evaluate_finite_strategy",
]

SCHEME_IDS = ("weak", "jointly_gaussian", "optimal_high_key", "quantized_greedy", "lp_quantized")

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PayoffPoint:
    """One evaluated point of a scheme's rate-payoff curve."""

    rates: RatePair
    scheme_id: str
    payoff: PayoffValue
    meta: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.scheme_id not in SCHEME_IDS:
            raise ValueError(f"unknown scheme_id {self.scheme_id!r}")
        # No scheme beats perfect secrecy at its message rate.
        cap = 1.0 - 2.0 ** (-2.0 * self.rates.rate)
        if self.payoff.value > cap + 1e-9:
            raise ValueError(
                f"payoff {self.payoff.value} exceeds the rate-{self.rates.rate} cap {cap}"
            )


@dataclass(frozen=True)
class CorrelationTriple:
    """Correlations among source, reconstruction, and disclosed variable."""

    rho_xy: float
    rho_xu: float
    rho_yu: float

    def __post_init__(self) -> None:
        for name in ("rho_xy", "rho_xu", "rho_yu"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")
        if self.validity() < -1e-12:
            raise ValueError("correlations are not realizable by any covariance matrix")

    def validity(self) -> float:
        """Determinant of the 3x3 correlation matrix; >= 0 iff realizable."""
        a, b, c = self.rho_xy, self.rho_xu, self.rho_yu
        return 1.0 + 2.0 * a * b * c - a * a - b * b - c * c


@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """Joint pmf of (source, reconstruction, disclosure) on finite supports.

    pmf[i, j, k] = P(X = x_points[i], Y = y_points[j], U = u_points[k]).
    """

    x_points: np.ndarray
    y_points: np.ndarray
    u_points: np.ndarray
    pmf: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x_points", "y_points", "u_points"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a non-empty finite 1-d array")
            object.__setattr__(self, name, arr)
        p = np.asarray(self.pmf, dtype=float)
        want = (self.x_points.size, self.y_points.size, self.u_points.size)
        if p.shape != want:
            raise ValueError(f"pmf shape {p.shape} does not match supports {want}")
        if (p < -1e-12).any():
            raise ValueError("pmf must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"pmf sums to {total}, expected 1")
        object.__setattr__(self, "pmf", np.clip(p, 0.0, None))


@dataclass(frozen=True)
class FiniteStrategyReport:
    """Constraint quantities and payoff of one finite-alphabet strategy."""

    i_xy_given_u: float
    i_x_uy: float
    payoff: PayoffValue


@dataclass(frozen=True)
class GeneralAwarenessReport:
    """Checks of the sign-disclosure construction under a fully aware eavesdropper."""

    i_xyv_given_u: float
    markov_ok: bool
    degenerate: bool


def weak_eavesdropper_payoff(rates: RatePair) -> PayoffValue:
    """Best payoff against an eavesdropper who never sees the message.

    Any positive key rate suffices; a zero key rate is infeasible.
    """
    if rates.key_rate <= 0.0:
        raise InfeasibleError("the weak-eavesdropper scheme needs a positive key rate")
    return PayoffValue(1.0 - 2.0 ** (-2.0 * rates.rate))


def jointly_gaussian_payoff(rates: RatePair) -> PayoffValue:
    """Best payoff when all strategy variables are jointly Gaussian."""
    r_eff = min(rates.rate, rates.key_rate)
    return PayoffValue(1.0 - 2.0 ** (-2.0 * r_eff))


def optimal_high_key_payoff(rates: RatePair) -> PayoffValue:
    """Optimal payoff when at least one bit of key per symbol is available."""
    if rates.key_rate < 1.0:
        raise InfeasibleError(
            f"the unit-key scheme needs key_rate >= 1 bit, got {rates.key_rate}"
        )
    return PayoffValue(1.0 - 2.0 ** (-2.0 * rates.rate))


def asymptotic_quantization_bound(rate_bits: float) -> PayoffValue:
    """Large-rate payoff guarantee of uniform quantization with a unit key.

    May be negative at small rates, where it is meaningless but still
    a valid lower bound.
    """
    if not math.isfinite(rate_bits) or rate_bits < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {rate_bits}")
    return PayoffValue(1.0 - 0.5 * math.pi * math.e * 2.0 ** (-2.0 * rate_bits))


def verify_jointly_gaussian_grid(
    rates: RatePair, step: float = 0.005
) -> tuple[float, CorrelationTriple]:
    """Exhaustive grid certificate for the jointly Gaussian payoff curve.

    Maximizes g = rho_xy**2 - rho_xu**2 over realizable correlation
    triples meeting both rate constraints.  The returned maximum must
    land within 2*step of the closed form, and the reported maximizer
    is the lexicographically smallest grid triple attaining it.
    """
    if not 0.0 < step <= 0.05:
        raise ValueError(f"grid step must lie in (0, 0.05], got {step}")
    r, rs = rates.rate, rates.key_rate

    # Sign flips (a,b,c) -> (|a|,|b|,c*sign(ab)) preserve g, the
    # determinant, and both constraints, so nonnegative a, b suffice.
    axis_pos = np.arange(0.0, 1.0 + 0.5 * step, step)
    axis_full = np.arange(-1.0, 1.0 + 0.5 * step, step)
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
    if best is None:
        raise SolverError("grid search found no realizable correlation triple")
    return best_g, best


def _binary_entropy_of_logit(z: float) -> float:
    """H_binary(sigmoid(z)) in bits, stable for |z| up to overflow."""
    sp_pos = np.logaddexp(0.0, z)
    sp_neg = np.logaddexp(0.0, -z)
    p = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
    return float(p * sp_neg + (1.0 - p) * sp_pos) / _LN2


def sign_split_key_requirement(rate_bits: float) -> float:
    """Information the reconstruction's sign carries about the source.

    For the magnitude-disclosing construction at the given rate, returns
    I(X; V | U) in bits where V is the sign and U the magnitude of the
    reconstruction.  Strictly below 1 bit for finite rates; the one-bit
    key therefore always covers the sign.  Absolute error <= 1e-4.
    """
    if not math.isfinite(rate_bits) or rate_bits < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {rate_bits}")
    if rate_bits == 0.0:
        return 0.0
    rho2 = 1.0 - 2.0 ** (-2.0 * rate_bits)
    if rho2 >= 1.0:
        # Saturated at double precision; the true value is within one ulp of 1.
        return math.nextafter(1.0, 0.0)
    rho = math.sqrt(rho2)
    s = math.sqrt(1.0 - rho2)
    s2 = 1.0 - rho2

    def sign_entropy_given(y: float) -> float:
        # Conditional entropy of the sign given Y = y, as an integral in
        # the posterior log-odds z ~ N(a, b^2).
        a = 2.0 * rho2 * y * y / s2
        b = 2.0 * rho * y / s
        if b < 1e-12:
            return _binary_entropy_of_logit(a)
        lo = max(-46.0, a - 9.0 * b)
        hi = min(46.0, a + 9.0 * b)
        if lo >= hi:
            return 0.0
        val, _ = integrate.quad(
            lambda z: _binary_entropy_of_logit(z) * normal_pdf((z - a) / b) / b,
            lo,
            hi,
            epsabs=1e-7,
            limit=200,
        )
        return val

    def outer(y: float) -> float:
        return normal_pdf(y) * sign_entropy_given(y)

    # The log-odds spike leaves the integration window near this y; split
    # the outer integral there so quad sees smooth pieces on both sides.
    u_star = (18.0 + math.sqrt(324.0 + 8.0 * 46.0)) / 4.0
    y_split = min(max(u_star * s / rho, 1e-6), 7.999)
    part1, _ = integrate.quad(outer, 0.0, y_split, epsabs=2.5e-5, limit=200)
    part2, _ = integrate.quad(outer, y_split, 8.0, epsabs=2.5e-5, limit=200)
    value = 1.0 - 2.0 * (part1 + part2)
    return min(max(value, 0.0), math.nextafter(1.0, 0.0))


def verify_general_awareness_construction(rate_bits: float) -> GeneralAwarenessReport:
    """Check the sign-disclosure construction against a fully aware eavesdropper.

    Confirms that the reconstruction is recovered exactly from magnitude
    and sign, and that the sign is an unbiased coin given the magnitude,
    which pins its conditional information content at exactly one bit.
    """
    if not math.isfinite(rate_bits) or rate_bits < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {rate_bits}")
    d = 2.0 ** (-2.0 * rate_bits)
    var_y = 1.0 - d
    if var_y <= 0.0:
        # Zero rate: the reconstruction collapses to a point mass.
        return GeneralAwarenessReport(i_xyv_given_u=0.0, markov_ok=True, degenerate=True)

    sigma_y = math.sqrt(var_y)
    ys = np.linspace(-8.0 * sigma_y, 8.0 * sigma_y, 4001)
    mags = np.abs(ys)
    signs = np.sign(ys)
    markov_ok = bool(np.array_equal(mags * signs, ys))

    # Sign balance given the magnitude: density ratio must be exactly 1/2.
    scaled = mags[mags > 0.0] / sigma_y
    num = normal_pdf(scaled)
    cond = num / (num + normal_pdf(-scaled))
    markov_ok = markov_ok and bool(np.all(np.abs(cond - 0.5) <= 1e-12))

    # The conditional sign entropy is the constant 1 bit, so its
    # expectation needs no quadrature.
    return GeneralAwarenessReport(
        i_xyv_given_u=1.0 if markov_ok else math.nan,
        markov_ok=markov_ok,
        degenerate=False,
    )


class GreedyQuantizedScheme:
    """Greedy quantize-then-disclose scheme at a fixed message rate.

    Picks the finest step whose output entropy fits the message rate,
    then, per key budget, discloses the bin index modulo the divisor
    that maximizes payoff subject to the residual entropy fitting the
    key rate.  Reusable across key rates: the table and the per-divisor
    sweep are computed once.  `n_max` bounds the divisors tried (default:
    every divisor up to the table width).
    """

    def __init__(
        self,
        rate_bits: float,
        source: GaussianSource = STANDARD_SOURCE,
        *,
        n_max: Optional[int] = None,
    ) -> None:
        if n_max is not None and (int(n_max) != n_max or n_max < 1):
            raise ValueError(f"n_max must be an integer >= 1, got {n_max}")
        if not math.isfinite(rate_bits) or rate_bits <= 0.0:
            raise InfeasibleError(f"message rate must be positive, got {rate_bits}")
        self.rate_bits = float(rate_bits)
        self.source = source
        self.step = step_size_for_entropy(source, rate_bits)
        self.table = build_bin_table(source, QuantizerSpec(step=self.step))
        self.entropy_bits = output_entropy(self.table)
        self.bob_mse = bob_distortion(self.table, "lattice")
        full = 2 * self.table.max_index + 1
        self.n_max = min(int(n_max), full) if n_max is not None else full
        self._cond_entropy = np.array(
            [entropy_given_residue(self.table, n) for n in range(1, self.n_max + 1)]
        )
        self._eve_mmse = np.array(
            [eve_mmse_given_residue(self.table, n) for n in range(1, self.n_max + 1)]
        )

    def evaluate(self, key_rate_bits: float) -> PayoffPoint:
        """Best feasible divisor at one key rate, or the least-violating one."""
        if not math.isfinite(key_rate_bits) or key_rate_bits < 0.0:
            raise ValueError(f"key rate must be finite and >= 0, got {key_rate_bits}")
        var = self.source.variance
        feasible = self._cond_entropy <= key_rate_bits + 1e-12
        payoffs = (self._eve_mmse - self.bob_mse) / var
        if feasible.any():
            masked = np.where(feasible, payoffs, -math.inf)
            pick = int(np.argmax(masked))
            ok = True
        else:
            pick = int(np.argmin(self._cond_entropy - key_rate_bits))
            ok = False
        meta = {
            "t": self.step,
            "n_mod": pick + 1,
            "feasible": ok,
            "slack_bits": float(key_rate_bits - self._cond_entropy[pick]),
            "entropy_bits": self.entropy_bits,
            "reconstruction": "lattice",
            "n_max": self.n_max,
        }
        return PayoffPoint(
            rates=RatePair(self.rate_bits, key_rate_bits),
            scheme_id="quantized_greedy",
            payoff=PayoffValue(float(payoffs[pick])),
            meta=meta,
        )


def greedy_quantized_scheme(
    rates: RatePair,
    source: GaussianSource = STANDARD_SOURCE,
    *,
    n_max: Optional[int] = None,
) -> PayoffPoint:
    """One-shot evaluation of the greedy quantized scheme at a rate pair."""
    return GreedyQuantizedScheme(rates.rate, source, n_max=n_max).evaluate(rates.key_rate)


def evaluate_finite_strategy(joint: FiniteJoint, source: GaussianSource) -> FiniteStrategyReport:
    """Brute-force constraint and payoff evaluation of a finite strategy.

    Computes I(X;Y|U) and I(X;U,Y) in bits, and the payoff with the
    eavesdropper playing the conditional-mean estimate of X from U.
    """
    p = joint.pmf
    p_xu = p.sum(axis=1)
    p_yu = p.sum(axis=0)
    p_xy = p.sum(axis=2)
    p_u = p_xu.sum(axis=0)
    p_x = p_xu.sum(axis=1)

    h_xu = entropy_bits(p_xu.ravel())
    h_yu = entropy_bits(p_yu.ravel())
    h_xyu = entropy_bits(p.ravel())
    h_u = entropy_bits(p_u)
    h_x = entropy_bits(p_x)
    i_xy_given_u = max(h_xu + h_yu - h_xyu - h_u, 0.0)
    i_x_uy = max(h_x + h_yu - h_xyu, 0.0)

    x = joint.x_points
    second = float(np.dot(p_x, x * x))
    cond_first = x @ p_xu
    pos = p_u > 0.0
    eve = second - float(np.sum(cond_first[pos] ** 2 / p_u[pos]))
    diff = joint.y_points[None, :] - x[:, None]
    bob = float(np.sum(p_xy * diff * diff))
    value = (eve - bob) / source.variance
    return FiniteStrategyReport(i_xy_given_u, i_x_uy, PayoffValue(value))
