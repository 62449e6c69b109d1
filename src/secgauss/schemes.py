"""Achievable secrecy payoff schemes and their verifiers.

Closed-form payoff curves for the weak-eavesdropper, jointly Gaussian,
and unit-key regimes; a grid-search certifier for the jointly Gaussian
converse; the sign/magnitude disclosure construction with its key-rate
integral; the greedy quantize-then-disclose scheme; and a brute-force
evaluator for finite-alphabet strategies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError
from .model import (
    STANDARD_SOURCE,
    GaussianSource,
    PayoffValue,
    RatePair,
    _frozen,
    _pmf,
    _whole,
    entropy_bits,
)
from .quantizer import (
    bob_distortion,
    entropy_given_residue,
    eve_mmse_given_residue,
    step_size_for_entropy,
)

__all__ = [
    "SCHEME_IDS",
    "PayoffPoint",
    "CorrelationTriple",
    "FiniteJoint",
    "FiniteStrategyReport",
    "GreedyQuantizedScheme",
    "weak_eavesdropper_payoff",
    "jointly_gaussian_payoff",
    "optimal_high_key_payoff",
    "asymptotic_quantization_bound",
    "verify_jointly_gaussian_grid",
    "sign_split_key_requirement",
    "evaluate_finite_strategy",
]

SCHEME_IDS = ("weak", "jointly_gaussian", "optimal_high_key", "quantized_greedy", "lp_quantized")

_LN2 = math.log(2.0)
_GRID_BLOCK = 8192  # grid entries per block of whole rows of bounds: 64 KB temporaries
_Y_PANELS, _T_PANELS = 6, 16  # Gauss-Legendre panels of the sign-split quadrature's two integrals
_QUAD_BLOCK = 8192  # tensor nodes per block of that quadrature: 64 KB temporaries
_MAX_SWEEP = 250_000_000  # n_max * table width, the greedy's residue sweep reading half of each


@dataclass(frozen=True)
class PayoffPoint:
    """The greedy scheme at one key rate: its payoff and the divisor it discloses the index by.

    `feasible` is whether the residue mod `n_mod` fits the key rate, and
    `slack_bits` is the key rate minus the residue's key need (negative
    when infeasible).
    """

    rates: RatePair
    payoff: PayoffValue
    n_mod: int
    feasible: bool
    slack_bits: float

    def __post_init__(self) -> None:
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
            arr = _frozen(getattr(self, name), float)
            if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a non-empty finite 1-d array")
            object.__setattr__(self, name, arr)
        p = _pmf(self.pmf)
        want = (self.x_points.size, self.y_points.size, self.u_points.size)
        if p.shape != want:
            raise ValueError(f"pmf shape {p.shape} does not match supports {want}")
        object.__setattr__(self, "pmf", p)


@dataclass(frozen=True)
class FiniteStrategyReport:
    """Constraint quantities and payoff of one finite-alphabet strategy."""

    i_xy_given_u: float
    i_x_uy: float
    payoff: PayoffValue


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
    RatePair(rate_bits, 0.0)  # a ValueError for a non-finite or negative rate
    return PayoffValue(1.0 - 0.5 * math.pi * math.e * 2.0 ** (-2.0 * rate_bits))


def verify_jointly_gaussian_grid(rates: RatePair, step: float) -> tuple[float, CorrelationTriple]:
    """Exhaustive grid certificate for the jointly Gaussian payoff curve.

    Maximizes g = rho_xy**2 - rho_xu**2 over realizable correlation
    triples meeting both rate constraints on the grid of multiples of
    `step`, which must divide 1.  The returned maximum must land within
    2*step of the closed form, and the reported maximizer is the
    lexicographically smallest grid triple attaining it.

    Method.  With (a, b, c) = (rho_xy, rho_xu, rho_yu), the rate
    constraints read det = (1-b^2)(1-c^2) - (a-bc)^2 >= D = max((1-b^2)
    (1-c^2) 2^(-2 Rs), (1-c^2) 2^(-2 R), 1e-15), so for fixed (b, c) the
    feasible a form an interval up to a+ = bc + sqrt((1-b^2)(1-c^2) - D),
    or bc where that is complex (as when b = 1 or |c| = 1).  The
    feasibility test is tried at the three grid points from
    top = floor(a+/step) + 1 down; g grows with a, so the least (a, b, c)
    index among these per-(b, c) maxima is the least maximizer.  It runs
    first on the row b = 0, home of the continuous optimum (a, 0, 0), for a
    level, then on the columns (b, c) whose bound = g at top >= level.
    Sign flips (a,b,c) -> (|a|,|b|,c*sign(ab)) preserve g, det and both
    constraints, so nonnegative a, b suffice; axis entry k is k*step.
    bound, the only grid-sized array, covers the leading rows with 1 - b^2
    >= level, in blocks of whole rows (b values) of about `_GRID_BLOCK`
    entries (64 KB temporaries; each entry one expression whatever the
    block); the scans recompute top, and nothing is cached across calls.

    Exactness.  The 1e-12 slacks and rounding move the test's roots in a,
    and the computed a+, by under sqrt(2e-12) < 2e-6 each, so for step >
    4e-6 the largest passing index is within one of floor(a+/step).
    Finer grids (over 1e11 points) cannot be allocated.  No column passes
    above top, a <= 1 and rounding is monotone, so g <= bound <= 1 - b^2
    exactly: a skipped row or column has g below an attained value.
    """
    if not 0.0 < step <= 0.05:
        raise ValueError(f"grid step must lie in (0, 0.05], got {step}")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"grid step must divide 1, got {step}")
    r, rs = rates.rate, rates.key_rate
    axis_pos = np.minimum(np.arange(n + 1) * step, 1.0)
    axis_full = np.clip(np.arange(-n, n + 1) * step, -1.0, 1.0)
    c_free = 1.0 - axis_full * axis_full
    key_scale, rate_floor = 2.0 ** (-2.0 * rs), c_free * 2.0 ** (-2.0 * r)

    def top_of(x, x2, y, free, floor):
        """(1-b^2)(1-c^2) and top at b = x, c = y; free = 1-c^2, floor = free*2^(-2R)."""
        peak = (1.0 - x2) * free
        d_need = np.maximum(peak * key_scale, floor).clip(1e-15)
        a_plus = x * y + np.sqrt(np.maximum(peak - d_need, 0.0))
        return peak, np.minimum(np.floor(a_plus / step).astype(int) + 1, n)

    def scan(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Highest passing a index of top, top-1, top-2 per column (-1 if none), and its g."""
        i, j = np.divmod(cols, axis_full.size)
        x, y = axis_pos[i], axis_full[j]
        x2, y2 = x * x, y * y
        p, t = top_of(x, x2, y, c_free[j], rate_floor[j])
        best = np.full(cols.size, -1)
        for k in (t, t - 1, t - 2):
            a = axis_pos[np.maximum(k, 0)]
            det = 1.0 - a * a - x2 - y2 + 2.0 * a * x * y
            with np.errstate(divide="ignore", invalid="ignore"):
                rs_need = 0.5 * np.log2(p / det)
                r_need = 0.5 * np.log2((1.0 - y2) / det)
            feasible = (det > 1e-15) & (rs_need <= rs + 1e-12) & (r_need <= r + 1e-12)
            best = np.where((best < 0) & (k >= 0) & feasible, k, best)
        return best, np.where(best >= 0, np.square(axis_pos[np.maximum(best, 0)]) - x2, -math.inf)

    # Never empty: (a, b) = (0, 0) with |c| < 1 gives det = 1 - c^2 and both needs 0.
    level = scan(np.arange(axis_full.size))[1].max()  # the row b = 0
    bound = np.empty((np.count_nonzero(1.0 - axis_pos * axis_pos >= level), axis_full.size))
    rows = max(_GRID_BLOCK // axis_full.size, 1)
    for lo in range(0, len(bound), rows):
        x = axis_pos[lo:min(lo + rows, len(bound)), None]
        x2 = x * x
        _, top = top_of(x, x2, axis_full, c_free, rate_floor)
        np.subtract(np.square(axis_pos[np.maximum(top, 0)]), x2, out=bound[lo:lo + rows])
    cols = np.flatnonzero(bound >= level)
    best, g = scan(cols)
    pick = np.lexsort((best, -g))[0]  # largest g, then least a index, then least flat (b, c)
    i, j = divmod(int(cols[pick]), axis_full.size)
    triple = CorrelationTriple(float(axis_pos[best[pick]]), float(axis_pos[i]), float(axis_full[j]))
    return float(g[pick]), triple


@functools.lru_cache(maxsize=4)
def _panel_rule(panels: int) -> tuple:
    """Read-only nodes and weights of `panels` equal 16-node Gauss-Legendre panels on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(16)
    return (_frozen(((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()),
            _frozen(np.tile(w / (2.0 * panels), panels)))


def _binary_entropy_of_logits(z: np.ndarray) -> np.ndarray:
    """H_binary(sigmoid(z)) in bits, elementwise, for finite z."""
    # softplus(+-z) = max(+-z, 0) + log1p(exp(-|z|)), weighted by p and 1 - p.
    p = 1.0 / (1.0 + np.exp(-z))
    return (np.log1p(np.exp(-np.abs(z))) + p * np.maximum(-z, 0.0)
            + (1.0 - p) * np.maximum(z, 0.0)) / _LN2


def sign_split_key_requirement(rate_bits: float) -> float:
    """Information the reconstruction's sign carries about the source.

    For the magnitude-disclosing construction at the given rate, returns
    I(X; V | U) in bits where V is the sign and U the magnitude of the
    reconstruction.  Strictly below 1 bit for finite rates; the one-bit
    key therefore always covers the sign.  Within 1e-13 of a 32-digit
    evaluation; 0 for rates too small to move 2^(-2r) off 1.

    I = 1 - 2 int_0^8 phi(y) h dy, h the mean of H(sigmoid(z)) over the
    sign's log-odds z ~ N(a, b^2) given Y = y, b = 2 rho y / s, a = b^2/2.
    z runs over [a - 9b, min(46, a + 9b)]: past 9 sd or |z| = 46 lies
    under 1e-18 bits, and a - 9b >= -40.5 needs no clip.  The window is
    empty past y_split = (9 + sqrt(173)) s / (2 rho), where the outer
    integral stops (or at 8).  Both are 16-node Gauss-Legendre panels,
    `_Y_PANELS` on [0, y_split] and `_T_PANELS` on the window in t =
    (z - a)/b, one array expression in blocks of `_QUAD_BLOCK` nodes.
    """
    RatePair(rate_bits, 0.0)  # a ValueError for a non-finite or negative rate
    rho2 = 1.0 - 2.0 ** (-2.0 * rate_bits)
    if rho2 == 0.0:
        return 0.0
    if rho2 >= 1.0:
        # Saturated at double precision; the true value is within one ulp of 1.
        return math.nextafter(1.0, 0.0)
    gain = 2.0 * math.sqrt(rho2 / (1.0 - rho2))  # b = gain * y
    y_split = min((9.0 + math.sqrt(173.0)) / gain, 8.0)
    (y_nodes, y_weights), (t_nodes, t_weights) = _panel_rule(_Y_PANELS), _panel_rule(_T_PANELS)
    rows, total = _QUAD_BLOCK // t_nodes.size, 0.0
    for lo in range(0, y_nodes.size, rows):
        y = y_split * y_nodes[lo:lo + rows]
        b = gain * y
        a = 0.5 * b * b
        width = np.maximum(np.minimum((46.0 - a) / b, 9.0) + 9.0, 0.0)  # t in [-9, width - 9]
        t = width[:, None] * t_nodes - 9.0
        h = width * ((_binary_entropy_of_logits(a[:, None] + b[:, None] * t)
                      * np.exp(-0.5 * t * t)) @ t_weights)
        total += float((np.exp(-0.5 * y * y) * h) @ y_weights[lo:lo + rows])
    # Each normal density carries 1/sqrt(2 pi), and 2 / (2 pi) = 1/pi.
    return min(max(1.0 - y_split * total / math.pi, 0.0), math.nextafter(1.0, 0.0))


class GreedyQuantizedScheme:
    """Greedy quantize-then-disclose scheme at a fixed message rate.

    Picks the finest step whose output entropy fits the message rate,
    then, per key budget, discloses the bin index modulo the divisor
    that maximizes payoff subject to the residual entropy fitting the
    key rate.  Reusable across key rates: the table and both residue
    statistics of every divisor (one array call each, which reads half
    the table per divisor: the bins 0..k for divisors up to k, pairs of
    bins above) are computed once.  `n_max` bounds the divisors (default:
    the table width); n_max times the width may not exceed `_MAX_SWEEP`,
    which keeps the sweep to seconds.
    """

    def __init__(
        self,
        rate_bits: float,
        source: GaussianSource = STANDARD_SOURCE,
        *,
        n_max: Optional[int] = None,
    ) -> None:
        if n_max is not None and (not _whole(n_max) or n_max < 1):
            raise ValueError(f"n_max must be an integer >= 1, got {n_max}")
        RatePair(rate_bits, 0.0)  # a ValueError for a non-finite or negative rate
        if rate_bits == 0.0:
            raise InfeasibleError(f"message rate must be positive, got {rate_bits}")
        self.rate_bits = float(rate_bits)
        self.source = source
        self.table = step_size_for_entropy(source, rate_bits)
        self.step = self.table.step
        self.bob_mse = bob_distortion(self.table, "lattice")
        full = 2 * self.table.max_index + 1
        self.n_max = min(int(n_max), full) if n_max is not None else full
        if self.n_max * full > _MAX_SWEEP:
            raise ValueError(f"{self.n_max} moduli of a {full}-bin table exceed the {_MAX_SWEEP}"
                             " entries the residue sweep allows; lower n_max (--n-max)")
        self._cond_entropy = entropy_given_residue(self.table, np.arange(1, self.n_max + 1))
        self._eve_mmse = eve_mmse_given_residue(self.table, np.arange(1, self.n_max + 1))

    def evaluate(self, key_rate_bits: float) -> PayoffPoint:
        """Best feasible divisor at one key rate, or the least-violating one."""
        rates = RatePair(self.rate_bits, key_rate_bits)
        var = self.source.variance
        feasible = self._cond_entropy <= key_rate_bits + 1e-12
        payoffs = (self._eve_mmse - self.bob_mse) / var
        ok = bool(feasible.any())
        if ok:
            masked = np.where(feasible, payoffs, -math.inf)
            # Payoffs within 1e-12 tie (n = 1 and n = 2 are equal at low rate
            # but for rounding), and ties go to the smallest divisor.
            pick = int(np.argmax(masked >= masked.max() - 1e-12))
        else:
            pick = int(np.argmin(self._cond_entropy - key_rate_bits))
        return PayoffPoint(rates, PayoffValue(float(payoffs[pick])), pick + 1, ok,
                           float(key_rate_bits - self._cond_entropy[pick]))


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

    # Eve's error about her estimate E[X|u], never E[X**2] minus a square,
    # which cancels away the payoff when the mean is large.
    x = joint.x_points
    eve_est = np.divide(x @ p_xu, p_u, out=np.zeros_like(p_u), where=p_u > 0.0)
    eve = float(np.sum(p_xu * (x[:, None] - eve_est) ** 2))
    diff = joint.y_points[None, :] - x[:, None]
    bob = float(np.sum(p_xy * diff * diff))
    value = (eve - bob) / source.variance
    return FiniteStrategyReport(i_xy_given_u, i_x_uy, PayoffValue(value))
