"""Command-line front end: curve sweeps, LP solves, simulations, verification.

All tabular output is CSV with 12-significant-digit numerics so reruns
with identical flags are byte-identical.  Exit codes: 0 success, 2
usage error, 3 infeasible instance, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import InfeasibleError, SolverError
from .lp import build_quantized_pmf, covers_entropy, enumerate_subset_candidates, sweep_secrecy_lp
from .model import GaussianSource, RatePair
from .quantizer import (
    bob_distortion,
    build_bin_table,
    entropy_given_magnitude,
    entropy_given_residue,
    eve_mmse_given_magnitude,
    eve_mmse_given_residue,
    output_entropy,
    step_size_for_entropy,
)
from .schemes import (
    SCHEME_IDS,
    GreedyQuantizedScheme,
    jointly_gaussian_payoff,
    optimal_high_key_payoff,
    weak_eavesdropper_payoff,
)
from .sim import SIM_SCENARIOS, SIM_SCHEMES, SimConfig, run_sim
from .verify import SUITES, run_suite

CSV_HEADER = "scheme,R_bits,Rs_bits,payoff,T,N,feasible,notes"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# Default of --max-support and --lp-max-support: the support the LP pmf is folded to.
DEFAULT_SUPPORT_CAP = 15

# Longest START:STOP:STEP grid accepted, far beyond any useful sweep; the
# length is checked before the grid is built.
_MAX_GRID_POINTS = 10_000


def _fmt(value) -> str:
    """12-significant-digit serialization; empty for missing fields."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _csv_row(scheme, r, rs, payoff, t, n, feasible, notes="") -> str:
    cells = [scheme, _fmt(r), _fmt(rs), _fmt(payoff), _fmt(t), _fmt(n), _fmt(feasible), notes]
    return ",".join(cells)


def _infeasible_rows(scheme, r, rs_grid, t, notes) -> list[str]:
    return [_csv_row(scheme, r, rs, math.nan, t, None, False, notes) for rs in rs_grid]


def _parse_grid(single, rng, flag_single: str, flag_range: str) -> list[float]:
    """One value from --x, or an inclusive START:STOP:STEP grid from --x-range."""
    if (single is None) == (rng is None):
        raise ValueError(f"exactly one of {flag_single} or {flag_range} is required")
    if single is not None:
        return [float(single)]
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag_range} must look like START:STOP:STEP, got {rng!r}")
    start, stop, step = (float(p) for p in parts)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError(f"{flag_range} values must be finite")
    if step <= 0.0:
        raise ValueError(f"{flag_range} step must be positive, got {step}")
    if start > stop:
        raise ValueError(f"{flag_range} start must not exceed stop")
    intervals = (stop - start) / step + 1e-9
    if intervals >= _MAX_GRID_POINTS:
        raise ValueError(f"{flag_range} has more than the {_MAX_GRID_POINTS} points supported")
    count = int(math.floor(intervals)) + 1
    return [start + i * step for i in range(count)]


def _check_rates(r_grid, rs_grid) -> None:
    """Refuse each rate that RatePair refuses: each r against rs = 0, each rs against r = 0."""
    for r, rs in [(r, 0.0) for r in r_grid] + [(0.0, rs) for rs in rs_grid]:
        RatePair(r, rs)


def _emit(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _source(args) -> GaussianSource:
    return GaussianSource(mean=args.mu, variance=args.sigma2)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma2", type=float, default=1.0, help="source variance (default 1.0)")
    parser.add_argument("--mu", type=float, default=0.0, help="source mean (default 0.0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser: built on the first call, the same object on every later one.

    `main` parses each command with it, so a process builds it once;
    callers must not add to it or change it.
    """
    parser = argparse.ArgumentParser(
        prog="secgauss",
        description="Secrecy payoff curves, LP solves, and game simulations "
        "for quantized Gaussian sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="sweep schemes over rate grids")
    _add_common(p_curve)
    p_curve.add_argument("--schemes", required=True, help="comma-separated scheme ids")
    p_curve.add_argument("--r", type=float, default=None, help="fixed message rate in bits")
    p_curve.add_argument("--r-range", default=None, help="message rates START:STOP:STEP")
    p_curve.add_argument("--rs", type=float, default=None, help="fixed key rate in bits")
    p_curve.add_argument("--rs-range", default=None, help="key rates START:STOP:STEP")
    p_curve.add_argument("--n-max", type=int, default=None, help="greedy modulus sweep bound")
    p_curve.add_argument(
        "--lp-max-support", type=int, default=DEFAULT_SUPPORT_CAP,
        help="fold the LP pmf to this support (odd)",
    )
    p_curve.add_argument(
        "--lp-mode",
        choices=("continuous", "alphabet_restricted"),
        default="continuous",
        help="eavesdropper estimate alphabet for lp_quantized",
    )

    p_sim = sub.add_parser("sim", help="seeded Monte Carlo of one scheme")
    _add_common(p_sim)
    p_sim.add_argument("--scheme", required=True, choices=SIM_SCHEMES)
    p_sim.add_argument("--scenario", default="weak", choices=SIM_SCENARIOS)
    p_sim.add_argument("--r", type=float, default=None, help="message rate budget in bits")
    p_sim.add_argument("--rs", type=float, default=None, help="key rate budget in bits")
    p_sim.add_argument("--t", type=float, default=None, help="quantizer step (source units)")
    p_sim.add_argument("--n", type=int, default=100_000, help="number of symbols")
    p_sim.add_argument("--seed", type=int, default=None, help="PRNG seed (required)")

    p_lp = sub.add_parser("lp", help="secrecy LP at a quantizer step")
    _add_common(p_lp)
    p_lp.add_argument("--t", type=float, required=True, help="quantizer step (source units)")
    p_lp.add_argument("--r", type=float, required=True, help="message rate in bits")
    p_lp.add_argument("--rs", type=float, default=None, help="fixed key rate in bits")
    p_lp.add_argument("--rs-range", default=None, help="key rates START:STOP:STEP")
    p_lp.add_argument(
        "--mode", choices=("continuous", "alphabet_restricted"), default="continuous"
    )
    p_lp.add_argument(
        "--max-support", type=int, default=DEFAULT_SUPPORT_CAP,
        help="fold the pmf to this support (odd)",
    )

    p_stats = sub.add_parser("quantizer-stats", help="entropies and distortions of one table")
    _add_common(p_stats)
    p_stats.add_argument("--t", type=float, required=True, help="quantizer step (source units)")
    p_stats.add_argument("--n-mod", type=int, default=None, help="also report modulus statistics")

    p_verify = sub.add_parser("verify", help="run a numerical verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    for p in sub.choices.values():  # all take --out; verify's suites fix their own sources
        p.add_argument("--out", default=None, help="output path (default standard output)")

    return parser


def cmd_curve(args) -> int:
    source = _source(args)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ValueError("--schemes must name at least one scheme")
    for s in schemes:
        if s not in SCHEME_IDS:
            raise ValueError(f"unknown scheme {s!r}; choose from {', '.join(SCHEME_IDS)}")
    r_grid = _parse_grid(args.r, args.r_range, "--r", "--r-range")
    rs_grid = _parse_grid(args.rs, args.rs_range, "--rs", "--rs-range")
    _check_rates(r_grid, rs_grid)

    rows = []
    for scheme in schemes:
        for r in r_grid:
            rows.extend(_curve_rows(scheme, r, rs_grid, source, args))
    _emit(args.out, "\n".join([CSV_HEADER] + rows) + "\n")
    return EXIT_OK


def _curve_rows(scheme: str, r: float, rs_grid, source, args) -> list[str]:
    rows = []
    if scheme == "quantized_greedy":
        try:
            plan = GreedyQuantizedScheme(r, source, n_max=args.n_max)
        except InfeasibleError as exc:
            return _infeasible_rows(scheme, r, rs_grid, None, str(exc))
        for rs in rs_grid:
            point = plan.evaluate(rs)
            note = "" if point.feasible else "no feasible modulus within key budget"
            rows.append(_csv_row(scheme, r, rs, point.payoff.value, plan.step, point.n_mod,
                                 point.feasible, note))
        return rows
    if scheme == "lp_quantized":
        if r == 0.0:
            return _infeasible_rows(scheme, r, rs_grid, None, "rate must be positive")
        table = step_size_for_entropy(source, r)
        return _lp_rows(table, r, rs_grid, args.lp_max_support, args.lp_mode, False)

    closed = {
        "weak": weak_eavesdropper_payoff,
        "jointly_gaussian": jointly_gaussian_payoff,
        "optimal_high_key": optimal_high_key_payoff,
    }[scheme]
    for rs in rs_grid:
        try:
            value = closed(RatePair(r, rs)).value
            rows.append(_csv_row(scheme, r, rs, value, None, None, True))
        except InfeasibleError as exc:
            rows.append(_csv_row(scheme, r, rs, math.nan, None, None, False, str(exc)))
    return rows


def cmd_sim(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required; simulations must be reproducible")
    source = _source(args)

    step = args.t
    if args.scheme == "full_encryption":
        if args.r is None:
            raise ValueError("--r is required for full_encryption")
        r = args.r
        rs = args.rs if args.rs is not None else r
    else:
        step = source.std if step is None else step
        # Without --r the budget is the rate the scheme's table needs:
        # run_sim builds that table, so run uncapped and report its rate.
        r = args.r if args.r is not None else sys.float_info.max
        rs = args.rs if args.rs is not None else (1.0 if args.scheme == "sign_pad" else 0.0)

    config = SimConfig(
        scheme=args.scheme,
        scenario=args.scenario,
        rates=RatePair(r, rs),
        step=step,
        n_symbols=args.n,
        seed=args.seed,
    )
    result = run_sim(config, source)
    if args.r is None:
        r = result.model_rate_bits

    header = (
        "scheme,scenario,R_bits,Rs_bits,n,seed,empirical_payoff,std_error,"
        "bob_mse,eve_mse,model_rate_bits,model_key_bits"
    )
    row = ",".join(
        [
            args.scheme,
            args.scenario,
            _fmt(r),
            _fmt(rs),
            str(args.n),
            str(args.seed),
            _fmt(result.empirical_payoff),
            _fmt(result.std_error),
            _fmt(result.bob_mse),
            _fmt(result.eve_mse),
            _fmt(result.model_rate_bits),
            _fmt(result.model_key_bits),
        ]
    )
    _emit(args.out, header + "\n" + row + "\n")
    print(
        f"payoff {result.empirical_payoff:.6g} (3*std_error {3 * result.std_error:.3g}), "
        f"rate {result.model_rate_bits:.6g} bits, key {result.model_key_bits:.6g} bits",
        file=sys.stderr,
    )
    return EXIT_OK


def _lp_rows(table, r, rs_grid, max_support, mode, mixtures: bool) -> list[str]:
    """Subset-LP rows on one bin table; `mixtures` adds D and the active mixture to notes."""
    pmf = build_quantized_pmf(table, max_support=max_support)
    # The message-rate gate is the same at every key rate: settle it
    # before paying for up to 2**max_support candidates.
    if not covers_entropy(pmf, r):
        return _infeasible_rows("lp_quantized", r, rs_grid, table.step,
                                "rate below quantized entropy")
    candidates = enumerate_subset_candidates(pmf, mode)
    rows = []
    for rs, sol in zip(rs_grid, sweep_secrecy_lp(pmf, r, rs_grid, candidates)):
        note = f"support={pmf.points.size}"
        if mixtures:
            active = [f"{candidates.label(j)}:{sol.weights[j]:.12g}"
                      for j in (sol.weights > 1e-9).nonzero()[0]]
            note = f"D={sol.value:.12g};{note};active=" + ";".join(active)
        rows.append(_csv_row("lp_quantized", r, rs, sol.value / table.source.variance, table.step,
                             None, True, note))
    return rows


def cmd_lp(args) -> int:
    rs_grid = _parse_grid(args.rs, args.rs_range, "--rs", "--rs-range")
    _check_rates([args.r], rs_grid)
    table = build_bin_table(_source(args), args.t)
    rows = _lp_rows(table, args.r, rs_grid, args.max_support, args.mode, True)
    _emit(args.out, "\n".join([CSV_HEADER] + rows) + "\n")
    return EXIT_OK


def cmd_quantizer_stats(args) -> int:
    source = _source(args)
    table = build_bin_table(source, args.t)
    stats = [
        ("step", args.t),
        ("max_index", table.max_index),
        ("entropy_bits", output_entropy(table)),
        ("entropy_given_magnitude_bits", entropy_given_magnitude(table)),
        ("bob_mse_lattice", bob_distortion(table, "lattice")),
        ("bob_mse_centroid", bob_distortion(table, "centroid")),
        ("eve_mmse_magnitude", eve_mmse_given_magnitude(table)),
    ]
    if args.n_mod is not None:
        stats.append((f"entropy_given_mod{args.n_mod}_bits",
                      entropy_given_residue(table, args.n_mod)))
        stats.append((f"eve_mmse_mod{args.n_mod}", eve_mmse_given_residue(table, args.n_mod)))
    lines = ["quantity,value"] + [f"{name},{_fmt(value)}" for name, value in stats]
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(run_suite(name))
    text = "\n".join(check.line() for check in checks) + "\n"
    _emit(args.out, text)
    if all(check.passed for check in checks):
        return EXIT_OK
    print(f"{sum(not c.passed for c in checks)} of {len(checks)} checks failed", file=sys.stderr)
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "curve": cmd_curve,
        "sim": cmd_sim,
        "lp": cmd_lp,
        "quantizer-stats": cmd_quantizer_stats,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
