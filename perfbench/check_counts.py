"""Self-test of the tracer: its counts repeat exactly and it leaves no wrappers.

Two traced runs of one small instance (support-9 LP and the greedy
scheme at R = 2.7) must give identical, nonzero counts, the same
stdout as an untraced run, and afterwards every module attribute must
be the original function again.  Exits non-zero on any failure:

    python3 perfbench/check_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    COUNTERS, METHOD_SPANS, SPANS, Tracer, pass_metrics, secgauss_modules,
)
from worker import run_command  # noqa: E402

INSTANCE = ["curve", "--schemes", "lp_quantized,quantized_greedy", "--r", "2.7",
            "--rs-range", "0.25:0.75:0.25", "--lp-max-support", "9"]
REPEATED = ("simplex.pivots", "lp.candidates", "model.truncated_moments.calls",
            "quantizer.residue_stats.calls", "quantizer.step_search.evals")


def bindings() -> dict:
    """Every hooked attribute as bound now, keyed by (owner name, attribute)."""
    attrs = {attr for _, attr, *_ in SPANS + COUNTERS}
    out = {(m.__name__, a): getattr(m, a)
           for m in secgauss_modules() for a in attrs if hasattr(m, a)}
    for mod, cls_name, attr, _ in METHOD_SPANS:
        cls = getattr(sys.modules[f"secgauss.{mod}"], cls_name)
        out[(cls_name, attr)] = cls.__dict__[attr]
    return out


def traced_counts(main) -> tuple[dict, str]:
    tracer = Tracer()
    tracer.install()
    try:
        code, text = run_command(main, INSTANCE)
    finally:
        tracer.remove()
    if code != 0:
        raise SystemExit(f"traced run exited with {code!r}")
    metrics = pass_metrics(*tracer.take())
    return {name: metrics[name] for name in REPEATED}, text


def main() -> int:
    from secgauss import cli

    before = bindings()
    code, plain = run_command(cli.main, INSTANCE)
    if code != 0:
        print(f"untraced run exited with {code!r}", file=sys.stderr)
        return 1
    first, text1 = traced_counts(cli.main)
    second, text2 = traced_counts(cli.main)
    after = bindings()

    problems = []
    if first != second:
        problems.append(f"counts differ between runs: {first} vs {second}")
    problems += [f"{name} is 0" for name, value in first.items() if value == 0]
    if not plain == text1 == text2:
        problems.append("traced output differs from untraced output")
    problems += [f"{owner}.{attr} is still wrapped" for (owner, attr), fn in before.items()
                 if after.get((owner, attr)) is not fn]
    for name, value in first.items():
        print(f"{name} {value}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("ok: counts repeat exactly and every attribute is unwrapped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
