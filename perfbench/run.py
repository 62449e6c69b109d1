"""secgauss benchmark: whole CLI commands, end to end and layer by layer.

    python3 perfbench/run.py --workload lp_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root.  Each workload runs in its own fresh
interpreter (``worker.py``), a closed loop with one client issuing
commands back to back.  ``setup_s`` is measured in further fresh
interpreters.  ``--trace 0`` reports the end-to-end metrics:
``wall_ref_s``, the median pass time, and ``setup_s``, both scaled to a
reference machine speed (see ``probe.py``; ``workloads.SCALED`` says
which workloads' pass times are; the unscaled medians are printed beside
them), and ``peak_rss_mb``.  ``--trace 1`` reports the
per-layer metrics of a traced pass set plus the tracing overhead.
Every output row is checked against the reference recorded for the
seed's variant; the last stdout line is one JSON object, and the exit
code is non-zero when any row is off its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import PROBE_REF_S  # noqa: E402
from tracing import per_layer_names  # noqa: E402

SETUP_REPEATS = 5
# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0

# Times the import and the parser, then the machine-speed probe (its
# first call in a fresh interpreter is slower and is dropped).
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import secgauss.cli\n"
    "secgauss.cli.build_parser()\n"
    "took = time.perf_counter() - t\n"
    "import probe\n"
    "probe.probe_s()\n"
    "print(took, (probe.probe_s() + probe.probe_s()) / 2)\n"
)

END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    return env


def _remaining(started: float) -> float:
    left = RUN_LIMIT_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S:g} s reached")
    return left


def measure_setup(started: float) -> tuple[list[float], list[float]]:
    """Set-up seconds per fresh interpreter: as measured, and scaled.

    Set-up is importing secgauss.cli and building its parser.  The scaled
    time is multiplied by ``PROBE_REF_S`` over the probe taken in the same
    interpreter.  The first interpreter is discarded: it may compile
    bytecode for the checkout.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=_remaining(started))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        took, speed = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(took)
        scaled.append(took * PROBE_REF_S / speed)
    return raw[1:], scaled[1:]


def run_worker(workload: str, seed: int, seconds: float, trace: int, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=_remaining(started))
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def percentile_note(samples: list[float]) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            value = statistics.quantiles(samples, n=1000)[round(p * 10) - 1]
            return f"p{p:g} {value:.4f} s of {n} passes"
    return f"no percentile has ten of {n} passes beyond it"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "secgauss" / "cli.py").is_file():
        print(f"error: no secgauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(started)
        results = {w: run_worker(w, args.seed, args.seconds, args.trace, started) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = next(iter(results.values()))["env"]
    provenance = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **env,
        "probe_ref_s": PROBE_REF_S,
        "load": "closed loop, one client, commands back to back in one process",
    }
    print(json.dumps({"provenance": provenance}))

    metrics = {}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    units = dict(END_TO_END) | {name: unit for name, unit, _ in per_layer_names()}
    for w, r in results.items():
        prefix = "" if len(names) == 1 else f"{w}."
        if args.trace:
            if r["missing_hooks"]:
                print(f"{w}: no such layer function: {', '.join(r['missing_hooks'])}",
                      file=sys.stderr)
            values = r["layers"]
            note = (f"trace.overhead_s {values['trace.overhead_s']:.4f} s over "
                    f"{len(r['walls'])} untraced and {len(r['traced_walls'])} traced passes, "
                    f"spans in {r['spans_file']}")
        else:
            ref = r["scaled_walls"] if w in workloads.SCALED else r["walls"]
            values = {"wall_ref_s": statistics.median(ref),
                      "setup_s": statistics.median(setup), "peak_rss_mb": r["peak_rss_mb"]}
            note = (f"wall_ref_s {values['wall_ref_s']:.4f} s "
                    f"({percentile_note(ref)}), "
                    f"wall_s {statistics.median(r['walls']):.4f} s "
                    f"(median of {len(r['walls'])} passes; {percentile_note(r['walls'])}), "
                    f"setup_s {values['setup_s']:.4f} s (median of {len(setup)}; "
                    f"{statistics.median(setup_raw):.4f} s unscaled), "
                    f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        print(f"{w}: {note}, failed_ratio {r['failed'] / r['attempted']:.6g} "
              f"({r['failed']}/{r['attempted']} rows)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
