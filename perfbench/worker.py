"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh interpreter per workload, so that
``peak_rss_mb`` belongs to one workload.  Commands go through
``secgauss.cli.main(argv)`` back to back, one client, no extra threads,
with stdout captured and checked against the recorded reference.

    python3 perfbench/worker.py --workload lp_sweep --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import PROBE_REF_S, probe_s  # noqa: E402
from tracing import Tracer, pass_metrics  # noqa: E402

OUT_DIR = HERE / "out"


def run_command(main, argv: list[str]):
    """(exit code or the exception raised, captured stdout) of one command."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # argparse usage errors raise SystemExit
        code = exc
    return code, out.getvalue()


def run_pass(cmds, want, tally: list[int], tracer: Tracer | None = None) -> tuple[float, float]:
    """Run every command once and add (attempted, failed) rows to `tally`.

    Returns the pass wall time and the pass time scaled to the reference
    machine speed: each command's time times ``PROBE_REF_S`` over the
    mean of the probes taken just before and just after it.
    """
    from secgauss import cli

    outputs = []
    wall = scaled = 0.0
    before = probe_s()
    for argv in cmds:
        if tracer is not None:
            tracer.command += 1
        start = time.perf_counter()
        outputs.append(run_command(cli.main, argv))
        took = time.perf_counter() - start
        after = probe_s()
        wall += took
        scaled += took * PROBE_REF_S / ((before + after) / 2)
        before = after
    for (code, text), rows in zip(outputs, want):
        a, f = workloads.check_command(code, text, rows)
        tally[0] += a
        tally[1] += f
    return wall, scaled


def done(walls: list[float], deadline: float) -> bool:
    """At least two passes, then stop once half a pass no longer fits."""
    return len(walls) >= 2 and time.perf_counter() + statistics.median(walls) / 2 > deadline


def blas_info() -> dict:
    """OpenBLAS build string and the thread count it runs with."""
    import numpy as np

    info = {"build": None, "threads": None,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from secgauss import cli

    cmds = workloads.commands(args.workload, args.seed)
    want = workloads.reference(args.workload, args.seed)
    for warm in workloads.WARMUP:
        run_command(cli.main, warm)
    probe_s()

    tally = [0, 0]
    walls: list[float] = []
    scaled: list[float] = []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while not done(walls, deadline):
            wall, ref = run_pass(cmds, want, tally)
            walls.append(wall)
            scaled.append(ref)
    else:
        # Untraced and traced passes alternate, so that drift in machine
        # speed shows in both and cancels in the tracing overhead.
        tracer = Tracer()
        traced, layers = [], []
        while not done([a + b for a, b in zip(walls, traced)], deadline):
            wall, ref = run_pass(cmds, want, tally)
            walls.append(wall)
            scaled.append(ref)
            tracer.install()
            try:
                traced.append(run_pass(cmds, want, tally, tracer)[0])
            finally:
                tracer.remove()
            layers.append(tracer.take())
    # Linux reports ru_maxrss in KiB.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result = {
        "walls": walls,
        "scaled_walls": scaled,
        "attempted": tally[0],
        "failed": tally[1],
        "peak_rss_mb": peak_mb,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": blas_info()},
    }
    if args.trace:
        per_pass = [pass_metrics(spans, counts) for spans, counts in layers]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        result.update(layers=metrics, traced_walls=traced, missing_hooks=tracer.missing)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "command"],
            "commands": cmds,
            "passes": [{"spans": spans, "counts": counts} for spans, counts in layers],
        }), encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
