"""Record the reference output of every workload variant.

Run from the repository root at the commit whose output is the
reference; it rewrites ``perfbench/references/<workload>.json``:

    python3 perfbench/record.py                  # every workload
    python3 perfbench/record.py --workload lp_sweep
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import run_command  # noqa: E402


def record(workload: str) -> None:
    from secgauss import cli

    variants = {}
    for v in range(workloads.N_VARIANTS):
        lines = []
        start = time.perf_counter()
        for argv in workloads.commands(workload, v):
            code, text = run_command(cli.main, argv)
            if code != 0:
                raise SystemExit(f"{workload} variant {v}: {argv} exited with {code!r}")
            lines.append(text.splitlines())
        variants[str(v)] = lines
        print(f"{workload} variant {v} recorded in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"workload": workload, "variants": variants}, indent=1) + "\n",
                    encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main()
