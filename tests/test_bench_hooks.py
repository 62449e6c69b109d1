"""The benchmark's layer hooks still find every function they wrap.

`perfbench/tracing.py` wraps layer functions by module and name; a
refactor that renames or moves one leaves its per-layer metric reading
zero with only a warning from the benchmark.  This runs the tracer and
the benchmark's own self-test in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import runpy, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import Tracer
tracer = Tracer()
tracer.install()
tracer.remove()
if tracer.missing:
    sys.exit("no such layer function: " + ", ".join(tracer.missing))
sys.argv = [{check!r}]
runpy.run_path({check!r}, run_name="__main__")
"""


def test_tracer_hooks_resolve_and_counts_repeat():
    script = CHILD.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                          check=str(ROOT / "perfbench" / "check_counts.py"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "ok:" in done.stdout
