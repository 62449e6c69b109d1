"""The README's library quick start runs as printed.

No other test reads README.md, so an API change could leave its example
broken.  This pulls the python block under `## Library quick start` and
runs it in a fresh interpreter with `src/` first on the path.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block, "no python block under ## Library quick start"
    return block.group(1)


def test_library_quick_start_runs():
    script = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + quick_start()
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
