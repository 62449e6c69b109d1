"""Shared fixtures; collects acceptance-criterion lines for the summary.

Failures print what is needed to replay them: hypothesis adds the
`@reproduce_failure` blob of a falsifying example, and numpy prints
every float of an array in full, so a failing table can be pasted into
an `@example`.  Both only change what a failure prints.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
np.set_printoptions(floatmode="unique")

_CRITERION_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Append 'PASS/FAIL criterion N: detail' lines; printed at exit."""
    return _CRITERION_LINES


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)
