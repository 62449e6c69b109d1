"""A fixed piece of work that times how fast this machine runs right now.

On a shared host the same pass of the same code takes anywhere from 1x
to 2x its fastest time, in phases that last from seconds to minutes, so
a median over one run still moves by a quarter from run to run.  The
slowdown falls mostly on interpreter-bound work: Python loops and
small-array numpy calls made from them.  The probe does exactly that
kind of work.  The worker times ``probe_s()`` before and after every
command and scales the command's time by ``PROBE_REF_S`` over the mean
of the two probes; ``run.py`` scales each set-up time by a probe in the
same interpreter.  The probe imports nothing from ``secgauss``, so a
change to the program moves the scaled time by its full amount.
"""

from __future__ import annotations

import time

import numpy as np

# probe_s() on the 2-vCPU VM where the benchmark was defined, at its
# fastest; a scaled time is in seconds of a machine this fast.
PROBE_REF_S = 0.070

_IDX = np.arange(512)
_SMALL = np.linspace(0.0, 1.0, 512)


def probe_s() -> float:
    """Seconds taken by a pure-Python loop and by small-array numpy calls in a loop.

    The two parts take about equal time; the second has the shape of the
    per-modulus residue loops.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(700_000):
        acc += i & 7
    for m in range(2, 134):
        res = np.mod(_IDX, m)
        for u in range(m):
            _SMALL[res == u].sum()
    return time.perf_counter() - start
