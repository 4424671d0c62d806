"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared VM the same command's wall time drifts by up to 2x over tens of
seconds as other tenants load the host.  The benchmark runs this probe
between consecutive commands and divides each command's time by the
probe's slowdown around it (its time over NOMINAL_S), which turns wall time
into seconds at the probe's nominal speed.

The kernel imitates the program's hot loops with code of its own, so that
interference slows it the way it slows the program, while no change to the
program can change it: a row-by-row edit-distance recursion on small numpy
arrays (as in ``metrics.levenshtein``), a scaled forward recursion with a
25-state matrix-vector product per step (as in the HMM E-steps), scalar
Student-t densities through scipy (as in the TVAR filter), and an
interpreter-bound loop over dicts and lists (as in sampling and parsing).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import stats

# Typical probe time on the 2-core Xeon VM (2.0 GHz, Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) the bounds were set on; it fixes only the scale of the
# normalized times, not their run-to-run spread.
NOMINAL_S = 0.010
REPEATS = 2

_rng = np.random.default_rng(20171)
_A = _rng.integers(40, 70, 200)
_B = _rng.integers(40, 70, 200)
_T = _rng.dirichlet(np.ones(25), size=25)
_E = _rng.random((200, 25))


def probe():
    """Run the reference kernel REPEATS times; returns the wall time in seconds."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - start


def _kernel():
    m = len(_B)
    prev = np.arange(m + 1)
    js = np.arange(1, m + 1)
    for i, ai in enumerate(_A, start=1):
        cand = np.minimum(prev[1:] + 1, prev[:-1] + (_B != ai))
        cur = np.empty(m + 1, dtype=np.int64)
        cur[0] = i
        cur[1:] = np.minimum.accumulate(np.minimum(cand, cur[0] + js) - js) + js
        prev = cur
    alpha = np.full(25, 1.0 / 25)
    for e in _E:
        alpha = (alpha @ _T) * e
        alpha /= alpha.sum()
    for x in _E[:10, 0]:
        stats.t.logpdf(x, 5.0)
    groups = {}
    for k in range(400):
        groups.setdefault(k % 17, []).append(k * 0.5)
