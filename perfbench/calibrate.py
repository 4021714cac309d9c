"""Machine-speed probes: scale measured times to a reference speed.

On a shared machine the speed of the same code drifts by up to a factor of
two over minutes, with neighbours' load.  A fixed piece of work of the same
kind as the workload's is timed just before each measurement, and the
measurement is multiplied by ``REFERENCE_S[kind] / probe``.  The probes do
not call qcp, so a change to qcp moves the scaled times exactly as it moves
the measured ones.

Two kinds: ``python`` is pure-Python integer work (gcd loops, dict updates,
small row operations), like most of qcp; ``numpy`` is vectorised grid
arithmetic on arrays of about 0.3 MB, like qcp's brute-force counter.  Under
the same load the two slow down by different factors.
"""

from __future__ import annotations

import time

# Each probe's median time on the machine the reference figures come from
# (README.md); scaled times read as seconds on that machine.
REFERENCE_S = {"python": 0.020, "numpy": 0.015}


def _python_work():
    acc, table = 0, {}
    for i in range(1, 18000):
        a, b = i * 7919 + 12345, i * 104729 + 6789
        while b:
            a, b = b, a % b
        acc += a
        table[i % 97] = table.get(i % 97, 0) + acc
    rows = [[(i * j) % 11 - 5 for j in range(6)] for i in range(4)]
    for _ in range(120):
        rows = [[x * 2 - y for x, y in zip(r, rows[0])] for r in rows]
        rows = [[v % 1000003 for v in r] for r in rows]


def _numpy_work():
    import numpy as np  # not at module import: set-up time includes numpy's import

    for q in (131, 137, 139, 149) * 3:
        grid = np.indices((q, q), dtype=np.int64).reshape(2, -1)
        alive = np.ones(grid.shape[1], dtype=bool)
        for c0, c1, b in ((1, 0, 0), (0, 1, 0), (1, 10, 3), (1, 10, 7), (2, 3, 5)):
            alive &= (np.array((c0, c1), dtype=np.int64) @ grid) % q != b
        int(alive.sum())


_WORK = {"python": _python_work, "numpy": _numpy_work}


def probe(kind="python"):
    """Seconds one fixed piece of work of the given kind takes now."""
    t0 = time.perf_counter()
    _WORK[kind]()
    return time.perf_counter() - t0


def scale(probe_s, kind="python"):
    """Factor that turns seconds measured next to a ``kind`` probe of
    ``probe_s`` seconds into seconds at the reference speed."""
    return REFERENCE_S[kind] / probe_s
