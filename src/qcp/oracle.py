"""Ground-truth brute-force counting and randomized central-case scans.

The counter enumerates all of (Z/q)^m and tests every point against every
hyperplane, so it is independent of the divisor formula and serves as its
oracle.  It works on blocks of consecutive first-coordinate values, each of
at most ``_BLOCK_CELLS`` points (2^16, sized for the CPU cache) and at least
one slice of q^(m-1) points.  Hyperplanes are grouped by coefficient
column mod q (entries are reduced mod q in Python first, so any entry size
is exact), and each class keeps a bool table of its offsets, read through
windows: row u is the table shifted by u.  A point's c.z is u + r_last, u
the partial sum of its residues c_i * z_i mod q over every axis but the
last, so one lookup ``windows[u][..., r_last]`` tests every point of the
block against every offset of the class.  No integer array the size of the
grid is built: u has q^(m-2) entries per first coordinate.  Only a grid
whose single slice q^(m-1) exceeds the cap, or whose q is past 3*10^9
(where c_i * z_i leaves int64), falls back to an exact point-by-point loop.
Work is budgeted in point-hyperplane tests (q^m * n per call) so failure
behavior is deterministic, not time-based.
"""

from __future__ import annotations

import itertools
import random

from .arrangement import ArrangementInput, _formulas
from .errors import BudgetExceededError, ValidationError
from .intlinalg import IntMatrix, _require_int, _Value

__all__ = [
    "DEFAULT_BUDGET",
    "brute_force_count",
    "generate_central_inputs",
    "central_scan",
    "ScanReport",
]

DEFAULT_BUDGET = 10**8

# Most grid cells the vectorized path holds at once.  For m >= 2 a block
# costs three bool arrays, the live points, one gather of window rows and
# the lookup, so 3 bytes a cell and about 200 MiB at the cap; the partial
# sums u add 8/q bytes a cell.  For m = 1 the block's first coordinates and
# their residues are int64 as well, 18 bytes a cell and about 1.1 GiB at the
# cap, plus one byte a cell per class for the offset tables, which are q
# long.  A grid whose single slice q^(m-1) is past the cap is counted point
# by point.
_NUMPY_CELL_CAP = 1 << 26

# Cells counted per block: small enough that a block's live points and its
# gathers from the window rows stay in the CPU cache, as they do not at the
# cap.  A block always holds at least one slice (one first coordinate); the
# cap alone decides when a slice is too large for the vectorized path.
_BLOCK_CELLS = 1 << 16


def _count_vectorized(arr: ArrangementInput, q: int) -> int:
    """Count the grid in blocks of consecutive first-coordinate values, each
    of at most ``_BLOCK_CELLS`` cells (and at most ``_NUMPY_CELL_CAP``) but
    at least one slice (one first coordinate), which must fit the cap.

    With r_i = c_i * z_i mod q, a point lies on a hyperplane of a class
    exactly when u + r_last is congruent to one of the class's offsets, u
    being the partial sum of r_i over every axis but the last.  Row u of the
    class's windows is its offset table shifted by u, so
    ``windows[u][..., r_last]`` tests the whole block against every offset
    of the class.  Only u is held as integers, q^(m-2) of them per first
    coordinate, so a block costs 3 bytes a cell for m >= 2.  For m = 1 the
    first axis is the last and its int64 residues make it about 18.
    """
    import numpy as np  # only the brute-force counter needs numpy; keep it off import

    m = arr.m
    # Hyperplanes sharing a coefficient column mod q share c.z mod q, so each
    # class is tested once, against all of its offsets.
    classes: dict[tuple[int, ...], set[int]] = {}
    for j in range(arr.n):
        col = tuple(c % q for c in arr.cmatrix.column(j))
        classes.setdefault(col, set()).add(arr.offsets[j] % q)
    axis = np.arange(q, dtype=np.int64) if m > 1 else None  # the unblocked axes
    # An axis whose coefficient is 0 mod q has r_i = 0 at every coordinate;
    # its residues are this one entry, which broadcasts along the axis.
    zero = np.zeros(1, dtype=np.int64)
    tables = []
    for col, offs in classes.items():
        # off[v] is False exactly when v is congruent to an offset of the
        # class; u + r_last lies in [0, m(q-1)], inside its m*q entries.
        off = np.ones(m * q, dtype=bool)
        for b in offs:
            off[b::q] = False
        off.flags.writeable = False
        # Row u is off[u : u + q] for u in [0, (m-1)q]: a read-only view
        # that copies nothing (numpy checks that it stays inside off).
        windows = np.ndarray(((m - 1) * q + 1, q), dtype=bool, buffer=off, strides=(1, 1))
        # Entries and coordinates are below q, and brute_force_count admits
        # only (q - 1)^2 < 2^63, so each product fits int64.
        residues = [col[i] * axis % q if col[i] else zero for i in range(1, m)]
        tables.append((col[0], windows, residues))
    rows = max(1, min(_BLOCK_CELLS, _NUMPY_CELL_CAP) // q ** (m - 1))
    count = 0
    for first in range(0, q, rows):
        block = np.arange(first, min(first + rows, q), dtype=np.int64)
        r0 = np.empty_like(block)  # first-axis residues, one block at a time
        alive = np.ones((len(block),) + (q,) * (m - 1), dtype=bool)
        for c0, windows, residues in tables:
            if c0:
                np.multiply(block, c0, out=r0)
                r0 %= q
            *heads, last = [r0 if c0 else zero] + residues
            # u over the block and every axis but the last; 0 when m = 1
            u = 0
            for i, r in enumerate(heads):
                shape = [1] * (m - 1)
                shape[i] = -1
                u = u + r.reshape(shape)
            alive &= windows[u][..., last]
        count += int(np.count_nonzero(alive))
    return count


def _count_scalar(arr: ArrangementInput, q: int) -> int:
    cols = [arr.cmatrix.column(j) for j in range(arr.n)]
    targets = [b % q for b in arr.offsets]
    count = 0
    for z in itertools.product(range(q), repeat=arr.m):
        for col, b in zip(cols, targets):
            acc = 0
            for zi, ci in zip(z, col):
                acc += zi * ci
            if acc % q == b:
                break
        else:
            count += 1
    return count


def _charge_point_tests(arr: ArrangementInput, window: range, budget: int, what: str) -> None:
    """Charge q^m * n point tests for every q of ``window`` against
    ``budget`` before anything is counted; past it, raise
    BudgetExceededError naming ``what``.  Summing stops there, so a long
    window is not summed to its end."""
    _require_int("budget", budget, positive=True)
    cost = 0
    for q in window:
        cost += q**arr.m * arr.n
        if cost > budget:
            least = "at least " if q != window[-1] else ""
            raise BudgetExceededError(
                f"{what} needs {least}{cost} point tests, over the budget of {budget}"
            )


def brute_force_count(arr: ArrangementInput, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Cardinality of the points of (Z/q)^m avoiding every hyperplane.

    Cost is charged as q^m * n point tests against ``budget`` before any
    enumeration starts.  The grid is counted vectorized in blocks of at most
    ``_BLOCK_CELLS`` points, or one slice of q^(m-1) when that is larger:
    per coefficient class, the partial sums u of the residues c_i * z_i
    mod q over every axis but the last select shifted windows of the
    class's offset table, and the last axis's residues index into them,
    3 bytes a cell for m >= 2 and about 18 for m = 1.  Only when a single
    slice of q^(m-1) points exceeds the cap is the grid counted point by
    point.  Both are exact for entries of any size.
    """
    _require_int("q", q, positive=True)
    _charge_point_tests(arr, range(q, q + 1), budget, f"counting at q={q}")
    # c_i * z_i with both below q must fit int64
    if q ** (arr.m - 1) <= _NUMPY_CELL_CAP and (q - 1) ** 2 < 1 << 63:
        return _count_vectorized(arr, q)
    return _count_scalar(arr, q)


class ScanReport(_Value):
    """Outcome of a randomized central scan.  Every draw's counting formula
    checks that its minimum period is its lcm period and raises
    InternalConsistencyError otherwise, so a finished scan has no
    violations: ``violations`` is empty by construction."""

    # the random source generate_central_inputs draws from
    generator = "python-random-mt19937"
    violations = ()

    def __init__(self, trials: int, seed: int):
        self.__dict__.update(trials=trials, seed=seed)

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "seed": self.seed, "generator": self.generator,
                "violations": []}


def _check_scan_args(m: int, n: int, entry_bound: int, trials: int, seed: int) -> None:
    for name, value in (("m", m), ("n", n), ("entry_bound", entry_bound), ("trials", trials),
                        ("seed", seed)):
        _require_int(name, value)
    if m < 1 or n < 1 or entry_bound < 1:
        raise ValidationError("m, n, and entry_bound must be positive")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")


def generate_central_inputs(
    m: int, n: int, entry_bound: int, trials: int, seed: int
) -> list[ArrangementInput]:
    """Deterministic sample of random central arrangements.

    Column entries are uniform in [-entry_bound, entry_bound]; zero columns
    are rejected and redrawn.  Same seed, same sample.
    """
    _check_scan_args(m, n, entry_bound, trials, seed)
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        cols = []
        for _ in range(n):
            while True:
                col = [rng.randint(-entry_bound, entry_bound) for _ in range(m)]
                if any(col):
                    break
            cols.append(col)
        out.append(ArrangementInput(IntMatrix.from_columns(cols), (0,) * n))
    return out


def central_scan(
    m: int,
    n: int,
    entry_bound: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> ScanReport:
    """Check minimum period == lcm period on random central arrangements.

    Every draw's counting formula is built in one batch, which shares the
    divisor chains and indicator weights that earlier draws computed (see
    arrangement._formulas).  The formula reads both periods off its weights,
    exactly for the huge lcm periods random matrices routinely produce, and
    raises InternalConsistencyError, naming the arrangement, on a central
    collapse.
    """
    _check_scan_args(m, n, entry_bound, trials, seed)
    _require_int("budget", budget, positive=True)
    # Each draw's subset walk offers at most the 2^n - 1 nonempty subsets.
    # Past the budget's bit length 2^n - 1 alone exceeds the budget, so a
    # huge n is refused without building 2^n.
    if trials and n > budget.bit_length():
        raise BudgetExceededError(
            f"scan needs up to {trials} * (2^{n} - 1) subsets, over the budget of {budget}"
        )
    cost = trials * ((1 << n) - 1)
    if cost > budget:
        raise BudgetExceededError(
            f"scan needs up to {cost} subsets, over the budget of {budget}"
        )
    for _ in _formulas(generate_central_inputs(m, n, entry_bound, trials, seed)):
        pass  # building a formula checks minimum period == lcm period
    return ScanReport(trials=trials, seed=seed)
