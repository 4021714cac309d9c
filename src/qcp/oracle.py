"""Ground-truth brute-force counting and randomized central-case scans.

The counter enumerates all of (Z/q)^m and tests every point against every
hyperplane, so it is independent of the divisor formula and serves as its
oracle.  It works on blocks of consecutive first-coordinate values, each of
at most ``_NUMPY_CELL_CAP`` points: hyperplanes are grouped by coefficient
column mod q, c.z is built as a broadcast sum of per-axis residues (entries
are reduced mod q in Python first, so any entry size is exact), and one
table lookup tests every point of the block against every offset of the
class.  Only a grid whose single slice q^(m-1) exceeds the cap, or whose q
is past 3*10^9 (where c_i * z_i leaves int64), falls back to an exact
point-by-point loop.  Work is budgeted in point-hyperplane tests (q^m * n
per call) so failure behavior is deterministic, not time-based.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .arrangement import ArrangementInput, central_period_summary
from .errors import BudgetExceededError, ValidationError
from .intlinalg import IntMatrix

__all__ = [
    "DEFAULT_BUDGET",
    "brute_force_count",
    "generate_central_inputs",
    "central_scan",
    "ScanReport",
]

DEFAULT_BUDGET = 10**8

# Most grid cells the vectorized path holds at once: one int64 block (c.z)
# and two bool blocks (the live points and one lookup), 10 bytes a cell,
# about 640 MiB at the cap.  Larger grids are counted block by block.
_NUMPY_CELL_CAP = 1 << 26

_GENERATOR_NAME = "python-random-mt19937"


def _count_vectorized(arr: ArrangementInput, q: int) -> int:
    """Count the grid in blocks of consecutive first-coordinate values, each
    of at most ``_NUMPY_CELL_CAP`` cells; one slice (one first coordinate)
    must fit the cap."""
    import numpy as np  # only the brute-force counter needs numpy; keep it off import

    m = arr.m
    # Hyperplanes sharing a coefficient column mod q share c.z mod q, so each
    # class is tested once, against all of its offsets.
    classes: dict[tuple[int, ...], set[int]] = {}
    for j in range(arr.n):
        col = tuple(c % q for c in arr.cmatrix.column(j))
        classes.setdefault(col, set()).add(arr.offsets[j] % q)
    rows = _NUMPY_CELL_CAP // q ** (m - 1)
    axis = np.arange(q, dtype=np.int64) if m > 1 else None  # the unblocked axes
    count = 0
    for first in range(0, q, rows):
        block = np.arange(first, min(first + rows, q), dtype=np.int64)
        alive = np.ones((len(block),) + (q,) * (m - 1), dtype=bool)
        for col, offs in classes.items():
            # c.z over the block as a broadcast sum of per-axis residues,
            # each below q, so every value lies in [0, m(q-1)].
            dot = (col[0] * block % q).reshape((-1,) + (1,) * (m - 1))
            for i in range(1, m):
                shape = [1] * m
                shape[i] = q
                dot = dot + (col[i] * axis % q).reshape(shape)
            # off[v] is False exactly when v is congruent to an offset of the class.
            off = np.ones(m * q, dtype=bool)
            for b in offs:
                off[b::q] = False
            alive &= off[dot]
        count += int(alive.sum())
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


def brute_force_count(arr: ArrangementInput, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Cardinality of the points of (Z/q)^m avoiding every hyperplane.

    Cost is charged as q^m * n point tests against ``budget`` before any
    enumeration starts.  The grid is counted vectorized, one residue lookup
    per coefficient class, in blocks of at most ``_NUMPY_CELL_CAP`` points;
    only when a single slice of q^(m-1) points exceeds the cap is it counted
    point by point.  Both are exact for entries of any size.
    """
    if q < 1:
        raise ValidationError("q must be a positive integer")
    cost = q**arr.m * arr.n
    if cost > budget:
        raise BudgetExceededError(
            f"counting at q={q} needs {cost} point tests, over the budget of {budget}"
        )
    # c_i * z_i with both below q must fit int64
    if q ** (arr.m - 1) <= _NUMPY_CELL_CAP and (q - 1) ** 2 < 1 << 63:
        return _count_vectorized(arr, q)
    return _count_scalar(arr, q)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a randomized central scan; empty violations means every
    sampled arrangement had minimum period equal to lcm period."""

    trials: int
    violations: tuple[tuple[ArrangementInput, int, int], ...]
    seed: int
    generator: str = field(default=_GENERATOR_NAME)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "generator": self.generator,
            "violations": [
                {
                    "arrangement": arr.to_json_dict(),
                    "lcm_period": lcm,
                    "minimum_period": minp,
                }
                for arr, lcm, minp in self.violations
            ],
        }


def generate_central_inputs(
    m: int, n: int, entry_bound: int, trials: int, seed: int
) -> list[ArrangementInput]:
    """Deterministic sample of random central arrangements.

    Column entries are uniform in [-entry_bound, entry_bound]; zero columns
    are rejected and redrawn.  Same seed, same sample.
    """
    if m < 1 or n < 1 or entry_bound < 1:
        raise ValidationError("m, n, and entry_bound must be positive")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
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

    Periods come from central_period_summary, which is exact for the huge
    lcm periods random matrices routinely produce.  Any violating
    arrangement is recorded with both periods.
    """
    # Each draw's subset walk offers at most the 2^n - 1 nonempty subsets.
    cost = trials * ((1 << n) - 1)
    if cost > budget:
        raise BudgetExceededError(
            f"scan needs up to {cost} subsets, over the budget of {budget}"
        )
    violations = []
    for arr in generate_central_inputs(m, n, entry_bound, trials, seed):
        rho, minp = central_period_summary(arr)
        if minp != rho:
            violations.append((arr, rho, minp))
    return ScanReport(trials=trials, violations=tuple(violations), seed=seed)
