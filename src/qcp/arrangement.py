"""Counting the complement of an integral hyperplane arrangement modulo q.

An arrangement is given by an integer matrix C (one column per hyperplane)
and an integer offset vector b; hyperplane j consists of the points z in
(Z/q)^m with z . c_j ≡ b_j.  For q above a computable threshold q0, the
number of points avoiding every hyperplane is a quasi-polynomial in q whose
period divides the lcm period of C.  Both the counting formula and the
period analysis are derived from elementary divisors of column submatrices:

    count(q) = q^m + sum over column subsets J with rank(A_J) = rank(C_J) of
               (-1)^{|J|} * d_J(q) * q^{m - rank(C_J)},

where A_J stacks the offsets under C_J, and d_J(q) is the product of
gcd(e, q) over the divisor chain e of C_J provided each gcd agrees with the
corresponding gcd for A_J's chain, else 0.

The enumeration groups equal coefficient columns: a subset containing one
coefficient column with two different offsets always has a rank jump and
contributes nothing, so only one offset per column class is ever chosen.
Identical stacked columns are deduplicated first; summing the sign over all
ways to pick at least one copy of a repeated column collapses to a single
signed pick, so deduplication is exact.

The walk prunes rank jumps.  A subset whose stacked system is inconsistent
over Q (rank A_J > rank C_J) contributes nothing, and neither does any
superset, since adding equations to an inconsistent system keeps it
inconsistent.  So when a class is added whose coefficient column depends on
the columns chosen so far but whose stacked column does not, that choice is
dropped with its whole subtree.  An echelon basis of A_J per choice decides
this without a Smith form: while no row is pivoted on the offset coordinate
m, its rows project onto a basis of C_J, so a joining stacked column reduces
to a row pivoted at m exactly when its coefficient part lies in span(C_J)
and the stacked column lies outside span(A_J), the rank jump.  The divisor
chain of C_J comes from its determinantal divisors d_1..d_m (d_k the gcd of
all k x k minors, 0 above the rank), carried down the walk: when class c
joins J the only new minors are those that use c, so d_k <- gcd(d_k,
g(K + c)) over the (k-1)-subsets K of J, g(S) being the gcd of the
|S| x |S| minors of S's columns (exact determinants, read once per walk for
all its inputs).
The d_k of the whole coefficient matrix divides every d_k of C_J, so once
d_k reaches it (1 in the common case, 0 only above the whole rank) it is
skipped, and the rank of C_J is the number of nonzero d_k.  The chain is
e_k = d_k / d_(k-1), computed once per distinct d_1..d_m in a table that
the formulas of one batch share (see _formulas).  The floors come from the
m x m minors of the first m-column sets of the whole matrix, one set per
distinct column, read through the walk's memo, so the walk reads none of
them again: once their gcd is 1, so is every d_k, since d_k divides
d_(k+1).  Only otherwise does Smith run on the whole coefficient matrix,
and it runs on A_J only for a consistent choice with a nonzero offset whose
C_J has e_r > 1 (r the rank).  Every other choice takes C_J's chain as its
stacked one: with all offsets zero A_J is C_J over a zero row, and when
e_r = 1 every d_k(C_J) is 1 and d_k(A_J) divides it (the minors of C_J are
minors of A_J).  Its stacked basis still gives its stacked rank, checked
against the coefficient rank.  A central walk keeps no choices, since its
one choice is all zero, and reduces no vector.

The walk does not descend below a saturated class set J, one whose d_1..d_m
are those of the whole coefficient matrix.  Then C_J has the whole rank,
and d_r(C_J) = d_r(whole) makes C_J's column lattice the whole matrix's
(both have index d_r in the same saturated lattice, one inside the other).
So every later column c is an integer combination of J's columns, and a
consistent choice over J extends by c only with the one offset beta that
the same combination of its offsets gives: the stacked column (c, beta)
lies in the stacked lattice, which stays the same, and so does every chain.
The subtree of a choice is thus J + S over the subsets S of the classes
that extend it, all with J's key, and its signed sum is J's term when no
later class extends the choice and 0 otherwise.  Every subset the walk
offers, kept or pruned, is charged to WALK_BUDGET; past it the walk raises
BudgetExceededError.  A central arrangement has no rank jumps, so the
budget is what stops a wide one.

Before it offers the first subset, the walk bounds from its classes alone
what it must offer (see _least_offered) and refuses at once past
WALK_BUDGET: the central positive roots of A12 need at least 5.3 * 10^13.
A refused input has that error as its first, as a draw that fails in
the walk has, and its batch's one walk starts without it.

Inputs walk in batches, in lockstep (see _lockstep_walk): those with the
same rows and class count share one depth-first search over class-index
tuples, and a single input is a batch of one.  Every rule above holds
input by input, so each gets the term table, lcm period and error of a
walk of its own.  The 60 draws of ``qcp scan-central --m 3 --n 6
--entry-bound 5 --trials 60 --seed 1`` all have 6 classes: they share 63
class-index tuples, 32 of them nodes with children, where walks of their
own visit 3,485 class sets.

The lcm period needs Smith forms of bases only (the basis lemma).  For
independent column sets I within J, the torsion of I's lattice embeds in
that of J's: if x = l + k.v (l in L_I, v in J minus I) lies in span(L_I),
independence forces k = 0.  So I's largest divisor divides J's, every
independent set extends to a basis, and the lcm over the bases of the
distinct columns is the lcm over all subsets.  The walk reaches every such
basis, since an independent set of coefficient columns has no rank jump
under any offsets, and it computes the chain of C_J there anyway; so the
lcm period is read off the walk, as the lcm of the largest divisor
e_r = d_r / d_(r-1) (r the rank) over every class set it visits.
lcm_period reads it off the walk of the central arrangement on the same
columns, under the same WALK_BUDGET; the tests keep a walk over bases only
as the oracle for that value.

CountingFormula expands every term into integer weights on divisibility
indicators [D | q], checking its divisor pairs in the same pass; the value
at any q, every constituent and the minimum period are read off those
weights.  Every modulus D divides the lcm period, so [D | k] = [D | gcd(k,
period)] and a constituent depends on its class k only through gcd(k,
period): the gcd property holds by construction, and collapse_report
states it without comparing constituents.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate, combinations, compress, islice, repeat
from math import comb, gcd, lcm, prod
from operator import eq, mul, not_

from .errors import BudgetExceededError, InternalConsistencyError, ValidationError
from .intlinalg import IntMatrix, _require_int, _require_ints, _smith_divisors, _Value
from .quasipoly import Polynomial, QuasiPolynomial

__all__ = [
    "ArrangementInput",
    "CollapseReport",
    "CountingFormula",
    "lcm_period",
    "q_zero",
    "divisor_formula_count",
    "characteristic_quasi_polynomial",
    "collapse_report",
    "central_period_summary",
    "generate_central_inputs",
    "central_scan",
    "CONSTITUENT_BUDGET",
    "WALK_BUDGET",
    "Q_ZERO_BUDGET",
]

# Largest lcm period for which every constituent is materialized.
CONSTITUENT_BUDGET = 100_000

# Most column subsets the term-table walk may offer, kept or pruned.
WALK_BUDGET = 200_000

# Most stacked column subsets q_zero may offer, independent or not.
Q_ZERO_BUDGET = 1_000_000

# Most trial divisors one CountingFormula may try factoring its term divisors.
_FACTOR_BUDGET = 10_000_000

# Entries at which a table shared by the formulas of one batch is emptied.
_TABLE_CAP = 1024


class ArrangementInput(_Value):
    """An integral arrangement: coefficient matrix plus offset vector.

    ``cmatrix`` is m x n with no zero column; ``offsets`` has one entry per
    column.  The central case is ``offsets == 0``.
    """

    def __init__(self, cmatrix: IntMatrix, offsets):
        offsets = tuple(offsets)
        _require_ints("offset", offsets)
        if len(offsets) != cmatrix.cols:
            raise ValidationError(
                f"offset vector has {len(offsets)} entries for {cmatrix.cols} hyperplanes"
            )
        for j in range(cmatrix.cols):
            if not any(cmatrix.column(j)):
                raise ValidationError(f"coefficient column {j} is zero")
        self.__dict__.update(cmatrix=cmatrix, offsets=offsets)

    @property
    def m(self) -> int:
        """Ambient dimension."""
        return self.cmatrix.rows

    @property
    def n(self) -> int:
        """Number of hyperplanes."""
        return self.cmatrix.cols

    @property
    def is_central(self) -> bool:
        return not any(self.offsets)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "C": [list(self.cmatrix.row(i)) for i in range(self.m)],
            "b": list(self.offsets),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArrangementInput":
        """Parse ``{"m", "n", "C", "b"}``; entries must be JSON integers,
        never bools, floats or strings, and nothing is coerced."""
        try:
            m = data["m"]
            n = data["n"]
            crows = data["C"]
            b = data["b"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed arrangement object: {exc}") from exc
        _require_int("m", m)
        _require_int("n", n)
        if not isinstance(crows, list) or not all(isinstance(row, list) for row in crows):
            raise ValidationError("C must be a list of rows")
        if not isinstance(b, list):
            raise ValidationError("b must be a list")
        matrix = IntMatrix.from_rows(crows)
        if matrix.rows != m or matrix.cols != n:
            raise ValidationError(
                f"declared shape {m}x{n} does not match C ({matrix.rows}x{matrix.cols})"
            )
        return cls(cmatrix=matrix, offsets=tuple(b))


class CollapseReport(_Value):
    """Periods, threshold, and the quasi-polynomial itself; the collapse flag
    is read off the periods.  Reports are output only: nothing parses one."""

    # by construction: one constituent per gcd(k, lcm period)
    gcd_property = True

    def __init__(
        self,
        lcm_period: int,
        minimum_period: int,
        q0: int,
        quasi_polynomial: QuasiPolynomial,
    ):
        if lcm_period % minimum_period:
            raise ValidationError("minimum period must divide the lcm period")
        self.__dict__.update(
            lcm_period=lcm_period,
            minimum_period=minimum_period,
            q0=q0,
            quasi_polynomial=quasi_polynomial,
        )

    @property
    def collapse(self) -> bool:
        """Period collapse: the minimum period is below the lcm period."""
        return self.minimum_period < self.lcm_period

    def to_json_dict(self) -> dict:
        return {
            "lcm_period": self.lcm_period,
            "minimum_period": self.minimum_period,
            "collapse": self.collapse,
            "q0": self.q0,
            "gcd_property": self.gcd_property,
            "quasi_polynomial": self.quasi_polynomial.to_json_dict(),
        }


def _reduce_against(basis, vec):
    """Eliminate ``vec`` against an integer echelon basis.

    ``basis`` is a list of (pivot index, row) pairs.  Returns the reduced
    (pivot, row) for an independent vector, or None for a dependent one.
    Rows are gcd-normalized to keep entries small.
    """
    v = vec
    for piv, row in basis:
        b = v[piv]
        if b:
            a = row[piv]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            v = [fa * x - fb * y for x, y in zip(v, row)]
    for idx, val in enumerate(v):
        if val:
            g = gcd(*v) if val > 0 else -gcd(*v)  # the pivot entry ends positive
            if g != 1:
                v = [x // g for x in v]
            return idx, tuple(v)
    return None


def _echelon(vectors) -> list:
    """Integer echelon basis of ``vectors`` as (pivot, row) pairs: each
    vector reduced against the rows kept before it, dependent ones dropped."""
    basis: list = []
    for vec in vectors:
        red = _reduce_against(basis, vec)
        if red is not None:
            basis.append(red)
    return basis


def _det(rows) -> int:
    """Exact determinant of a square integer matrix given as row lists:
    by cofactor expansion at size 3, else by fraction-free (Bareiss)
    elimination, where every division is exact."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if not a[t][t]:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        top = a[t]
        piv = top[t]
        for i in range(t + 1, n):
            row = a[i]
            f = row[t]
            for j in range(t + 1, n):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _minors_gcds(cols, key, m: int) -> list:
    """g(K) for each draw of ``cols`` (its m-long columns, by class index):
    the gcd of all k x k minors of the k columns that ``key`` indexes (0
    when they are dependent), the case picked once for every draw.  One
    column gives the gcd of its entries and two the gcd of their 2 x 2
    minors, with no matrix built; m columns give their one determinant.
    Otherwise the minors are read until their gcd is 1, unless the first
    one is 0: then one Smith form of the columns gives the gcd as the
    product of their elementary divisors, 0 when there are fewer than k, so
    no set reads C(m, k) minors for want of a nonzero one."""
    k = len(key)
    if k == 1:
        return [gcd(*c[key[0]]) for c in cols]
    if k == m:  # one minor, the determinant of the transpose
        return [abs(_det([c[i] for i in key])) for c in cols]
    out = []
    if k == 2:
        i, j = key
        row_pairs = list(combinations(range(m), 2))
        for c in cols:
            u, v, g = c[i], c[j], 0
            for r, s in row_pairs:
                g = gcd(g, u[r] * v[s] - u[s] * v[r])
                if g == 1:
                    break
            out.append(g)
        return out
    first, *row_sets = combinations(range(m), k)
    for c in cols:
        sub = [c[i] for i in key]
        g = abs(_det([[col[r] for col in sub] for r in first]))
        if g:
            for rows in row_sets:
                if g == 1:
                    break
                g = gcd(g, _det([[col[r] for col in sub] for r in rows]))
        else:
            chain = _smith_divisors([list(col) for col in sub])
            g = prod(chain) if len(chain) == k else 0
        out.append(g)
    return out


def _extend_determinantal(dets, chosen, idx, minors, low, alive) -> list:
    """Determinantal divisors d_1..d_m of C_J after class ``idx`` joins
    J = ``chosen``, for each of the ``alive`` draws of a lockstep walk (see
    the module docstring for the rule).

    ``dets`` and ``low`` hold, as m columns over the alive draws, the d_k of
    C_J and the floors, each draw's d_k of its whole matrix.  Each
    (k-1)-subset K of J costs one map(gcd) over the alive draws, with
    ``minors`` (a _MinorGcds) giving g(K + idx) for every draw of the walk.
    A d_k is skipped, and its scan of K stops, once every alive draw's d_k
    is at its floor.
    """
    now = list(dets)
    for k in range(min(len(chosen) + 1, len(dets))):
        dk = now[k]
        if dk == low[k]:
            continue
        for sub in combinations(chosen, k):
            dk = list(map(gcd, dk, map(minors[sub + (idx,)].__getitem__, alive)))
            if dk == low[k]:
                break
        now[k] = dk
    return now


class _MinorGcds(dict):
    """g(K) of sorted class-index tuples K for each draw of a lockstep walk
    (``cols`` holds each draw's class columns, m long), read for all the
    draws by one _minors_gcds call at the first lookup of K.

    ``floors``, each draw's d_1..d_m of its whole matrix, are read through
    the memo itself: the gcd of the m x m minors of the first len(columns)
    m-column sets, in combinations order, until it is 1 for every draw,
    then one Smith form for each draw where it is not (see the module
    docstring).  The walk finds those minors in the memo."""

    def __init__(self, cols, m: int):
        super().__init__()
        self.cols, self.m = cols, m
        g = [0] * len(cols)
        for key in islice(combinations(range(len(cols[0])), m), len(cols[0])):
            g = list(map(gcd, g, self[key]))
            if g.count(1) == len(g):
                break
        self.floors = []
        for x, c in zip(g, cols):
            chain = [1] * m if x == 1 else _smith_divisors([list(row) for row in zip(*c)])
            self.floors.append((*accumulate(chain, mul), *[0] * (m - len(chain))))

    def __missing__(self, key):
        self[key] = g = _minors_gcds(self.cols, key, self.m)
        return g


def _divisor_chain(dets) -> tuple[int, ...]:
    """Elementary divisors e_k = d_k / d_(k-1) (d_0 = 1) from determinantal
    divisors, one per nonzero d_k; those must come first, since d_k is 0
    exactly above the rank."""
    rank = len(dets) - dets.count(0)
    if not all(dets[:rank]):
        raise InternalConsistencyError(
            f"determinantal divisors {dets} have a zero before a nonzero one"
        )
    return tuple(dets[k] // (dets[k - 1] if k else 1) for k in range(rank))


def _chain(chains: dict, dets, errors: dict, d: int) -> tuple:
    """(chain, all-zero choice's term key) of C_J with determinantal
    divisors ``dets``, that is (es, (rank, ((e, e) for e in es if e != 1))),
    read from ``chains`` or entered there, the table emptied first when it
    holds _TABLE_CAP entries.  Inconsistent ``dets`` give (None, None) and
    keep the error as draw ``d``'s in ``errors``, unless it has one."""
    found = chains.get(dets)
    if found is None:
        if len(chains) >= _TABLE_CAP:
            chains.clear()
        try:
            es = _divisor_chain(dets)
        except InternalConsistencyError as exc:
            errors.setdefault(d, exc)
            return None, None
        chains[dets] = found = (es, (len(es), tuple((e, e) for e in es if e != 1)))
    return found


def lcm_period(cmatrix: IntMatrix) -> int:
    """lcm of the largest elementary divisor over all column subsets.

    Read off the subset walk of the central arrangement on the same columns
    (see _lockstep_walk), so it costs one walk and raises
    BudgetExceededError where that walk passes WALK_BUDGET.
    """
    return _build_term_table(ArrangementInput(cmatrix, (0,) * cmatrix.cols))[1]


def q_zero(arr: ArrangementInput) -> int:
    """Validity threshold: the counting formula equals the true count for q > q0.

    q0 is the largest elementary divisor of a stacked submatrix A_J over the
    subsets J whose stacked rank exceeds the coefficient rank by one.  The
    maximum is attained on subsets with independent stacked columns (again by
    invariant-factor monotonicity under column deletion), so the search walks
    independent subsets only; their size is at most m + 1.  Every subset it
    offers, independent or not, is charged to Q_ZERO_BUDGET; past it the
    search raises BudgetExceededError.

    One echelon basis of A_J finds the jump.  While no row is pivoted on the
    offset coordinate m, the rows project onto a basis of C_J, so a column
    reduces to a row pivoted at m exactly when its coefficient part lies in
    span(C_J) but the stacked column lies outside span(A_J): the rank jump.
    After it every reduction clears coordinate m.  When the basis of all the
    stacked columns has no row pivoted at m (central input among others),
    b = yC for a rational y, no subset jumps, and q0 is 0 with no search.
    """
    m = arr.m
    stacked_cols = list(
        dict.fromkeys(c + (b,) for c, b in zip(arr.cmatrix.columns(), arr.offsets))
    )
    if all(piv < m for piv, _ in _echelon(stacked_cols)):
        return 0
    best = 0
    offered = 0
    chosen: list[tuple[int, ...]] = []

    def rec(start: int, basis, jumped: bool) -> None:
        nonlocal best, offered
        for idx in range(start, len(stacked_cols)):
            offered += 1
            if offered > Q_ZERO_BUDGET:
                raise BudgetExceededError(
                    f"q_zero offered more than Q_ZERO_BUDGET = {Q_ZERO_BUDGET} "
                    f"stacked column subsets"
                )
            col = stacked_cols[idx]
            red = _reduce_against(basis, col)
            if red is None:
                continue
            if red[0] == m and jumped:
                raise InternalConsistencyError(
                    "two stacked basis rows pivoted on the offset coordinate"
                )
            now_jumped = jumped or red[0] == m
            chosen.append(col)
            if now_jumped:
                rows = [[c[i] for c in chosen] for i in range(m + 1)]
                top = _smith_divisors(rows)[-1]
                if top > best:
                    best = top
            rec(idx + 1, basis + [red], now_jumped)
            chosen.pop()

    rec(0, [], False)
    return best


def _least_offered(rank: int, groups, zeros: int = 0) -> int:
    """A lower bound on the column subsets the walk offers; past WALK_BUDGET
    summing stops and BudgetExceededError is raised instead.

    ``groups`` holds (classes, offsets) pairs at whole coefficient rank
    ``rank``, and ``zeros`` classes hold offset 0.  Level 1 offers every
    stacked column; at rank 2 or more no class is saturated, so level 2
    offers every pair from two classes.  Below the rank no class set is
    saturated and the all-zero choice is live, so every set of 3 to
    ``rank`` classes that hold offset 0 is offered too.  A group with no
    class or no offset holds a parameter the builder rejects: bound 0.
    """
    if any(c < 1 or o < 1 for c, o in groups):
        return 0
    least = sum(c * o for c, o in groups)
    if rank >= 2:
        least += (least * least - sum(c * o * o for c, o in groups)) // 2
    size = comb(zeros, 2)  # C(zeros, k) for k = 2, 3, ...
    for k in range(3, rank + 1):
        size = size * (zeros - k + 1) // k
        if not size or least > WALK_BUDGET:
            break
        least += size
    if least > WALK_BUDGET:
        raise BudgetExceededError(
            f"the subset walk would offer at least {least} column subsets, over "
            f"WALK_BUDGET = {WALK_BUDGET}"
        )
    return least


def _build_term_table(arr: ArrangementInput) -> tuple[dict, int]:
    """(term table, lcm period) of ``arr`` from its walk, a batch of one
    (see _walks); raises what it raises.

    Terms: key (coefficient rank, tuple of (e, e') divisor pairs with (1, 1)
    dropped); value: signed number of subsets with that data, in the order
    the walk first meets each key.
    """
    (walked,) = _walks([arr], {})
    if isinstance(walked, Exception):
        raise walked
    return walked


def _walks(arrs, chains: dict) -> list:
    """The (term table, lcm period) of each arrangement of ``arrs``, or the
    error its walk raises, in order.

    An input's classes are its distinct coefficient columns with their
    distinct offsets.  The inputs with the same rows and class count form a
    group with one _MinorGcds, which reads their floors, and walk in
    lockstep (see _lockstep_walk), sharing ``chains`` (see _formulas).
    _least_offered runs once per distinct arguments, so once per rank for a
    group's central inputs; an input it refuses has that error as its first
    and is not walked.
    """
    out: list = [None] * len(arrs)
    groups: dict = {}  # (rows, class count) -> (input index, classes, pairs, zeros) per input
    for i, arr in enumerate(arrs):
        # column -> its distinct offsets; _least_offered's (classes, offsets)
        # pairs, one per class, and the classes that hold offset 0
        if arr.is_central:  # no loop: it costs central-scan wall_s 1.0%
            by_class = dict.fromkeys(arr.cmatrix.columns(), (0,))
            pairs, zeros = ((1, 1),) * len(by_class), len(by_class)
        else:
            by_class = {}
            for c, b in zip(arr.cmatrix.columns(), arr.offsets):
                bs = by_class.setdefault(c, [])
                if b not in bs:
                    bs.append(b)
            pairs = tuple((1, len(bs)) for bs in by_class.values())
            zeros = sum(0 in bs for bs in by_class.values())
        groups.setdefault((arr.m, len(by_class)), []).append((i, by_class, pairs, zeros))
    for (m, n), group in groups.items():
        where, classes, pairs, zeros = zip(*group)
        minors = _MinorGcds([list(draw) for draw in classes], m)
        refusals: dict = {}  # _least_offered's arguments -> the error it raises, or None
        errors: dict = {}  # draw -> its refusal, the first error of its walk
        for d, args in enumerate(zip((m - f.count(0) for f in minors.floors), pairs, zeros)):
            if args not in refusals:
                refusals[args] = None
                try:
                    _least_offered(*args)
                except BudgetExceededError as exc:
                    refusals[args] = exc
            if refusals[args]:
                errors[d] = refusals[args]
        for i, walked in zip(where, _lockstep_walk(m, n, classes, minors, chains, errors)):
            out[i] = walked
    return out


def _lockstep_walk(m: int, n: int, classes, minors, chains: dict, errors: dict) -> list:
    """The subset walks of draws with ``m`` rows and ``n`` classes each, run
    as one depth-first search over class-index tuples: (term table, lcm
    period) per draw, or the error its own walk would raise.

    ``classes`` maps each draw's coefficient columns to their distinct
    offsets, and ``minors``, a _MinorGcds of the same draws, holds their
    floors, d_1..d_m of the whole matrix.  ``errors`` maps draws to their
    first error, which the walk adds to; a draw already there (refused up
    front) is not walked.  A node holds the draws alive under it and, for
    those, their d_1..d_m and floors as m columns each (see
    _extend_determinantal) and their live offset choices as (offsets,
    stacked basis), the root's one choice being the empty one.  The loop
    over joining classes, the (k-1)-subsets K and the minor keys are paid
    once per node, and the minor gcds of a key once per walk, for all its
    draws at once.
    Every rule of the module docstring holds draw by draw: a draw leaves
    the alive list below a class that leaves it no live choice, and below a
    saturated class set, one whose d_1..d_m are the draw's floors.  A group
    whose draws all have zero offsets only ever has the all-zero choice, so
    it keeps no choices and skips the offset side as a whole.

    Terms are tallied by draw and key in visiting order, which for each
    draw is its own walk's order; a central group tallies d_1..d_m, each
    read as its key from ``chains`` once the walk ends.  Every class set a
    draw visits is tallied or saturated, so its lcm period is read off its
    tally and its floor.
    Each draw is charged what its own walk is offered, width x offsets per
    joining class, the width being its live choices; a draw whose charge
    passes WALK_BUDGET leaves the walk at the start of that node, with its
    walk's error, and a group that cannot pass it is not charged.  A draw
    whose chain or stacked rank is inconsistent keeps walking, but only the
    first error it meets is kept; a central draw meets its chains last.
    """
    size = len(classes)
    cols, floors = minors.cols, minors.floors
    alive = [d for d in range(size) if d not in errors]
    central = not any(any(map(any, draw.values())) for draw in classes)
    # the most (class set, offset choice) pairs of a draw, and the offsets a
    # choice is offered before each class
    if central:
        most = (1 << n) - 1
    else:
        classes = [list(draw.items()) for draw in classes]  # (coefficient column, offsets)
        most = max(prod(len(bs) + 1 for _, bs in draw) for draw in classes) - 1
        ends = [list(accumulate((len(bs) for _, bs in draw), initial=0)) for draw in classes]
    charged = most > WALK_BUDGET  # else no draw can pass it: saves central-scan wall_s 1.7%
    offered = [0] * size
    # (draw, |J| even, term key) -> class sets J; (draw, |J| even, d_1, ..., d_m) if central
    tally: Counter = Counter()
    # (first class to add, chosen class indices, alive draws, their d_k and
    #  floor_k as columns, and per alive draw its live choices: None in a
    #  central group)
    stack = [(0, (), alive, [[0] * len(alive)] * m,
              [[floors[d][k] for d in alive] for k in range(m)],
              None if central else [[((), [])]] * len(alive))]
    while stack:
        start, chosen, alive, dets, low, lives = stack.pop()
        if charged:
            # width x offsets per class, the width being 1 in a central group
            charges = repeat(n - start) if central else [
                len(live) * (ends[d][n] - ends[d][start]) for d, live in zip(alive, lives)]
            within = []
            for d, charge in zip(alive, charges):
                offered[d] += charge
                within.append(offered[d] <= WALK_BUDGET)
                if not within[-1]:
                    errors.setdefault(d, BudgetExceededError(
                        f"the subset walk offered more than WALK_BUDGET = {WALK_BUDGET} "
                        f"column subsets"))
            if not all(within):
                alive, dets, low, lives = _narrow(within, alive, dets, low, lives)
        if not alive:
            continue
        even = len(chosen) % 2  # |J| = len(chosen) + 1 is even: sign +1
        for idx in range(start, n):
            here, here_dets, here_low = alive, dets, low
            kept = None  # a central group keeps no choices
            if not central:
                kept = []
                for d, live in zip(alive, lives):
                    cvec, bs = classes[d][idx]
                    choices = []
                    for offs, a_basis in live:
                        for b in bs:
                            a_red = _reduce_against(a_basis, cvec + (b,))
                            if a_red is None:
                                choices.append((offs + (b,), a_basis))
                            elif a_red[0] < m:
                                choices.append((offs + (b,), a_basis + [a_red]))
                            # else: pivot m, the offset row: rank jump, subtree dropped
                    kept.append(choices)
                if not all(kept):
                    if not any(kept):
                        continue
                    here, here_dets, here_low, kept = _narrow(
                        list(map(bool, kept)), alive, dets, low, kept)
            now = _extend_determinantal(here_dets, chosen, idx, minors, here_low, here)
            keys = list(zip(*now))
            saturated = list(map(eq, keys, map(floors.__getitem__, here)))
            some = any(saturated)
            # below a saturated J the subtree of a choice is J + S over the
            # subsets S of the classes that extend it, all with J's key: it
            # sums to J's term when no later class extends it, else to 0.
            # A central group's one choice is all zero, and every later
            # class extends it with its offset 0.
            if central:
                terms = zip(here, repeat(even), *now)
                tally.update(terms if idx == n - 1 or not some
                             else compress(terms, map(not_, saturated)))
            else:
                found = [_chain(chains, key, errors, d) for key, d in zip(keys, here)]
            now_chosen = chosen + (idx,)
            for j, choices in enumerate(kept) if kept else ():
                es, zero_key = found[j]
                d = here[j]
                for offs, a_basis in choices if es else ():
                    if saturated[j] and any(_reduce_against(a_basis, c + (b,)) is None
                                            for c, bs in classes[d][idx + 1:] for b in bs):
                        continue
                    if es[-1] == 1 or not any(offs):
                        # the stacked chain is C_J's: d_k(A_J) divides
                        # d_k(C_J) = 1, or A_J is C_J with a zero row
                        rank, key = len(a_basis), zero_key
                    else:
                        rows = [[cols[d][i][r] for i in now_chosen] for r in range(m)]
                        eps = _smith_divisors(rows + [list(offs)])
                        rank = len(eps)
                        key = (len(es), tuple(p for p in zip(es, eps) if p != (1, 1)))
                    if rank != len(es):
                        errors.setdefault(d, InternalConsistencyError(
                            f"stacked rank {rank} disagrees with the coefficient rank {len(es)}"
                        ))
                        continue
                    tally[d, even, key] += 1
            if idx == n - 1:
                continue
            if not some:
                stack.append((idx + 1, now_chosen, here, now, here_low, kept))
            elif not all(saturated):  # a saturated draw leaves the alive list
                stack.append((idx + 1, now_chosen, *_narrow(list(map(not_, saturated)), here,
                                                            now, here_low, kept)))
    tables: list[dict] = [{} for _ in range(size)]
    for entry, count in tally.items():
        d, even, key = entry[:3]
        if central:  # d_1..d_m, read as their term key
            key = (chains.get(entry[2:]) or _chain(chains, entry[2:], errors, d))[1]
            if key is None:
                continue
        table = tables[d]
        table[key] = table.get(key, 0) + (count if even else -count)
    out: list = []
    for d, (floor, table) in enumerate(zip(floors, tables)):
        if d in errors:
            out.append(errors[d])
            continue
        # a class set left out of the tally is saturated: the floor's e_r;
        # the last pair of a key holds e_r, and no pair means 1
        es, _ = _chain(chains, floor, errors, d)
        rho = lcm(es[-1], *(pairs[-1][0] for _, pairs in table if pairs))
        out.append(({key: coef for key, coef in table.items() if coef}, rho))
    return out


def _narrow(keep, alive, dets, low, lives) -> tuple:
    """The alive draws that ``keep`` marks, with their d_k and floor_k
    columns and their live choices (None stays None)."""
    return (list(compress(alive, keep)), [list(compress(col, keep)) for col in dets],
            [list(compress(col, keep)) for col in low],
            None if lives is None else list(compress(lives, keep)))


def _prime_powers(n: int, spent: list[int]) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a positive integer, by trial division.

    ``spent[0]`` counts the trial divisors one CountingFormula has tried so
    far; each one tried here adds 1, and past _FACTOR_BUDGET this raises
    BudgetExceededError, so a term divisor with two large prime factors
    fails fast instead of stalling.
    """
    out = []
    p, step = 2, 1  # 2, then odd p only
    whole = n
    tried = spent[0]
    while p * p <= n:
        tried += 1
        if tried > _FACTOR_BUDGET:
            raise BudgetExceededError(
                f"factoring the term divisor {whole} by trial division tried "
                f"{tried} divisors, over the factoring budget of {_FACTOR_BUDGET}"
            )
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += step
        step = 2
    spent[0] = tried
    if n > 1:
        out.append((n, 1))
    return out


def _indicator_weights(pairs, spent: list[int]) -> dict[int, int]:
    """Nonzero weights w with, for every q >= 1,

        F(q) = prod over (e, e') in pairs of [gcd(e, q) = gcd(e', q)] * gcd(e, q)
             = sum of w[D] over the D in w dividing q.

    F depends on q only through gcd(q, L), L the lcm of every divisor in
    ``pairs``, and it is multiplicative there: gcds and their equality split
    over the primes of L.  So are its weights (the Moebius inversion of F),
    and at a prime power they are the difference F(p^a) - F(p^(a-1)).  For a
    single pair with e = e' that is Euler's totient, the identity
    gcd(e, q) = sum of phi(D) over D dividing both.  L is factored by trial
    division, charged to ``spent`` (see _prime_powers).
    """
    weights = {1: 1}
    for p, top in _prime_powers(lcm(*(x for pair in pairs for x in pair)), spent):
        local = [(1, 1)]
        prev = 1
        for a in range(1, top + 1):
            pa = p**a
            value = 1
            for e, ep in pairs:
                g = gcd(e, pa)
                if g != gcd(ep, pa):
                    value = 0
                    break
                value *= g
            if value != prev:
                local.append((pa, value - prev))
            prev = value
        weights = {d * pa: w * lw for d, w in weights.items() for pa, lw in local}
    return weights


class CountingFormula(_Value):
    """The counting formula of one arrangement as weights on divisibility
    indicators: for every q >= 1,

        count(q) = q^m + sum over ell of
                   (sum of weights[ell][D] over the moduli D dividing q) * q^(m - ell).

    Every modulus divides ``period``, the lcm period, so the constituent of
    residue class k is the same expression with D | k, and it depends on k
    only through gcd(k, period).  Indicators of distinct moduli are linearly
    independent, and a periodic function of gcd(q, period) is a function of
    gcd(q, s) for each of its periods s, so ``minimum_period`` is the lcm of
    the moduli with a nonzero weight.  Building the formula costs the subset
    walk plus the trial-division factoring of the term divisors, at most
    _FACTOR_BUDGET divisors tried, never the period or its divisors; only
    ``quasi_polynomial`` is linear in the period.  Formulas built in one
    batch share their divisor chains and indicator weights (see _formulas).

    A central arrangement never collapses (the paper's second main result):
    its minimum period is its lcm period.  ``of`` checks that on every
    central input, as it checks each term's divisor pairs while it expands
    the term, and raises InternalConsistencyError when a check fails.

    Build one with ``CountingFormula.of``; ``weights`` maps each coefficient
    rank ell to its moduli and nonzero integer weights.
    """

    def __init__(
        self, m: int, period: int, minimum_period: int, weights: dict[int, dict[int, int]]
    ):
        self.__dict__.update(m=m, period=period, minimum_period=minimum_period, weights=weights)

    @classmethod
    def of(cls, arr: ArrangementInput) -> "CountingFormula":
        """Walk the column subsets of ``arr`` once and expand every term.

        The one walk gives both the term table and the lcm period, read off
        the coefficient divisor chains it computes (see _lockstep_walk).
        This is a batch of one, with tables of its own (see _formulas).
        """
        return next(_formulas([arr]))

    def constituent(self, k: int) -> Polynomial:
        """The monic degree-m polynomial of residue class k >= 1 (k need not
        be reduced modulo the period)."""
        _require_int("k", k, positive=True)
        m = self.m
        coeffs = [0] * m + [1]
        for ell, dest in self.weights.items():
            coeffs[m - ell] += sum(w for dmod, w in dest.items() if k % dmod == 0)
        return Polynomial(tuple(coeffs))

    def count(self, q: int) -> int:
        """Exact value of the counting formula at q >= 1: the constituent of
        q's class evaluated at q."""
        _require_int("q", q, positive=True)
        return self.constituent(q).evaluate(q)

    def quasi_polynomial(self) -> QuasiPolynomial:
        """Every constituent, classes 1..period; classes with the same gcd
        with the period share one Polynomial."""
        rho = self.period
        if rho > CONSTITUENT_BUDGET:
            raise BudgetExceededError(
                f"lcm period {rho} exceeds the constituent materialization budget "
                f"{CONSTITUENT_BUDGET}"
            )
        shared: dict[int, Polynomial] = {}
        constituents = []
        for k in range(1, rho + 1):
            g = gcd(k, rho)
            if g not in shared:
                shared[g] = self.constituent(g)
            constituents.append(shared[g])
        return QuasiPolynomial(period=rho, constituents=tuple(constituents))


def _formulas(arrs):
    """The CountingFormula of each arrangement of ``arrs``, in order.

    The arrangements are walked _TABLE_CAP at a time, in lockstep (see
    _walks), so a long scan holds the walk state of at most _TABLE_CAP
    draws.  The formulas share two tables whose values depend on their keys
    alone: the walk's divisor chains by d_1..d_m (see _chain) and the
    indicator weights of each tuple of divisor pairs.  The 18 rows of ``qcp
    conjecture-scan --type B --rank 3 --k 2`` compute 5 chains and 3
    expansions, where formulas of their own compute 90 and 54.  Each table
    is emptied at _TABLE_CAP entries, so a long batch of large entries holds
    a bounded amount.  An input's error is raised when its turn comes, as
    its own formula would raise it.  Each formula's trial divisions are
    charged to _FACTOR_BUDGET, and it checks each term's divisor pairs as
    it expands the term and, for central input, that its minimum period is
    its lcm period (see _expand).
    """
    chains: dict = {}
    by_pairs: dict[tuple, dict[int, int]] = {}
    arrs = iter(arrs)
    while batch := list(islice(arrs, _TABLE_CAP)):
        for arr, walked in zip(batch, _walks(batch, chains)):
            if isinstance(walked, Exception):
                raise walked
            yield _expand(arr, *walked, by_pairs)


def _expand(arr: ArrangementInput, terms: dict, rho: int, by_pairs: dict) -> CountingFormula:
    """The CountingFormula of ``arr`` from its term table and lcm period.

    Each term's indicator weights come from ``by_pairs``, the batch's table
    keyed by the term's divisor pairs, emptied at _TABLE_CAP entries; the
    trial divisions of one formula are charged to _FACTOR_BUDGET.  Just
    before it expands a term it checks that term's divisor pairs, and after
    the pass that the minimum period divides the lcm period and, for central
    input, equals it, raising InternalConsistencyError otherwise.
    """
    central = arr.is_central
    spent = [0]  # trial divisors tried for this formula
    weights: dict[int, dict[int, int]] = {}
    for (ell, pairs), coef in terms.items():
        # every divisor divides the lcm period, which makes a constituent
        # depend on its class only through its gcd with the period: e | rho
        # by construction (e is in the chain of a class set whose e_r
        # entered the lcm), e' | rho tests the stacked Smith forms of nonzero
        # offset choices, and e == e' on central input guards the walk's
        # zero-offset shortcuts
        for e, ep in pairs:
            if central and e != ep:
                raise InternalConsistencyError(
                    "central arrangement produced unequal divisor chains"
                )
            if rho % e or rho % ep:
                raise InternalConsistencyError(
                    f"term divisor pair ({e}, {ep}) does not divide the lcm period {rho}"
                )
        expansion = by_pairs.get(pairs)
        if expansion is None:
            if len(by_pairs) >= _TABLE_CAP:
                by_pairs.clear()
            expansion = by_pairs[pairs] = _indicator_weights(pairs, spent)
        dest = weights.setdefault(ell, {})
        for dmod, w in expansion.items():
            dest[dmod] = dest.get(dmod, 0) + coef * w
    weights = {
        ell: {dmod: w for dmod, w in dest.items() if w} for ell, dest in weights.items()
    }
    minp = lcm(*(dmod for dest in weights.values() for dmod in dest))
    if rho % minp:
        raise InternalConsistencyError(
            f"minimum period {minp} does not divide the lcm period {rho}"
        )
    if central and minp != rho:
        raise InternalConsistencyError(
            f"central arrangement {arr.to_json_dict()} collapses: minimum period "
            f"{minp}, lcm period {rho}"
        )
    return CountingFormula(m=arr.m, period=rho, minimum_period=minp, weights=weights)


def divisor_formula_count(arr: ArrangementInput, q: int) -> int:
    """Exact evaluation of the divisor counting formula at q >= 1.

    Equals the true complement cardinality for every q > q_zero(arr); below
    the threshold the two may differ and no agreement is claimed.  Each call
    walks the subsets again; to evaluate many q, build one CountingFormula.
    """
    return CountingFormula.of(arr).count(q)


def characteristic_quasi_polynomial(arr: ArrangementInput) -> QuasiPolynomial:
    """The counting quasi-polynomial, one exact constituent per residue class.

    Constituents are read off the counting formula (see CountingFormula):
    monic of degree m with integer coefficients, one per divisor of the lcm
    period, shared by every class with that gcd.  Raises
    BudgetExceededError when the lcm period exceeds CONSTITUENT_BUDGET.
    """
    return CountingFormula.of(arr).quasi_polynomial()


def collapse_report(arr: ArrangementInput) -> CollapseReport:
    """Full period analysis: lcm period, minimum period, collapse flag, q0."""
    formula = CountingFormula.of(arr)
    qp = formula.quasi_polynomial()  # refuses a period past the budget before q_zero runs
    return CollapseReport(
        lcm_period=formula.period,
        minimum_period=formula.minimum_period,
        q0=q_zero(arr),
        quasi_polynomial=qp,
    )


def central_period_summary(arr: ArrangementInput) -> tuple[int, int]:
    """(lcm period, minimum period) of a central arrangement, without
    materializing any constituent.

    Both are read off the counting formula (see CountingFormula), whose cost
    does not grow with the period, so lcm periods far beyond the
    materialization budget remain exact.  The formula raises
    InternalConsistencyError unless the two are equal, so a returned pair
    always is.
    """
    if not arr.is_central:
        raise ValidationError("central_period_summary requires a central arrangement")
    formula = CountingFormula.of(arr)
    return formula.period, formula.minimum_period


# Default budget of central_scan, in column subsets its walks may offer.
_SCAN_BUDGET = 10**8


def _check_scan_args(m: int, n: int, entry_bound: int, trials: int, seed: int) -> None:
    for name, value in (("m", m), ("n", n), ("entry_bound", entry_bound), ("trials", trials),
                        ("seed", seed)):
        _require_int(name, value)
    if m < 1 or n < 1 or entry_bound < 1:
        raise ValidationError("m, n, and entry_bound must be positive")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")


def _central_draws(m: int, n: int, entry_bound: int, trials: int, seed: int):
    """The sample of generate_central_inputs, unchecked, drawn as it is read.

    Each entry is the one random.Random(seed).randint(-entry_bound,
    entry_bound) would return next, drawn as CPython draws it: getrandbits(k)
    for the width w = 2 * entry_bound + 1 and k = w.bit_length(), drawn
    again while it is w or more, less entry_bound."""
    getrandbits = random.Random(seed).getrandbits
    width = 2 * entry_bound + 1
    bits = width.bit_length()
    zeros = (0,) * n
    for _ in range(trials):
        cols = []
        for _ in range(n):
            col = ()
            while not any(col):
                col = []
                for _ in range(m):
                    r = getrandbits(bits)
                    while r >= width:
                        r = getrandbits(bits)
                    col.append(r - entry_bound)
            cols.append(col)
        yield ArrangementInput(IntMatrix.from_columns(cols), zeros)


def generate_central_inputs(
    m: int, n: int, entry_bound: int, trials: int, seed: int
) -> list[ArrangementInput]:
    """Deterministic sample of random central arrangements.

    Column entries are uniform in [-entry_bound, entry_bound], the stream
    of random.Random(seed).randint; zero columns are rejected and redrawn.
    Same seed, same sample.
    """
    _check_scan_args(m, n, entry_bound, trials, seed)
    return list(_central_draws(m, n, entry_bound, trials, seed))


def central_scan(
    m: int,
    n: int,
    entry_bound: int,
    trials: int,
    seed: int,
    budget: int = _SCAN_BUDGET,
) -> None:
    """Check minimum period == lcm period on generate_central_inputs' draws.

    The draws are made as they are walked, and their formulas are built in
    draw order by _formulas: _TABLE_CAP draws at a time walk in lockstep,
    one walk per class count (see _lockstep_walk), sharing the divisor
    chains and indicator weights that earlier draws computed.  The formula
    reads both periods off its weights, exactly for the huge lcm periods
    random matrices routinely produce, and raises InternalConsistencyError,
    naming the arrangement, on a central collapse; a scan that returns
    (None) found none.  The first draw whose walk or formula fails raises
    what its own formula would.
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
    for _ in _formulas(_central_draws(m, n, entry_bound, trials, seed)):
        pass  # building a formula checks minimum period == lcm period
