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
dropped with its whole subtree.  Integer echelon bases of C_J and A_J decide
this without a Smith form; Smith runs once per set of classes for C_J and
once per consistent offset choice for A_J (not at all when the chosen
offsets are zero, and then the stacked reduction is the coefficient one).
Every subset the walk offers, kept or pruned, is charged to WALK_BUDGET;
past it the walk raises BudgetExceededError.  A central arrangement has no
rank jumps, so the budget is what stops a wide one.

The lcm period needs Smith forms of bases only (the basis lemma).  For
independent column sets I within J, the torsion of I's lattice embeds in
that of J's: if x = l + k.v (l in L_I, v in J minus I) lies in span(L_I),
independence forces k = 0.  So I's largest divisor divides J's, every
independent set extends to a basis, and the lcm over the bases of the
distinct columns is the lcm over all subsets.  The walk reaches every such
basis, since an independent set of coefficient columns has no rank jump
under any offsets, and it runs Smith on C_J there anyway; so the lcm period
is read off the walk, as the lcm of the largest divisor over every class
set it visits.  lcm_period computes the same number on its own, walking
bases only; the tests use it as the oracle for the walk's value.

CountingFormula expands every term into integer weights on divisibility
indicators [D | q]; the value at any q, every constituent and the minimum
period are read off those weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import BudgetExceededError, InternalConsistencyError, ValidationError
from .intlinalg import IntMatrix, _smith_divisors, gcd_all
from .quasipoly import Polynomial, QuasiPolynomial, has_gcd_property

__all__ = [
    "ArrangementInput",
    "CollapseReport",
    "CountingFormula",
    "lcm_period",
    "q_zero",
    "divisor_formula_count",
    "divisor_formula_count_naive",
    "characteristic_quasi_polynomial",
    "characteristic_polynomial",
    "collapse_report",
    "central_period_summary",
    "CONSTITUENT_BUDGET",
    "WALK_BUDGET",
]

# Largest lcm period for which every constituent is materialized.
CONSTITUENT_BUDGET = 100_000

# Most column subsets the term-table walk may offer, kept or pruned.
WALK_BUDGET = 200_000

# Naive subset enumeration is quadratic-exponential; refuse past this width.
NAIVE_COLUMN_LIMIT = 20


@dataclass(frozen=True)
class ArrangementInput:
    """An integral arrangement: coefficient matrix plus offset vector.

    ``cmatrix`` is m x n with no zero column; ``offsets`` has one entry per
    column.  The central case is ``offsets == 0``.
    """

    cmatrix: IntMatrix
    offsets: tuple[int, ...]

    def __post_init__(self):
        for b in self.offsets:
            if not isinstance(b, int) or isinstance(b, bool):
                raise ValidationError(f"offsets must be integers, got {b!r}")
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if len(self.offsets) != self.cmatrix.cols:
            raise ValidationError(
                f"offset vector has {len(self.offsets)} entries for {self.cmatrix.cols} hyperplanes"
            )
        for j in range(self.cmatrix.cols):
            if not any(self.cmatrix.column(j)):
                raise ValidationError(f"coefficient column {j} is zero")

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

    def stacked(self) -> IntMatrix:
        """The (m+1) x n matrix with the offsets appended as a last row."""
        return self.cmatrix.with_extra_row(self.offsets)

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
        for name, value in (("m", m), ("n", n)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
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


@dataclass(frozen=True)
class CollapseReport:
    """Periods, collapse flag, threshold, and the quasi-polynomial itself."""

    lcm_period: int
    minimum_period: int
    collapse: bool
    q0: int
    gcd_property: bool
    quasi_polynomial: QuasiPolynomial

    def __post_init__(self):
        if self.lcm_period % self.minimum_period:
            raise ValidationError("minimum period must divide the lcm period")
        if self.collapse != (self.minimum_period < self.lcm_period):
            raise ValidationError("collapse flag inconsistent with the periods")

    def to_json_dict(self) -> dict:
        return {
            "lcm_period": self.lcm_period,
            "minimum_period": self.minimum_period,
            "collapse": self.collapse,
            "q0": self.q0,
            "gcd_property": self.gcd_property,
            "quasi_polynomial": self.quasi_polynomial.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CollapseReport":
        """Parse a report; periods and q0 must be JSON integers and the flags
        JSON booleans, and nothing is coerced."""
        for name in ("lcm_period", "minimum_period", "q0"):
            value = data[name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("collapse", "gcd_property"):
            if not isinstance(data[name], bool):
                raise ValidationError(f"{name} must be a boolean, got {data[name]!r}")
        return cls(
            lcm_period=data["lcm_period"],
            minimum_period=data["minimum_period"],
            collapse=data["collapse"],
            q0=data["q0"],
            gcd_property=data["gcd_property"],
            quasi_polynomial=QuasiPolynomial.from_json_dict(data["quasi_polynomial"]),
        )


def _reduce_against(basis, vec):
    """Eliminate ``vec`` against an integer echelon basis.

    ``basis`` is a list of (pivot index, row) pairs.  Returns the reduced
    (pivot, row) for an independent vector, or None for a dependent one.
    Rows are gcd-normalized to keep entries small.
    """
    v = list(vec)
    for piv, row in basis:
        if v[piv]:
            a, b = row[piv], v[piv]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            v = [fa * x - fb * y for x, y in zip(v, row)]
    for idx, val in enumerate(v):
        if val:
            g = gcd_all(v)
            if g > 1:
                v = [x // g for x in v]
            if v[idx] < 0:
                v = [-x for x in v]
            return idx, tuple(v)
    return None


def lcm_period(cmatrix: IntMatrix) -> int:
    """lcm of the largest elementary divisor over all column subsets.

    Every subset's largest divisor divides the largest divisor of some
    linearly independent subset spanning the same columns (dropping a
    dependent column can only grow invariant factors), and an independent
    subset's largest divisor divides that of every independent superset (its
    lattice's torsion embeds in theirs).  So the lcm is taken over the bases
    of the distinct columns only: the walk goes through independent subsets
    and runs Smith only on those of full rank.

    CountingFormula reads the same number off its subset walk; this
    standalone walk serves callers that need the period alone, and the
    tests as the oracle for the walk's value.
    """
    for j in range(cmatrix.cols):
        if not any(cmatrix.column(j)):
            raise ValidationError(f"coefficient column {j} is zero")
    cols: list[tuple[int, ...]] = []
    seen = set()
    for c in cmatrix.columns():
        if c not in seen:
            seen.add(c)
            cols.append(c)
    nrows = cmatrix.rows
    span: list = []
    for c in cols:
        red = _reduce_against(span, c)
        if red is not None:
            span.append(red)
    rank = len(span)
    acc = 1
    chosen: list[tuple[int, ...]] = []

    def rec(start: int, basis) -> None:
        nonlocal acc
        # leave enough columns to complete a basis
        for idx in range(start, len(cols) - (rank - len(chosen)) + 1):
            red = _reduce_against(basis, cols[idx])
            if red is None:
                continue
            chosen.append(cols[idx])
            if len(chosen) == rank:
                rows = [[c[i] for c in chosen] for i in range(nrows)]
                top = _smith_divisors(rows)[-1]
                acc = acc // gcd(acc, top) * top
            else:
                rec(idx + 1, basis + [red])
            chosen.pop()

    rec(0, [])
    return acc


def q_zero(arr: ArrangementInput) -> int:
    """Validity threshold: the counting formula equals the true count for q > q0.

    q0 is the largest elementary divisor of a stacked submatrix A_J over the
    subsets J whose stacked rank exceeds the coefficient rank by one.  The
    maximum is attained on subsets with independent stacked columns (again by
    invariant-factor monotonicity under column deletion), so the search walks
    independent subsets only; their size is at most m + 1.
    """
    if arr.is_central:
        return 0
    m = arr.m
    stacked_cols: list[tuple[int, ...]] = []
    seen = set()
    for j in range(arr.n):
        col = arr.cmatrix.column(j) + (arr.offsets[j],)
        if col not in seen:
            seen.add(col)
            stacked_cols.append(col)
    best = 0
    chosen: list[tuple[int, ...]] = []

    def rec(start: int, a_basis, c_basis, jumped: bool) -> None:
        nonlocal best
        for idx in range(start, len(stacked_cols)):
            col = stacked_cols[idx]
            a_red = _reduce_against(a_basis, col)
            if a_red is None:
                continue
            c_red = _reduce_against(c_basis, col[:m])
            if c_red is None and jumped:
                # dropping one row of an independent set loses rank at most 1
                raise InternalConsistencyError(
                    "two coefficient-rank drops inside an independent stacked subset"
                )
            now_jumped = jumped or c_red is None
            chosen.append(col)
            if now_jumped:
                rows = [[c[i] for c in chosen] for i in range(m + 1)]
                top = _smith_divisors(rows)[-1]
                if top > best:
                    best = top
            rec(
                idx + 1,
                a_basis + [a_red],
                c_basis if c_red is None else c_basis + [c_red],
                now_jumped,
            )
            chosen.pop()

    rec(0, [], [], False)
    return best


def _build_term_table(arr: ArrangementInput) -> tuple[dict, int]:
    """Aggregate subset contributions of the counting formula, and the lcm
    period.

    Terms: key (coefficient rank, tuple of (e, e') divisor pairs with (1, 1)
    dropped); value: signed number of subsets with that data.  Grouped by
    equal coefficient columns, one offset choice per class, identical stacked
    columns deduplicated.

    The walk is an iterative depth-first search over sets of column classes
    that prunes rank jumps (see the module docstring).  A node is a set of
    classes with its live offset choices, those whose stacked system is
    consistent, each carrying an echelon basis of its stacked columns; the
    coefficient columns carry one basis and one divisor chain shared by
    every choice.  For a choice whose offsets are all zero, adding offset 0
    reduces the stacked column exactly as the coefficient column, with a
    trailing 0, so that reduction is reused.

    The lcm period is the lcm of the largest divisor of C_J over every class
    set J whose chain the walk computes.  That is exact: every class set that
    is independent has no rank jump for any offset choice, so the walk
    reaches every basis of the distinct coefficient columns, and by the basis
    lemma (module docstring) the lcm over bases is the lcm over all subsets.
    """
    m = arr.m
    classes: list[tuple[tuple[int, ...], list[int]]] = []
    index: dict[tuple[int, ...], int] = {}
    seen = set()
    for j in range(arr.n):
        c = arr.cmatrix.column(j)
        b = arr.offsets[j]
        if (c, b) in seen:
            continue
        seen.add((c, b))
        if c in index:
            classes[index[c]][1].append(b)
        else:
            index[c] = len(classes)
            classes.append((c, [b]))

    terms: dict = {}
    rho = 1
    offered = 0
    # (first class to add, coefficient basis, chosen coefficient columns,
    #  live choices as (offsets, stacked basis))
    stack = [(0, [], [], [((), [])])]
    while stack:
        start, c_basis, ccols, live = stack.pop()
        for idx in range(start, len(classes)):
            cvec, bs = classes[idx]
            offered += len(live) * len(bs)
            if offered > WALK_BUDGET:
                raise BudgetExceededError(
                    f"the subset walk offered more than WALK_BUDGET = {WALK_BUDGET} "
                    f"column subsets"
                )
            c_red = _reduce_against(c_basis, cvec)
            kept = []
            for offs, a_basis in live:
                for b in bs:
                    if b == 0 and not any(offs):
                        a_red = None if c_red is None else (c_red[0], c_red[1] + (0,))
                    else:
                        a_red = _reduce_against(a_basis, cvec + (b,))
                    if a_red is None:
                        kept.append((offs + (b,), a_basis))
                    elif c_red is not None:
                        kept.append((offs + (b,), a_basis + [a_red]))
                    # else: rank jump, the subtree is dropped
            if not kept:
                continue
            now = ccols + [cvec]
            es = _smith_divisors([[c[i] for c in now] for i in range(m)])
            rho = lcm(rho, es[-1])
            sign = -1 if len(now) % 2 else 1
            for offs, _ in kept:
                if any(offs):
                    rows = [[c[i] for c in now] for i in range(m)] + [list(offs)]
                    eps = _smith_divisors(rows)
                else:
                    eps = es  # a zero row leaves the Smith form unchanged
                if len(eps) != len(es):
                    raise InternalConsistencyError(
                        "subset walk reached a subset with a rank jump"
                    )
                key = (len(es), tuple(p for p in zip(es, eps) if p != (1, 1)))
                terms[key] = terms.get(key, 0) + sign
            stack.append(
                (idx + 1, c_basis if c_red is None else c_basis + [c_red], now, kept)
            )
    return {key: coef for key, coef in terms.items() if coef}, rho


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a positive integer, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _indicator_weights(pairs) -> dict[int, int]:
    """Nonzero weights w with, for every q >= 1,

        F(q) = prod over (e, e') in pairs of [gcd(e, q) = gcd(e', q)] * gcd(e, q)
             = sum of w[D] over the D in w dividing q.

    F depends on q only through gcd(q, L), L the lcm of every divisor in
    ``pairs``, and it is multiplicative there: gcds and their equality split
    over the primes of L.  So are its weights (the Moebius inversion of F),
    and at a prime power they are the difference F(p^a) - F(p^(a-1)).  For a
    single pair with e = e' that is Euler's totient, the identity
    gcd(e, q) = sum of phi(D) over D dividing both.
    """
    weights = {1: 1}
    for p, top in _prime_powers(lcm(*(x for pair in pairs for x in pair))):
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


def _check_divisor_chains(terms: dict, rho: int, central: bool) -> None:
    """Structural sanity: every term divisor divides the lcm period, and
    central input (zero offset row) has equal chains.

    Divisibility is what makes every constituent depend on its class only
    through the gcd with the period; a violation would mean a bug in the
    period or term computation.  With the period taken from the same walk,
    e | rho holds by construction (every term's e is in the chain of a class
    set whose largest divisor entered the lcm).  e' | rho still tests the
    stacked Smith forms of nonzero offset choices against that period, and
    the central e == e' check guards the walk's zero-offset shortcuts.
    """
    for (_, pairs), _ in terms.items():
        for e, ep in pairs:
            if central and e != ep:
                raise InternalConsistencyError(
                    "central arrangement produced unequal divisor chains"
                )
            if rho % e or rho % ep:
                raise InternalConsistencyError(
                    f"term divisor pair ({e}, {ep}) does not divide the lcm period {rho}"
                )


@dataclass(frozen=True)
class CountingFormula:
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
    walk plus the divisors of the term divisors, never the period or its
    divisors; only ``quasi_polynomial`` is linear in the period.

    Build one with ``CountingFormula.of``; ``weights`` maps each coefficient
    rank ell to its moduli and nonzero integer weights.
    """

    m: int
    period: int
    minimum_period: int
    weights: dict[int, dict[int, int]]

    @classmethod
    def of(cls, arr: ArrangementInput) -> "CountingFormula":
        """Walk the column subsets of ``arr`` once and expand every term.

        The one walk gives both the term table and the lcm period, read off
        the coefficient divisor chains it computes (see _build_term_table);
        ``lcm_period`` stays the standalone function and the tests' oracle.
        """
        terms, rho = _build_term_table(arr)
        _check_divisor_chains(terms, rho, arr.is_central)
        by_pairs: dict[tuple, dict[int, int]] = {}  # one expansion per distinct pairs
        weights: dict[int, dict[int, int]] = {}
        for (ell, pairs), coef in terms.items():
            if pairs not in by_pairs:
                by_pairs[pairs] = _indicator_weights(pairs)
            dest = weights.setdefault(ell, {})
            for dmod, w in by_pairs[pairs].items():
                dest[dmod] = dest.get(dmod, 0) + coef * w
        weights = {
            ell: {dmod: w for dmod, w in dest.items() if w} for ell, dest in weights.items()
        }
        minp = lcm(*(dmod for dest in weights.values() for dmod in dest))
        if rho % minp:
            raise InternalConsistencyError(
                f"minimum period {minp} does not divide the lcm period {rho}"
            )
        return cls(m=arr.m, period=rho, minimum_period=minp, weights=weights)

    def constituent(self, k: int) -> Polynomial:
        """The monic degree-m polynomial of residue class k >= 1 (k need not
        be reduced modulo the period)."""
        m = self.m
        coeffs = [0] * m + [1]
        for ell, dest in self.weights.items():
            coeffs[m - ell] += sum(w for dmod, w in dest.items() if k % dmod == 0)
        return Polynomial(tuple(coeffs))

    def count(self, q: int) -> int:
        """Exact value of the counting formula at q >= 1: the constituent of
        q's class evaluated at q."""
        if q < 1:
            raise ValidationError("q must be a positive integer")
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


def divisor_formula_count(arr: ArrangementInput, q: int) -> int:
    """Exact evaluation of the divisor counting formula at q >= 1.

    Equals the true complement cardinality for every q > q_zero(arr); below
    the threshold the two may differ and no agreement is claimed.  Each call
    walks the subsets again; to evaluate many q, build one CountingFormula.
    """
    return CountingFormula.of(arr).count(q)


def divisor_formula_count_naive(arr: ArrangementInput, q: int) -> int:
    """Reference evaluation over all 2^n - 1 column subsets, no grouping.

    Kept as an independent cross-check of the grouped enumerator; refuses
    inputs wider than NAIVE_COLUMN_LIMIT columns.
    """
    if q < 1:
        raise ValidationError("q must be a positive integer")
    n = arr.n
    if n > NAIVE_COLUMN_LIMIT:
        raise BudgetExceededError(
            f"naive enumeration over 2^{n} subsets exceeds the limit of "
            f"{NAIVE_COLUMN_LIMIT} columns"
        )
    m = arr.m
    cols = [(arr.cmatrix.column(j), arr.offsets[j]) for j in range(n)]
    total = q**m
    for mask in range(1, 1 << n):
        sub = [cols[j] for j in range(n) if mask >> j & 1]
        crows = [[c[i] for c, _ in sub] for i in range(m)]
        arows = [list(r) for r in crows] + [[b for _, b in sub]]
        es = _smith_divisors(crows)
        eps = _smith_divisors(arows)
        if len(es) != len(eps):
            continue
        prod = 1
        for e, ep in zip(es, eps):
            g = gcd(e, q)
            if g != gcd(ep, q):
                prod = 0
                break
            prod *= g
        if prod:
            sign = -1 if bin(mask).count("1") % 2 else 1
            total += sign * prod * q ** (m - len(es))
    return total


def characteristic_quasi_polynomial(arr: ArrangementInput) -> QuasiPolynomial:
    """The counting quasi-polynomial, one exact constituent per residue class.

    Constituents are read off the counting formula (see CountingFormula):
    monic of degree m with integer coefficients, one per divisor of the lcm
    period, shared by every class with that gcd.  Raises
    BudgetExceededError when the lcm period exceeds CONSTITUENT_BUDGET.
    """
    return CountingFormula.of(arr).quasi_polynomial()


def characteristic_polynomial(arr: ArrangementInput) -> Polynomial:
    """The class-1 constituent (the characteristic polynomial of the arrangement)."""
    return CountingFormula.of(arr).constituent(1)


def collapse_report(arr: ArrangementInput) -> CollapseReport:
    """Full period analysis: lcm period, minimum period, collapse flag, q0."""
    formula = CountingFormula.of(arr)
    qp = formula.quasi_polynomial()
    minp = formula.minimum_period
    return CollapseReport(
        lcm_period=formula.period,
        minimum_period=minp,
        collapse=minp < formula.period,
        q0=q_zero(arr),
        gcd_property=has_gcd_property(qp),
        quasi_polynomial=qp,
    )


def central_period_summary(arr: ArrangementInput) -> tuple[int, int]:
    """(lcm period, minimum period) of a central arrangement, without
    materializing any constituent.

    Both are read off the counting formula (see CountingFormula), whose cost
    does not grow with the period, so lcm periods far beyond the
    materialization budget remain exact.
    """
    if not arr.is_central:
        raise ValidationError("central_period_summary requires a central arrangement")
    formula = CountingFormula.of(arr)
    return formula.period, formula.minimum_period
