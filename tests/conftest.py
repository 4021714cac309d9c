"""Shared independent oracles for the test suite.

The first group deliberately avoids the library's Smith-form and enumeration
code: determinants come from cofactor expansion, divisor chains from gcds of
full minor sets, and subset quantities from complete enumeration.  They are
slow and only used on small inputs.

The second group checks the read-off of CountingFormula.  It starts from the
library's term table or from ``divisor_formula_count_naive``, but shares
nothing with the read-off: terms are evaluated as gcd products, expanded
with the totient identity, or sampled and interpolated exactly by
``interpolate_constituents``.  The naive enumerator and the interpolator
live here, not in qcp: no command runs them, and they stay as oracles.

``unpruned_term_table`` checks the pruned subset walk: it offers every
grouped subset, rank jumps included, and runs both Smith forms on each.

``bases_lcm_period`` checks the lcm period that qcp reads off its walk: it
walks the independent column sets only and runs Smith on bases alone.  Its
rank is the length of the library's ``_echelon`` basis; qcp itself takes
ranks from determinantal divisors.

``alcove_count`` counts the lattice points of a dilated open fundamental
alcove, which gives the count of central and Catalan root-system input in
closed form (Kamiya–Takemura–Terao; Athanasiadis).

``closed_form_A``, ``ehrhart_form_A``, ``reciprocity_A`` and
``correction_term`` are the paper's identities for the families of
``qcp.families``.  Kind A has a closed-form quasi-polynomial, an equivalent
product form built from open-cube lattice counts, and a reciprocity
identity; kind D satisfies a product formula plus an explicitly enumerable
correction term for q > p.  Each checks its arguments as the library does.

``euler_phi``, ``divisors``, ``with_period`` and ``roots_of_length`` are
small helpers that only tests need, and the ``count_calls`` fixture counts
calls to library functions, for tests that pin work counts.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from qcp import (
    BudgetExceededError,
    FamilyParams,
    InternalConsistencyError,
    Polynomial,
    QuasiPolynomial,
    ValidationError,
    q_zero,
)
from qcp.arrangement import _build_term_table, _echelon, _reduce_against
from qcp.intlinalg import _require_int, _smith_divisors


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` replaces each named function of
    ``module`` by one that counts its calls, and returns the Counter, keyed
    by name, that every call of the test adds to; monkeypatch restores the
    functions after the test."""
    calls = Counter()

    def watch(module, *names):
        for name in names:
            inner = getattr(module, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return watch


def alcove_count(theta, t: int) -> int:
    """The tuples c_0, ..., c_l >= 1 with c_0 + sum of m_i c_i = t, where
    theta = (m_1, ..., m_l) holds the highest root's coefficients.  Each c_i
    is 1 plus a free part, so the free parts make change for t - h, h = 1 +
    sum of m_i, from one coin of each value 1, m_1, ..., m_l."""
    rest = t - 1 - sum(theta)
    if rest < 0:
        return 0
    ways = [1] + [0] * rest
    for coin in (1, *theta):
        for v in range(coin, rest + 1):
            ways[v] += ways[v - coin]
    return ways[rest]


def _binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def closed_form_A(m: int, p: int, s: int) -> QuasiPolynomial:
    """Exact quasi-polynomial of the kind-A arrangement, period s.

    The class-k constituent has coefficient of t^(m-j), for j = 0..m,

        (-1)^j * [ (p*C(m-1, j-2) + C(m-1, j-1)) * gcd(k, s)
                   + p*C(m-1, j-1) + C(m-1, j) ].
    """
    FamilyParams(kind="A", m=m, p=p, s=s)
    constituents = []
    for k in range(1, s + 1):
        g = gcd(k, s)
        coeffs = [0] * (m + 1)
        for j in range(m + 1):
            value = (p * _binom(m - 1, j - 2) + _binom(m - 1, j - 1)) * g
            value += p * _binom(m - 1, j - 1) + _binom(m - 1, j)
            coeffs[m - j] = -value if j % 2 else value
        constituents.append(Polynomial(tuple(coeffs)))
    return QuasiPolynomial(period=s, constituents=tuple(constituents))


def ehrhart_form_A(m: int, p: int, s: int, q: int) -> int:
    """Product form of the kind-A count via open-cube lattice counts:

        (q - gcd(q, s)) * ( (q-1)^(m-1) + p * sum_{k=1}^{m-1} (-1)^k (q-1)^(m-1-k) )
        + (-1)^m * p.
    """
    FamilyParams(kind="A", m=m, p=p, s=s)
    _require_int("q", q, positive=True)
    inner = (q - 1) ** (m - 1)
    for k in range(1, m):
        term = p * (q - 1) ** (m - 1 - k)
        inner += -term if k % 2 else term
    tail = p if m % 2 == 0 else -p
    return (q - gcd(q, s)) * inner + tail


def reciprocity_A(m: int, p: int, s: int, q: int) -> int:
    """Closed-cube mirror of ehrhart_form_A:

        (q + gcd(q, s)) * ( (q+1)^(m-1) + p * sum_{k=1}^{m-1} (q+1)^(m-1-k) ) + p.

    Equals (-1)^m times the kind-A constituent of q's class evaluated at -q,
    with gcd taken at |q|.
    """
    FamilyParams(kind="A", m=m, p=p, s=s)
    _require_int("q", q, positive=True)
    inner = (q + 1) ** (m - 1)
    for k in range(1, m):
        inner += p * (q + 1) ** (m - 1 - k)
    return (q + gcd(q, s)) * inner + p


def correction_term(a: int, p: int, q: int) -> int:
    """Number of pairs (l, r) in [1, a] x [1, p] with a | (l*q - r) and
    q - (l*q - r)/a in [1, q-1].  Requires q > p.

    Equals p when a = 1, and when a = p with q >= 2p; no closed form is
    claimed for other parameters, the count is enumerated directly.
    """
    for name, v in (("a", a), ("p", p), ("q", q)):
        _require_int(name, v, positive=True)
    if q <= p:
        raise ValidationError(f"correction term requires q > p, got q={q}, p={p}")
    count = 0
    for r in range(1, p + 1):
        for ell in range(1, a + 1):
            num = ell * q - r
            if num % a:
                continue
            x = q - num // a
            if 1 <= x <= q - 1:
                count += 1
    return count


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer, by trial-division factorization."""
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of a positive integer."""
    return [d for d in range(1, n + 1) if n % d == 0]


def with_period(qp, new_period: int):
    """``qp`` re-expressed with a period that is a multiple of its own."""
    assert new_period % qp.period == 0, "new period must be a multiple of the current one"
    reps = tuple(qp.constituents[k % qp.period] for k in range(new_period))
    return QuasiPolynomial(period=new_period, constituents=reps)


def roots_of_length(system, length: str) -> tuple:
    return tuple(r for r, tag in zip(system.positive_roots, system.root_lengths) if tag == length)


def det(rows) -> int:
    """Exact determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * det(sub)
            total += term if j % 2 == 0 else -term
    return total


def minors_gcd(rows, k: int) -> int:
    """gcd of the absolute values of all k x k minors (0 if all vanish)."""
    nr, nc = len(rows), len(rows[0])
    g = 0
    for ridx in combinations(range(nr), k):
        for cidx in combinations(range(nc), k):
            sub = [[rows[i][j] for j in cidx] for i in ridx]
            g = gcd(g, det(sub))
    return g


def brute_rank(rows) -> int:
    """Largest k with a nonzero k x k minor."""
    top = min(len(rows), len(rows[0]))
    rank = 0
    for k in range(1, top + 1):
        if minors_gcd(rows, k):
            rank = k
        else:
            break
    return rank


def divisors_via_minors(rows) -> list[int]:
    """Elementary divisor chain from gcds of minors: e_k = d_k / d_{k-1}."""
    rank = brute_rank(rows)
    chain = []
    prev = 1
    for k in range(1, rank + 1):
        dk = minors_gcd(rows, k)
        chain.append(dk // prev)
        prev = dk
    return chain


def _subset_rows(columns, idx):
    nrows = len(columns[0])
    return [[columns[j][i] for j in idx] for i in range(nrows)]


def oracle_lcm_period(columns) -> int:
    """lcm of the largest divisor over every nonempty column subset."""
    acc = 1
    for size in range(1, len(columns) + 1):
        for idx in combinations(range(len(columns)), size):
            chain = divisors_via_minors(_subset_rows(columns, idx))
            if chain:
                top = chain[-1]
                acc = acc // gcd(acc, top) * top
    return acc


def bases_lcm_period(cmatrix) -> int:
    """The lcm period from the bases of the distinct columns alone.

    Every subset's largest divisor divides the largest divisor of some
    linearly independent subset spanning the same columns (dropping a
    dependent column can only grow invariant factors), and an independent
    subset's largest divisor divides that of every independent superset (its
    lattice's torsion embeds in theirs).  So the walk goes through
    independent subsets and runs Smith only on those of full rank.
    """
    cols = list(dict.fromkeys(cmatrix.columns()))
    nrows = cmatrix.rows
    rank = len(_echelon(cols))
    acc = 1
    chosen = []

    def rec(start, basis):
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


def oracle_q_zero(ccolumns, offsets) -> int:
    """Max largest divisor of stacked subsets with a rank jump, 0 if none."""
    best = 0
    n = len(ccolumns)
    stacked = [tuple(c) + (b,) for c, b in zip(ccolumns, offsets)]
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            crows = _subset_rows(ccolumns, idx)
            arows = _subset_rows(stacked, idx)
            if brute_rank(arows) == brute_rank(crows) + 1:
                chain = divisors_via_minors(arows)
                if chain and chain[-1] > best:
                    best = chain[-1]
    return best


def evaluate_terms(terms, m, q) -> int:
    """The counting formula at q, each term's gcd product taken directly."""
    total = q**m
    for (ell, pairs), coef in terms.items():
        prod = 1
        for e, ep in pairs:
            g = gcd(e, q)
            if g != gcd(ep, q):
                prod = 0
                break
            prod *= g
        total += coef * prod * q ** (m - ell)
    return total


def totient_summary(arr) -> tuple[int, int]:
    """(lcm period, minimum period) of a central arrangement by the totient
    expansion gcd(e, q) = sum of phi(d) over d dividing e and q: each
    coefficient becomes a combination of indicators [D | q], and the minimum
    period is the lcm of the moduli left with a nonzero weight."""
    rho = bases_lcm_period(arr.cmatrix)
    weights = {}
    for (ell, pairs), coef in _build_term_table(arr)[0].items():
        expansion = {1: coef}
        for e, ep in pairs:
            assert e == ep, "central input has equal divisor chains"
            nxt = {}
            for d in divisors(e):
                f = euler_phi(d)
                for dd, w in expansion.items():
                    key = dd // gcd(dd, d) * d
                    nxt[key] = nxt.get(key, 0) + w * f
            expansion = nxt
        dest = weights.setdefault(ell, {})
        for dmod, w in expansion.items():
            dest[dmod] = dest.get(dmod, 0) + w
    minp = 1
    for dest in weights.values():
        for dmod, w in dest.items():
            if w:
                minp = minp // gcd(minp, dmod) * dmod
    return rho, minp


# Naive subset enumeration is quadratic-exponential; refuse past this width.
NAIVE_COLUMN_LIMIT = 20


def divisor_formula_count_naive(arr, q: int) -> int:
    """The counting formula at q >= 1 over all 2^n - 1 column subsets, with
    no grouping and both Smith forms run on every subset; refuses inputs
    wider than NAIVE_COLUMN_LIMIT columns."""
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


def _lagrange_coeffs(points) -> list:
    """Exact coefficients (constant first) of the interpolating polynomial."""
    n = len(points)
    acc = [Fraction(0)] * n
    for i, (qi, vi) in enumerate(points):
        basis = [Fraction(1)]
        denom = 1
        for j, (qj, _) in enumerate(points):
            if j == i:
                continue
            shifted = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                shifted[d] -= c * qj
                shifted[d + 1] += c
            basis = shifted
            denom *= qi - qj
        scale = Fraction(vi, denom)
        for d, c in enumerate(basis):
            acc[d] += c * scale
    return acc


def interpolate_constituents(samples, expected_degree: int):
    """Reconstruct a quasi-polynomial from per-class samples.

    ``samples`` maps each residue class k in 1..rho (rho = number of keys) to
    at least ``expected_degree + 1`` pairs (q, value) with q ≡ k mod rho and
    pairwise distinct q.  The first ``expected_degree + 1`` points of each
    class (in increasing q) determine the constituent; any further points act
    as holdouts and must match it exactly.  Raises InternalConsistencyError
    when a constituent is not integral or a holdout disagrees, and
    ValidationError when the sample map is malformed or underdetermined.
    """
    if expected_degree < 0:
        raise ValidationError("expected_degree must be nonnegative")
    rho = len(samples)
    if rho < 1:
        raise ValidationError("need samples for at least one residue class")
    if sorted(samples) != list(range(1, rho + 1)):
        raise ValidationError("sample classes must be exactly 1..rho")

    constituents = []
    for k in range(1, rho + 1):
        pts = sorted((int(q), int(v)) for q, v in samples[k])
        if len(pts) < expected_degree + 1:
            raise ValidationError(
                f"class {k}: need at least {expected_degree + 1} samples, got {len(pts)}"
            )
        qs = [q for q, _ in pts]
        if len(set(qs)) != len(qs):
            raise ValidationError(f"class {k}: sample points must be pairwise distinct")
        for q in qs:
            if q < 1 or q % rho != k % rho:
                raise ValidationError(f"class {k}: sample point {q} not in the class")
        ints = []
        for c in _lagrange_coeffs(pts[: expected_degree + 1]):
            if c.denominator != 1:
                raise InternalConsistencyError(
                    f"constituent not integral: class {k} yields coefficient {c}"
                )
            ints.append(int(c))
        poly = Polynomial(tuple(ints))
        for q, v in pts[expected_degree + 1 :]:
            got = poly.evaluate(q)
            if got != v:
                raise InternalConsistencyError(
                    f"holdout sample mismatch: class {k} at q={q}: "
                    f"interpolant gives {got}, sample says {v}"
                )
        constituents.append(poly)
    return QuasiPolynomial(period=rho, constituents=tuple(constituents))


def interpolated_quasi_polynomial(arr):
    """Constituents interpolated from naive-enumerator samples above q0:
    m + 1 points per residue class and one holdout that must match."""
    rho, q0, m = bases_lcm_period(arr.cmatrix), q_zero(arr), arr.m
    samples = {}
    for k in range(1, rho + 1):
        first = q0 + 1 + (k - q0 - 1) % rho
        qs = [first + i * rho for i in range(m + 2)]
        samples[k] = [(q, divisor_formula_count_naive(arr, q)) for q in qs]
    return interpolate_constituents(samples, expected_degree=m)


def unpruned_term_table(arr) -> dict:
    """The term table of the counting formula by a full recursive walk:
    one offset per class of equal coefficient columns, identical stacked
    columns deduplicated, and every subset visited, inconsistent ones
    included (they contribute nothing)."""
    m = arr.m
    classes = []
    index = {}
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

    terms = {}
    chosen = []

    def visit():
        crows = [[c[i] for c, _ in chosen] for i in range(m)]
        arows = [list(r) for r in crows] + [[b for _, b in chosen]]
        es = _smith_divisors(crows)
        eps = _smith_divisors(arows)
        if len(eps) != len(es):
            return  # rank jump: contributes nothing
        pairs = tuple(p for p in zip(es, eps) if p != (1, 1))
        key = (len(es), pairs)
        sign = -1 if len(chosen) % 2 else 1
        terms[key] = terms.get(key, 0) + sign

    def rec(start):
        for idx in range(start, len(classes)):
            cvec, bs = classes[idx]
            for b in bs:
                chosen.append((cvec, b))
                visit()
                rec(idx + 1)
                chosen.pop()

    rec(0)
    return {key: coef for key, coef in terms.items() if coef}
