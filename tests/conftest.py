"""Shared independent oracles for the test suite.

The first group deliberately avoids the library's Smith-form and enumeration
code: determinants come from cofactor expansion, divisor chains from gcds of
full minor sets, and subset quantities from complete enumeration.  They are
slow and only used on small inputs.

The second group checks the read-off of CountingFormula.  It starts from the
library's term table or its naive enumerator, but shares nothing with the
read-off: terms are evaluated as gcd products, expanded with the totient
identity, or sampled and interpolated.

``unpruned_term_table`` checks the pruned subset walk: it offers every
grouped subset, rank jumps included, and runs both Smith forms on each.
"""

from itertools import combinations
from math import gcd

from qcp import (
    divisor_formula_count_naive,
    interpolate_constituents,
    lcm_period,
    q_zero,
)
from qcp.arrangement import _build_term_table
from qcp.intlinalg import _smith_divisors, divisors_of, euler_phi


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
    rho = lcm_period(arr.cmatrix)
    weights = {}
    for (ell, pairs), coef in _build_term_table(arr).items():
        expansion = {1: coef}
        for e, ep in pairs:
            assert e == ep, "central input has equal divisor chains"
            nxt = {}
            for d in divisors_of(e):
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


def interpolated_quasi_polynomial(arr):
    """Constituents interpolated from naive-enumerator samples above q0:
    m + 1 points per residue class and one holdout that must match."""
    rho, q0, m = lcm_period(arr.cmatrix), q_zero(arr), arr.m
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
