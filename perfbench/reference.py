"""Independent reference computations for checking qcp's outputs.

Nothing here imports qcp.  Divisor data comes from determinantal divisors
(gcds of full minor sets), counts from enumerating (Z/q)^m, and the kind-A
quasi-polynomial from the paper's product form.  Everything is meant for the
small inputs the checks feed it.
"""

from __future__ import annotations

import itertools
import random
from math import comb, gcd

# ---------------------------------------------------------------------------
# polynomials: integer coefficient lists, constant term first


def poly_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_scale(a, c):
    return poly_trim([c * x for x in a])


def linear_power(root, e):
    """Coefficients of (t - root)^e."""
    return poly_trim([comb(e, i) * (-root) ** (e - i) for i in range(e + 1)])


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# complement counting over (Z/q)^m


def complement_count_naive(columns, offsets, q):
    """Points z of (Z/q)^m with z . c_j != b_j (mod q) for every j, by
    testing every point against every hyperplane."""
    m = len(columns[0])
    targets = [b % q for b in offsets]
    count = 0
    for z in itertools.product(range(q), repeat=m):
        if all(sum(zi * ci for zi, ci in zip(z, col)) % q != b for col, b in zip(columns, targets)):
            count += 1
    return count


def _solutions(c, r, q):
    """All x in Z/q with c*x = r (mod q)."""
    g = gcd(c, q)
    if r % g:
        return ()
    step = q // g
    x0 = (r // g) * pow(c // g, -1, step) % step if step > 1 else 0
    return range(x0, q, step)


def complement_count(columns, offsets, q):
    """Same count as complement_count_naive, enumerating the first m-1
    coordinates and solving each hyperplane for the last one."""
    m = len(columns[0])
    lasts = [col[m - 1] % q for col in columns]
    count = 0
    for prefix in itertools.product(range(q), repeat=m - 1):
        hit = set()
        for col, b, c in zip(columns, offsets, lasts):
            partial = sum(zi * ci for zi, ci in zip(prefix, col))
            hit.update(_solutions(c, (b - partial) % q, q))
            if len(hit) == q:
                break
        count += q - len(hit)
    return count


# ---------------------------------------------------------------------------
# determinantal divisors


def det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd(rows, k):
    """gcd of all k x k minors of ``rows`` (0 when they all vanish)."""
    g = 0
    ncols = len(rows[0])
    for ridx in itertools.combinations(range(len(rows)), k):
        sub_rows = [rows[i] for i in ridx]
        for cidx in itertools.combinations(range(ncols), k):
            g = gcd(g, det([[r[j] for j in cidx] for r in sub_rows]))
            if g == 1:
                return 1
    return g


def rank(rows):
    """Rank over Q, by fraction-free row elimination."""
    a = [list(r) for r in rows]
    r = 0
    for j in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][j]:
                a[i] = [x * a[r][j] - y * a[i][j] for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def largest_divisor(rows):
    """Largest elementary divisor: Delta_r / Delta_(r-1), with r the rank;
    1 for a zero matrix."""
    r = rank(rows)
    if r == 0:
        return 1
    lower = minors_gcd(rows, r - 1) if r > 1 else 1
    return minors_gcd(rows, r) // lower


def _rows_of(columns):
    return [list(row) for row in zip(*columns)]


def _distinct(columns):
    # Elementary divisors depend only on the lattice the columns span, so
    # repeated columns never change them.
    return list(dict.fromkeys(tuple(c) for c in columns))


# Both maxima below are attained on subsets of at most as many columns as
# rows.  A subset J contains an independent subset S with the same rational
# span; L(S) <= L(J) have the same saturation, so the torsion of the
# saturation over L(J) is a quotient of that over L(S), and the largest
# divisor of J divides that of S.  A rank jump of J is also one of S.


def lcm_period(columns):
    """lcm over every nonempty column subset of its largest elementary
    divisor."""
    cols = _distinct(columns)
    acc = 1
    for size in range(1, min(len(cols), len(cols[0])) + 1):
        for sub in itertools.combinations(cols, size):
            d = largest_divisor(_rows_of(sub))
            acc = acc * d // gcd(acc, d)
    return acc


def q_zero(columns, offsets):
    """Largest elementary divisor of a stacked submatrix [C_J; b_J] over the
    subsets J whose stacked rank exceeds the coefficient rank by one; 0 when
    no subset has such a rank jump."""
    cols = _distinct(tuple(c) + (b,) for c, b in zip(columns, offsets))
    best = 0
    for size in range(1, min(len(cols), len(cols[0])) + 1):
        for sub in itertools.combinations(cols, size):
            stacked = _rows_of(sub)
            if rank(stacked) == rank(stacked[:-1]) + 1:
                best = max(best, largest_divisor(stacked))
    return best


# ---------------------------------------------------------------------------
# arrangement families and root systems


def family_columns(kind, m, p, s=1, a=1):
    """(columns, offsets) of a staircase-family arrangement: m-1 basis
    columns and s times the last basis vector, all with offset 0, then p
    copies of (1, ..., 1, mid) with offsets 1..p (0..p-1 for kind B), where
    mid is p for kinds A and B and a for kinds Aprime and D."""
    cols, offs = [], []
    for i in range(m):
        col = [0] * m
        col[i] = s if i == m - 1 else 1
        cols.append(tuple(col))
        offs.append(0)
    mid = a if kind in ("Aprime", "D") else p
    start = 0 if kind == "B" else 1
    for r in range(p):
        cols.append(tuple([1] * (m - 1) + [mid]))
        offs.append(start + r)
    return cols, offs


def kind_a_constituent(m, p, g):
    """Kind-A constituent for a class k with gcd(k, s) = g, from the product
    form (t - g) * ((t-1)^(m-1) + p * sum_{i=1}^{m-1} (-1)^i (t-1)^(m-1-i))
    + (-1)^m * p."""
    inner = linear_power(1, m - 1)
    for i in range(1, m):
        inner = poly_add(inner, poly_scale(linear_power(1, m - 1 - i), p * (-1) ** i))
    return poly_add(poly_mul(linear_power(g, 1), inner), [p if m % 2 == 0 else -p])


def kind_a_count(m, p, s, q):
    """Kind-A count at q > q0, from the product form."""
    return poly_eval(kind_a_constituent(m, p, gcd(q, s)), q)


def aprime_difference(m, p, a, q):
    """Kind-A count minus the kind-Aprime (or D) count with the same m, p, s:
    p - g * #{r in 1..p : g | r} with g = gcd(q, a), negated for odd m."""
    g = gcd(q, a)
    value = p - g * (p // g)
    return -value if m % 2 else value


# (number of positive roots, Coxeter number) of each irreducible type
def root_system_size(type_tag, rank):
    if type_tag == "A":
        return rank * (rank + 1) // 2, rank + 1
    if type_tag in ("B", "C"):
        return rank * rank, 2 * rank
    if type_tag == "D":
        return rank * (rank - 1), 2 * rank - 2
    if type_tag == "G2":
        return 6, 6
    raise ValueError(f"unknown root type {type_tag!r}")


# ---------------------------------------------------------------------------
# central scan inputs


def central_inputs(m, n, entry_bound, trials, seed):
    """Column lists of the central arrangements drawn by the documented
    scan generator (python-random-mt19937): per trial, n columns of m
    entries uniform in [-entry_bound, entry_bound], zero columns redrawn."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        cols = []
        for _ in range(n):
            while True:
                col = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(m))
                if any(col):
                    break
            cols.append(col)
        out.append(cols)
    return out
