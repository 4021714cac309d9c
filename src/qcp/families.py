"""Explicit arrangement families with known period behavior.

Four kinds of (m+1) x (p+m) matrices, used as high-value fixtures: the first
m-1 columns are standard basis columns with offset 0, column m is s times
the last basis vector with offset 0, and the final p columns share the
coefficient part (1, ..., 1, mid) while their offsets walk an arithmetic
staircase:

    kind A:      mid = p, offsets 1..p    (lcm period p, minimum period s)
    kind B:      mid = p, offsets 0..p-1  (same periods, m >= 2 only)
    kind Aprime: mid = a, offsets 1..p    (lcm period lcm(s, a))
    kind D:      Aprime with s = 1

Kind A additionally has a closed-form quasi-polynomial, an equivalent
product form built from open-cube lattice counts, and a reciprocity
identity; kind D satisfies a product formula plus an explicitly enumerable
correction term for q > p.
"""

from __future__ import annotations

from math import comb, gcd

from .arrangement import ArrangementInput
from .errors import ValidationError
from .intlinalg import IntMatrix, _require_int, _Value
from .quasipoly import Polynomial, QuasiPolynomial

__all__ = [
    "FAMILY_KINDS",
    "FamilyParams",
    "family_matrix",
    "closed_form_A",
    "ehrhart_form_A",
    "reciprocity_A",
    "correction_term",
]

FAMILY_KINDS = ("A", "B", "Aprime", "D")


class FamilyParams(_Value):
    """Validated parameters selecting one member of one family kind."""

    def __init__(self, kind: str, m: int, p: int, s: int = 1, a: int = 1):
        if kind not in FAMILY_KINDS:
            raise ValidationError(f"kind must be one of {FAMILY_KINDS}, got {kind!r}")
        for name, v in (("m", m), ("p", p), ("s", s), ("a", a)):
            _require_int(name, v, positive=True)
        if kind in ("A", "B"):
            if p % s:
                raise ValidationError(f"kind {kind} requires s | p, got s={s}, p={p}")
            if a != 1:
                raise ValidationError(f"kind {kind} does not use the parameter a")
        if kind == "B":
            if m < 2:
                raise ValidationError("kind B requires m >= 2 (m = 1 degenerates)")
            if p < 2:
                raise ValidationError("kind B requires p >= 2 (p = 1 is central)")
        if kind == "D" and s != 1:
            raise ValidationError("kind D fixes s = 1")
        self.__dict__.update(kind=kind, m=m, p=p, s=s, a=a)


def family_matrix(params: FamilyParams) -> ArrangementInput:
    """Build the arrangement for the given family parameters."""
    m, p, s = params.m, params.p, params.s
    mid = params.a if params.kind in ("Aprime", "D") else p
    columns: list[list[int]] = []
    offsets: list[int] = []
    for i in range(m - 1):
        col = [0] * m
        col[i] = 1
        columns.append(col)
        offsets.append(0)
    col = [0] * m
    col[m - 1] = s
    columns.append(col)
    offsets.append(0)
    start = 0 if params.kind == "B" else 1
    for r in range(p):
        columns.append([1] * (m - 1) + [mid])
        offsets.append(start + r)
    return ArrangementInput(IntMatrix.from_columns(columns), tuple(offsets))


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
