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
"""

from __future__ import annotations

from .arrangement import ArrangementInput
from .errors import ValidationError
from .intlinalg import IntMatrix, _require_int, _Value

__all__ = [
    "FAMILY_KINDS",
    "FamilyParams",
    "family_matrix",
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
