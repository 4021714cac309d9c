"""Exact integer linear algebra: a dense matrix and the Smith divisor chain.

``_smith_divisors`` gives the elementary divisors d_1 | ... | d_r of a matrix
held as row lists, r being its rank; the subset walk calls it directly.  All
arithmetic is on Python integers, so every result is exact.

``_Value`` is the immutable base of every value class in qcp, and
``_require_int`` the one integer check at every library boundary
(``_require_ints`` for a sequence); they live here, in the lowest module
they all import.
"""

from __future__ import annotations

from itertools import chain

from .errors import ValidationError

__all__ = ["IntMatrix"]


class _Value:
    """Immutable value compared, hashed and printed by its fields.

    A subclass's ``__init__`` validates its arguments and stores the fields,
    in order, with one ``self.__dict__.update``; ``__dict__`` holds nothing
    else.  Values of the same class are equal when every field is, values of
    different classes never are, the hash is that of the field tuple, and
    the repr is ``Name(field=value, ...)``.  Assigning or deleting an
    attribute raises AttributeError.  Pickle and deepcopy restore
    ``__dict__`` without calling ``__init__``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


def _require_int(name: str, value, positive: bool = False) -> None:
    """Refuse a bool, any other non-int and, when ``positive``, a value below
    1: the library boundary coerces nothing."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if positive and value < 1:
        raise ValidationError(f"{name} must be a positive integer")


def _require_ints(name: str, values) -> None:
    """_require_int on each of ``values``: a sequence of plain ints passes
    one type check, and anything else is checked value by value, so an int
    subclass other than bool passes and the first bad value is named."""
    if not {*map(type, values)} <= {int}:
        for value in values:
            _require_int(name, value)


class IntMatrix(_Value):
    """Immutable dense integer matrix, entries stored row-major.

    Attributes
    ----------
    rows, cols : int
        Shape; both must be at least 1.
    entries : tuple[int, ...]
        Row-major entries, length rows * cols.
    """

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        _require_int("rows", rows, positive=True)
        _require_int("cols", cols, positive=True)
        if len(entries) != rows * cols:
            raise ValidationError(f"expected {rows * cols} entries, got {len(entries)}")
        _require_ints("matrix entry", entries)
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValidationError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValidationError("all rows must have equal length")
        flat = tuple(v for row in rows for v in row)
        return cls(rows=len(rows), cols=ncols, entries=flat)

    @classmethod
    def from_columns(cls, columns) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        if not columns:
            raise ValidationError("matrix must have at least one column")
        nrows = len(columns[0])
        if any(len(c) != nrows for c in columns):
            raise ValidationError("all columns must have equal length")
        if not nrows:
            raise ValidationError("matrix must have at least one row and one column")
        return cls(rows=nrows, cols=len(columns), entries=chain.from_iterable(zip(*columns)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]


def _smith_divisors(mat: list[list[int]]) -> list[int]:
    """Divisor chain of an integer matrix given as a list of row lists.

    Classic pivoting with Euclidean gcd reduction.  ``mat`` is consumed.

    The row step runs only once the column below the pivot is clear, so
    its column operations touch the pivot row alone and no other row grows.
    Without that, a row swapped out of the pivot position keeps an entry in
    the pivot column, and every column operation multiplies that entry into
    the rest of its row: on 3 x 6 matrices with six-digit entries the
    entries passed 4,000 digits within ten rounds.
    """
    nrows = len(mat)
    ncols = len(mat[0])
    divisors: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        # pivot of smallest absolute value in the trailing submatrix
        pi = pj = -1
        best = 0
        for i in range(t, nrows):
            row = mat[i]
            for j in range(t, ncols):
                v = row[j]
                if v:
                    if v < 0:
                        v = -v
                    if best == 0 or v < best:
                        best = v
                        pi, pj = i, j
        if best == 0:
            break
        if pi != t:
            mat[t], mat[pi] = mat[pi], mat[t]
        if pj != t:
            for row in mat:
                row[t], row[pj] = row[pj], row[t]
        if mat[t][t] < 0:
            mat[t] = [-v for v in mat[t]]

        while True:
            dirty = False
            # clear the column below the pivot
            for i in range(t + 1, nrows):
                if mat[i][t]:
                    piv = mat[t][t]
                    q = mat[i][t] // piv
                    if q:
                        rt = mat[t]
                        mat[i] = [a - q * b for a, b in zip(mat[i], rt)]
                    if mat[i][t]:
                        # remainder in (0, piv): becomes the new, smaller pivot
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
            if dirty:
                continue
            # clear the row right of the pivot; the column below it is zero,
            # so these column operations change the pivot row alone
            for j in range(t + 1, ncols):
                if mat[t][j]:
                    piv = mat[t][t]
                    q = mat[t][j] // piv
                    if q:
                        for row in mat:
                            row[j] -= q * row[t]
                    if mat[t][j]:
                        for row in mat:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the rest
            piv = mat[t][t]
            offender = -1
            for i in range(t + 1, nrows):
                ri = mat[i]
                for j in range(t + 1, ncols):
                    if ri[j] % piv:
                        offender = i
                        break
                if offender >= 0:
                    break
            if offender < 0:
                break
            # fold the offending row into the pivot row and reduce again;
            # the pivot strictly shrinks toward the gcd, so this terminates
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]

        divisors.append(mat[t][t])
        t += 1
    return divisors
