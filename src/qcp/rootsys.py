"""Positive-root data for types A, B, C, D, G2, plus deformed-arrangement builders.

Roots are stored as exact nonnegative coefficient vectors over the simple
roots.  The tables are hardcoded from the standard simple-root expansions;
for types B and G2 the simple roots are labeled so the first one is short,
which for rank 2 reproduces the conventional displayed coefficient matrices

    B2: [[1, 0, 1, 2], [0, 1, 1, 1]]      G2: [[1, 0, 1, 2, 3, 3],
                                               [0, 1, 1, 1, 1, 2]]

column by column.  Roots are ordered by height, then lexicographically
descending, which matches those displays.

The extended Shi arrangement of a root subset uses every offset in
[1-k, k] per root; the extended Linial arrangement uses offsets [1, n].
"""

from __future__ import annotations

from .arrangement import ArrangementInput
from .errors import ValidationError
from .intlinalg import IntMatrix, _Value

__all__ = [
    "ROOT_TYPES",
    "RootSystem",
    "RootSubset",
    "positive_roots",
    "shi_matrix",
    "linial_matrix",
]

ROOT_TYPES = ("A", "B", "C", "D", "G2")

SHORT = "short"
LONG = "long"


class RootSystem(_Value):
    """Positive roots of an irreducible crystallographic root system."""

    def __init__(
        self, type_tag: str, rank: int, positive_roots, root_lengths, highest_root_coeffs
    ):
        positive_roots = tuple(tuple(r) for r in positive_roots)
        root_lengths = tuple(root_lengths)
        highest_root_coeffs = tuple(highest_root_coeffs)
        if len(root_lengths) != len(positive_roots):
            raise ValidationError("one length tag per positive root required")
        for root in positive_roots:
            if len(root) != rank:
                raise ValidationError("root coefficient vectors must have rank entries")
            if not any(root) or any(c < 0 for c in root):
                raise ValidationError("roots must be nonzero with nonnegative entries")
        if highest_root_coeffs not in positive_roots:
            raise ValidationError("highest root must be a positive root")
        for root in positive_roots:
            if any(c > h for c, h in zip(root, highest_root_coeffs)):
                raise ValidationError("highest root must dominate every positive root")
        self.__dict__.update(
            type_tag=type_tag,
            rank=rank,
            positive_roots=positive_roots,
            root_lengths=root_lengths,
            highest_root_coeffs=highest_root_coeffs,
        )

    @property
    def coxeter_number(self) -> int:
        """1 plus the sum of the highest root's coefficients."""
        return 1 + sum(self.highest_root_coeffs)

    def index_of(self, coeffs) -> int:
        """Position of a positive root given by its integer coefficients;
        entries are never coerced, so floats, strings and bools are rejected."""
        coeffs = tuple(coeffs)
        if any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
            raise ValidationError(f"root coefficients must be integers, got {coeffs!r}")
        try:
            return self.positive_roots.index(coeffs)
        except ValueError:
            raise ValidationError(
                f"{coeffs} is not a positive root of {self.type_tag}{self.rank}"
            ) from None

    def roots_of_length(self, length: str) -> tuple[tuple[int, ...], ...]:
        return tuple(
            root
            for root, tag in zip(self.positive_roots, self.root_lengths)
            if tag == length
        )


def _sorted_roots(items):
    """Order by height, then lexicographically descending; returns two tuples."""
    items = sorted(items, key=lambda it: (sum(it[0]), tuple(-c for c in it[0])))
    roots = tuple(root for root, _ in items)
    lengths = tuple(tag for _, tag in items)
    return roots, lengths


def _interval(rank, lo, hi, value=1):
    """Vector with ``value`` at 1-based positions lo..hi, zero elsewhere."""
    vec = [0] * rank
    for i in range(lo, hi + 1):
        vec[i - 1] = value
    return vec


def _roots_type_a(rank):
    items = []
    for i in range(1, rank + 1):
        for j in range(i, rank + 1):
            items.append((tuple(_interval(rank, i, j)), LONG))
    return items


def _roots_type_b(rank):
    # alpha_1 short; vectors are the standard expansions written in reverse.
    items = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            items.append((tuple(reversed(_interval(rank, i, j - 1))), LONG))
    for i in range(1, rank + 1):
        items.append((tuple(reversed(_interval(rank, i, rank))), SHORT))
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            vec = _interval(rank, i, j - 1)
            for t in range(j, rank + 1):
                vec[t - 1] = 2
            items.append((tuple(reversed(vec)), LONG))
    return items


def _roots_type_c(rank):
    items = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            items.append((tuple(_interval(rank, i, j - 1)), SHORT))
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            vec = _interval(rank, i, j - 1)
            for t in range(j, rank):
                vec[t - 1] = 2
            vec[rank - 1] = 1
            items.append((tuple(vec), SHORT))
    for i in range(1, rank + 1):
        vec = [0] * rank
        for t in range(i, rank):
            vec[t - 1] = 2
        vec[rank - 1] = 1
        items.append((tuple(vec), LONG))
    return items


def _roots_type_d(rank):
    items = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            items.append((tuple(_interval(rank, i, j - 1)), LONG))
    for i in range(1, rank):
        vec = _interval(rank, i, rank - 2)
        vec[rank - 1] = 1
        items.append((tuple(vec), LONG))
    for i in range(1, rank):
        for j in range(i + 1, rank):
            vec = _interval(rank, i, j - 1)
            for t in range(j, rank - 1):
                vec[t - 1] = 2
            vec[rank - 2] = max(vec[rank - 2], 1)
            vec[rank - 1] = 1
            items.append((tuple(vec), LONG))
    return items


_G2_ROOTS = (
    ((1, 0), SHORT),
    ((0, 1), LONG),
    ((1, 1), SHORT),
    ((2, 1), SHORT),
    ((3, 1), LONG),
    ((3, 2), LONG),
)


def positive_roots(type_tag: str, rank: int) -> RootSystem:
    """Root system data for the requested type and rank."""
    if type_tag not in ROOT_TYPES:
        raise ValidationError(f"type must be one of {ROOT_TYPES}, got {type_tag!r}")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValidationError(f"rank must be an integer, got {rank!r}")
    if type_tag == "G2":
        if rank != 2:
            raise ValidationError("G2 requires rank 2")
        items = list(_G2_ROOTS)
    elif type_tag == "A":
        if rank < 1:
            raise ValidationError("type A requires rank >= 1")
        items = _roots_type_a(rank)
    elif type_tag == "B":
        if rank < 1:
            raise ValidationError("type B requires rank >= 1")
        items = _roots_type_a(1) if rank == 1 else _roots_type_b(rank)
    elif type_tag == "C":
        if rank < 1:
            raise ValidationError("type C requires rank >= 1")
        items = _roots_type_a(1) if rank == 1 else _roots_type_c(rank)
    else:  # D
        if rank < 3:
            raise ValidationError(
                "type D requires rank >= 3 (rank 2 is reducible and has no highest root)"
            )
        items = _roots_type_d(rank)
    roots, lengths = _sorted_roots(items)
    highest = max(roots, key=sum)
    return RootSystem(
        type_tag=type_tag,
        rank=rank,
        positive_roots=roots,
        root_lengths=lengths,
        highest_root_coeffs=highest,
    )


class RootSubset(_Value):
    """A subset of the positive roots, kept as indices into the parent list."""

    def __init__(self, parent: RootSystem, included):
        total = len(parent.positive_roots)
        idx = tuple(included)
        if len(set(idx)) != len(idx) or any(i < 0 or i >= total for i in idx):
            raise ValidationError("subset indices must be distinct and in range")
        self.__dict__.update(parent=parent, included=tuple(sorted(idx)))

    @classmethod
    def full(cls, system: RootSystem) -> "RootSubset":
        return cls(parent=system, included=tuple(range(len(system.positive_roots))))

    @classmethod
    def excluding(cls, system: RootSystem, coeffs) -> "RootSubset":
        drop = system.index_of(coeffs)
        keep = tuple(i for i in range(len(system.positive_roots)) if i != drop)
        return cls(parent=system, included=keep)

    @property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.parent.positive_roots[i] for i in self.included)


def _offset_arrangement(subset: RootSubset, offsets) -> ArrangementInput:
    roots = subset.roots
    if not roots:
        raise ValidationError("root subset must be nonempty")
    columns = []
    column_offsets = []
    for root in roots:
        for ell in offsets:
            columns.append(list(root))
            column_offsets.append(ell)
    return ArrangementInput(IntMatrix.from_columns(columns), tuple(column_offsets))


def shi_matrix(subset: RootSubset, k: int) -> ArrangementInput:
    """Extended Shi arrangement: every root of the subset with each offset in
    [1-k, k].  Needs k >= 1; the k = 0 arrangement has no hyperplanes and its
    count is simply q^rank."""
    if k < 1:
        raise ValidationError("shi_matrix requires k >= 1 (k = 0 has no hyperplanes)")
    return _offset_arrangement(subset, range(1 - k, k + 1))


def linial_matrix(subset: RootSubset, n_param: int) -> ArrangementInput:
    """Extended Linial arrangement: offsets [1, n_param] per root."""
    if n_param < 1:
        raise ValidationError("linial_matrix requires n >= 1")
    return _offset_arrangement(subset, range(1, n_param + 1))
