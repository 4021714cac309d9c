"""Positive roots of types A, B, C, D and G2, plus deformed-arrangement builders.

Roots are exact nonnegative coefficient vectors over the simple roots, built
from the Cartan matrix a_ij = <alpha_j, alpha_i^vee> (Bourbaki, Lie Groups,
Ch. VI).  The simple roots form a chain, except that D's alpha_rank joins
alpha_(rank-2), the fork; alpha_1 is short in B and G2, alpha_rank long in C.
For rank 2 this reproduces the conventional coefficient matrices

    B2: [[1, 0, 1, 2], [0, 1, 1, 1]]      G2: [[1, 0, 1, 2, 3, 3],
                                               [0, 1, 1, 1, 1, 2]]

column by column.  The positive roots are the upward reflection closure of
the simple roots: s_i(beta) = beta - <beta, alpha_i^vee> alpha_i joins when
the pairing is negative, and every positive root is reached so.  A new root
keeps the squared length of the root it came from; the simple roots' come
from the integer symmetrizer d_i a_ij = d_j a_ji.  The longest roots are
tagged long and the rest short, so B1 and C1 have none short.  Roots are
ordered by height, then lexicographically descending, as in those displays.

The extended Shi arrangement of a root subset uses every offset in
[1-k, k] per root; the extended Linial arrangement uses offsets [1, n].
"""

from __future__ import annotations

from math import prod

from .arrangement import ArrangementInput
from .errors import ValidationError
from .intlinalg import IntMatrix, _require_int, _Value

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

    def index_of(self, coeffs) -> int:
        """Position of a positive root given by its integer coefficients;
        entries are never coerced, so floats, strings and bools are rejected."""
        coeffs = tuple(coeffs)
        for c in coeffs:
            _require_int("root coefficient", c)
        try:
            return self.positive_roots.index(coeffs)
        except ValueError:
            raise ValidationError(
                f"{coeffs} is not a positive root of {self.type_tag}{self.rank}"
            ) from None


def _check_type_and_rank(type_tag: str, rank: int) -> None:
    """The checks positive_roots makes before it builds anything."""
    if type_tag not in ROOT_TYPES:
        raise ValidationError(f"type must be one of {ROOT_TYPES}, got {type_tag!r}")
    _require_int("rank", rank)
    if type_tag == "G2" and rank != 2:
        raise ValidationError("G2 requires rank 2")
    if type_tag == "D" and rank < 3:
        raise ValidationError(
            "type D requires rank >= 3 (rank 2 is reducible and has no highest root)"
        )
    if type_tag in ("A", "B", "C") and rank < 1:
        raise ValidationError(f"type {type_tag} requires rank >= 1")


def _cartan_matrix(type_tag: str, rank: int) -> list[list[int]]:
    """a[i][j] = <alpha_j, alpha_i^vee>, labelled as in the module docstring."""
    if type_tag == "G2":
        return [[2, -3], [-1, 2]]
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
         for i in range(rank)]
    if type_tag == "B" and rank > 1:
        a[0][1] = -2  # alpha_1 short
    elif type_tag == "C" and rank > 1:
        a[rank - 2][rank - 1] = -2  # alpha_rank long
    elif type_tag == "D":  # alpha_rank joins alpha_(rank-2), not alpha_(rank-1)
        a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
    return a


def positive_roots(type_tag: str, rank: int) -> RootSystem:
    """Root system data for the requested type and rank, by reflection
    closure of the simple roots (see the module docstring)."""
    _check_type_and_rank(type_tag, rank)
    cartan = _cartan_matrix(type_tag, rank)
    # d_i a_ij = d_j a_ji makes d_i proportional to alpha_i's squared length.
    # The diagram is a tree in which each alpha_j has an earlier neighbour
    # alpha_i, so d_j = d_i a_ij / a_ji divides by each off-diagonal entry at
    # most once, and starting from the product of their |a_ij| keeps d exact.
    d = [prod(-x for row in cartan for x in row if x < 0)]
    for j in range(1, rank):
        i = next(i for i in range(j) if cartan[i][j])
        d.append(d[i] * cartan[i][j] // cartan[j][i])
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    length = dict(zip(simple, d))  # root -> squared length, up to scale
    # pairing[beta][i] = <beta, alpha_i^vee>, column j of the matrix for alpha_j
    pairing = {s: [row[j] for row in cartan] for j, s in enumerate(simple)}
    todo = list(simple)
    while todo:
        beta = todo.pop()
        pb = pairing[beta]
        for i, p in enumerate(pb):
            if p < 0:  # s_i(beta) = beta - p alpha_i is a higher root
                gamma = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if gamma not in length:
                    length[gamma] = length[beta]
                    pairing[gamma] = [x - p * row[i] for x, row in zip(pb, cartan)]
                    todo.append(gamma)
    roots = sorted(length, key=lambda r: (sum(r), tuple(-c for c in r)))
    longest = max(d)
    return RootSystem(
        type_tag=type_tag,
        rank=rank,
        positive_roots=roots,
        root_lengths=[LONG if length[r] == longest else SHORT for r in roots],
        highest_root_coeffs=max(roots, key=sum),
    )


class RootSubset(_Value):
    """A subset of the positive roots, kept as indices into the parent list."""

    def __init__(self, parent: RootSystem, included):
        total = len(parent.positive_roots)
        idx = tuple(included)
        for i in idx:
            _require_int("subset index", i)
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
    _require_int("k", k)
    if k < 1:
        raise ValidationError("shi_matrix requires k >= 1 (k = 0 has no hyperplanes)")
    return _offset_arrangement(subset, range(1 - k, k + 1))


def linial_matrix(subset: RootSubset, n_param: int) -> ArrangementInput:
    """Extended Linial arrangement: offsets [1, n_param] per root."""
    _require_int("n", n_param)
    if n_param < 1:
        raise ValidationError("linial_matrix requires n >= 1")
    return _offset_arrangement(subset, range(1, n_param + 1))
