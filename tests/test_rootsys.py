"""Root data tables and Shi/Linial builders."""

from math import factorial, lcm, prod

import pytest

from conftest import alcove_count, roots_of_length
from qcp import (
    ArrangementInput,
    CountingFormula,
    IntMatrix,
    RootSubset,
    RootSystem,
    ValidationError,
    brute_force_count,
    linial_matrix,
    positive_roots,
    q_zero,
    shi_matrix,
)


def test_b2_matches_reference_matrix():
    system = positive_roots("B", 2)
    assert system.positive_roots == ((1, 0), (0, 1), (1, 1), (2, 1))
    assert system.root_lengths == ("short", "long", "short", "long")
    assert system.highest_root_coeffs == (2, 1)


def test_g2_matches_reference_matrix():
    system = positive_roots("G2", 2)
    assert system.positive_roots == ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
    assert system.root_lengths == ("short", "long", "short", "short", "long", "long")
    assert system.highest_root_coeffs == (3, 2)


def test_a2_roots():
    system = positive_roots("A", 2)
    assert set(system.positive_roots) == {(1, 0), (0, 1), (1, 1)}


# Closed forms at rank n: positive roots, Coxeter number, short roots and
# highest root, with alpha_1 short in B and G2, alpha_n long in C and D's fork
# at alpha_(n-2).
CLOSED_FORMS = {
    "A": lambda n: (n * (n + 1) // 2, n + 1, 0, (1,) * n),
    "B": lambda n: (n * n, 2 * n, n if n > 1 else 0, (2,) * (n - 1) + (1,)),
    "C": lambda n: (n * n, 2 * n, n * (n - 1), (2,) * (n - 1) + (1,)),
    "D": lambda n: (n * (n - 1), 2 * n - 2, 0, (1,) + (2,) * (n - 3) + (1, 1)),
    "G2": lambda n: (6, 6, 3, (3, 2)),
}


@pytest.mark.parametrize(
    "type_tag,rank,count,h",
    [
        (type_tag, rank, *CLOSED_FORMS[type_tag](rank)[:2])
        for type_tag in "ABCD"
        for rank in range(3 if type_tag == "D" else 1, 9)
    ]
    + [("G2", 2, 6, 6)],
)
def test_counts_and_coxeter_numbers(type_tag, rank, count, h):
    system = positive_roots(type_tag, rank)
    assert len(system.positive_roots) == count
    assert len(set(system.positive_roots)) == count
    assert 1 + sum(system.highest_root_coeffs) == h
    _, _, short, highest = CLOSED_FORMS[type_tag](rank)
    assert len(roots_of_length(system, "short")) == short
    assert system.highest_root_coeffs == highest


@pytest.mark.parametrize("type_tag,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_highest_root_dominates(type_tag, rank):
    system = positive_roots(type_tag, rank)
    high = system.highest_root_coeffs
    assert high in system.positive_roots
    for root in system.positive_roots:
        assert any(root)
        assert all(c >= 0 for c in root)
        assert all(c <= hc for c, hc in zip(root, high))


def test_unsupported_combinations():
    with pytest.raises(ValidationError):
        positive_roots("G2", 3)
    with pytest.raises(ValidationError):
        positive_roots("D", 2)
    with pytest.raises(ValidationError):
        positive_roots("E", 6)
    with pytest.raises(ValidationError):
        positive_roots("A", 0)


def test_root_system_validation():
    a2 = positive_roots("A", 2)
    good = (a2.positive_roots, a2.root_lengths, a2.highest_root_coeffs)
    for roots, lengths, high, message in (
        (good[0], good[1][:2], good[2], "one length tag per positive root"),
        (good[0] + ((1, 1, 0),), good[1] + ("long",), good[2], "must have rank entries"),
        (good[0] + ((0, 0),), good[1] + ("long",), good[2], "nonzero with nonnegative"),
        (good[0] + ((2, -1),), good[1] + ("long",), good[2], "nonzero with nonnegative"),
        (good[0], good[1], (2, 2), "highest root must be a positive root"),
        (good[0] + ((2, 1),), good[1] + ("long",), good[2], "must dominate every"),
    ):
        with pytest.raises(ValidationError, match=message):
            RootSystem("A", 2, roots, lengths, high)


def test_b3_root_set():
    # e_i - e_j, e_i, e_i + e_j written short-root-first
    system = positive_roots("B", 3)
    assert set(system.positive_roots) == {
        (0, 0, 1),
        (0, 1, 1),
        (0, 1, 0),
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
        (2, 2, 1),
        (2, 1, 1),
        (2, 1, 0),
    }
    shorts = set(roots_of_length(system, "short"))
    assert shorts == {(1, 1, 1), (1, 1, 0), (1, 0, 0)}


def test_subset_construction():
    system = positive_roots("B", 2)
    full = RootSubset.full(system)
    assert full.roots == system.positive_roots
    trimmed = RootSubset.excluding(system, (1, 0))
    assert (1, 0) not in trimmed.roots
    assert len(trimmed.roots) == 3
    with pytest.raises(ValidationError):
        RootSubset.excluding(system, (5, 5))
    with pytest.raises(ValidationError):
        RootSubset(parent=system, included=(0, 0))
    with pytest.raises(ValidationError):
        RootSubset(parent=system, included=(9,))
    # indices are never coerced: True is no index 1, nor 0.0 index 0
    for included in ([True, 2], [0.0]):
        with pytest.raises(ValidationError, match="subset index must be an integer"):
            RootSubset(system, included)


@pytest.mark.parametrize("coeffs", [(1.9, 0.2), ("1", "0"), (True, False), (1.0, 0)])
def test_root_coefficients_are_never_coerced(coeffs):
    # int() would turn each of these into (1, 0) and drop that root silently
    g2 = positive_roots("G2", 2)
    with pytest.raises(ValidationError, match="root coefficient must be an integer"):
        RootSubset.excluding(g2, coeffs)
    with pytest.raises(ValidationError, match="root coefficient must be an integer"):
        g2.index_of(coeffs)


@pytest.mark.parametrize("rank", [True, 2.0, "2"])
def test_rank_is_never_coerced(rank):
    with pytest.raises(ValidationError, match="rank must be an integer"):
        positive_roots("A", rank)


def test_shi_matrix_shapes():
    b2 = positive_roots("B", 2)
    arr = shi_matrix(RootSubset.full(b2), 1)
    assert arr.m == 2 and arr.n == 8
    assert sorted(set(arr.offsets)) == [0, 1]
    trimmed = shi_matrix(RootSubset.excluding(b2, (1, 0)), 1)
    assert trimmed.n == 6
    g2 = positive_roots("G2", 2)
    wide = shi_matrix(RootSubset.full(g2), 2)
    assert wide.n == 24
    assert sorted(set(wide.offsets)) == [-1, 0, 1, 2]


def test_shi_offsets_attached_per_root():
    b2 = positive_roots("B", 2)
    arr = shi_matrix(RootSubset.full(b2), 1)
    seen = {}
    for j in range(arr.n):
        seen.setdefault(arr.cmatrix.column(j), set()).add(arr.offsets[j])
    assert seen == {root: {0, 1} for root in b2.positive_roots}


def test_shi_rejects_k_zero_and_empty_subset():
    b2 = positive_roots("B", 2)
    with pytest.raises(ValidationError):
        shi_matrix(RootSubset.full(b2), 0)
    with pytest.raises(ValidationError):
        shi_matrix(RootSubset(parent=b2, included=()), 1)
    # k is never coerced: True is no k = 1, and 1.5 is refused as invalid
    for k in (True, 1.5):
        with pytest.raises(ValidationError, match="k must be an integer"):
            shi_matrix(RootSubset.full(b2), k)


def test_linial_matrix_shapes():
    b2 = positive_roots("B", 2)
    arr = linial_matrix(RootSubset.full(b2), 1)
    assert arr.n == 4
    assert set(arr.offsets) == {1}
    a2 = positive_roots("A", 2)
    assert linial_matrix(RootSubset.full(a2), 2).n == 6
    g2 = positive_roots("G2", 2)
    assert linial_matrix(RootSubset.full(g2), 3).n == 18
    with pytest.raises(ValidationError):
        linial_matrix(RootSubset.full(b2), 0)
    for n_param in (True, 2.0):
        with pytest.raises(ValidationError, match="n must be an integer"):
            linial_matrix(RootSubset.full(b2), n_param)


def _assert_oracle_window(arr):
    threshold = q_zero(arr)
    formula = CountingFormula.of(arr)
    for q in range(threshold + 1, threshold + 2 * formula.period + 6):
        assert formula.count(q) == brute_force_count(arr, q), q


def test_shi_formula_matches_brute_force():
    b2 = positive_roots("B", 2)
    _assert_oracle_window(shi_matrix(RootSubset.full(b2), 1))
    _assert_oracle_window(shi_matrix(RootSubset.excluding(b2, (1, 0)), 1))
    g2 = positive_roots("G2", 2)
    _assert_oracle_window(shi_matrix(RootSubset.excluding(g2, (0, 1)), 1))


def test_linial_formula_matches_brute_force():
    b2 = positive_roots("B", 2)
    _assert_oracle_window(linial_matrix(RootSubset.full(b2), 2))


def test_g2_short_root_deletion_collapses_for_k_two():
    from qcp import collapse_report

    g2 = positive_roots("G2", 2)
    for root in roots_of_length(g2, "short"):
        report = collapse_report(shi_matrix(RootSubset.excluding(g2, root), 2))
        assert report.lcm_period == 6
        assert report.minimum_period == 1
        assert {c.coeffs for c in report.quasi_polynomial.constituents} == {(108, -20, 1)}


def _catalan(system, k):
    """Every positive root with each offset in [-k, k]; k = 0 is central."""
    columns = [root for root in system.positive_roots for _ in range(2 * k + 1)]
    offsets = [b for _ in system.positive_roots for b in range(-k, k + 1)]
    return ArrangementInput(IntMatrix.from_columns(columns), tuple(offsets))


def test_counts_match_the_alcove_count():
    # z runs over the coweight lattice mod q, so the Weyl group's action on
    # alcoves gives l! * prod(m_i) * L(q) points for central input at every
    # q, and L(q - kh) for the Catalan deformation above q0 (Athanasiadis;
    # Yoshinaga); L has period lcm(m_i), and neither input collapses
    central = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
               ("C", 4), ("D", 4), ("G2", 2)]
    catalan = [("A", 2, 1), ("A", 2, 2), ("B", 2, 1), ("G2", 2, 1), ("G2", 2, 2),
               ("A", 3, 1), ("B", 3, 1), ("C", 3, 1)]
    for type_tag, rank, k in [(t, r, 0) for t, r in central] + catalan:
        system = positive_roots(type_tag, rank)
        theta = system.highest_root_coeffs
        arr = _catalan(system, k)
        formula = CountingFormula.of(arr)
        weight = factorial(rank) * prod(theta)
        shift = k * (1 + sum(theta))  # k times the Coxeter number
        low = q_zero(arr) if k else 0  # central input has q0 = 0
        for q in range(low + 1, low + 61):
            assert formula.count(q) == weight * alcove_count(theta, q - shift), (
                type_tag, rank, k, q)
        assert formula.period == formula.minimum_period == lcm(*theta), (type_tag, rank, k)
