"""Counting formula, periods, threshold, and report assembly."""

import gc
import json
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bases_lcm_period,
    det,
    divisor_formula_count_naive,
    evaluate_terms,
    interpolated_quasi_polynomial,
    minors_gcd,
    oracle_lcm_period,
    oracle_q_zero,
    totient_summary,
    unpruned_term_table,
)
from qcp import (
    ArrangementInput,
    BudgetExceededError,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    InternalConsistencyError,
    RootSubset,
    ValidationError,
    brute_force_count,
    central_period_summary,
    central_scan,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    family_matrix,
    generate_central_inputs,
    lcm_period,
    linial_matrix,
    minimum_period,
    positive_roots,
    q_zero,
    shi_matrix,
)
from qcp import arrangement as arrangement_module
from qcp.arrangement import (
    CONSTITUENT_BUDGET,
    _build_term_table,
    _central_draws,
    _det,
    _divisor_chain,
    _extend_determinantal,
    _formulas,
    _MinorGcds,
    _minors_gcds,
    _reduce_against,
    _walks,
)
from qcp.cli import main
from qcp.intlinalg import _smith_divisors


def arrangement(columns, offsets):
    return ArrangementInput(IntMatrix.from_columns(columns), tuple(offsets))


FAMILY_A_122 = arrangement([(2,), (2,), (2,)], (0, 1, 2))
FAMILY_D_222 = arrangement([(1, 0), (0, 1), (1, 2), (1, 2)], (0, 0, 1, 2))
# a draw of random_arrangements(max_m=2, max_n=4, bound=3) with lcm period
# 180180, past the constituent budget
OVER_BUDGET = arrangement([(2, -3), (1, 3), (-3, 2), (3, 2)], (0, 0, 0, 0))
# interpolating naive-enumerator samples costs about 2^n * period calls
INTERPOLATION_PERIOD_CAP = 60


def test_input_validation():
    with pytest.raises(ValidationError):
        arrangement([(1, 0), (0, 0)], (0, 0))  # zero column
    with pytest.raises(ValidationError):
        ArrangementInput(IntMatrix.from_columns([(1,)]), (0, 1))  # offset length
    with pytest.raises(ValidationError):
        ArrangementInput(IntMatrix.from_columns([(1,)]), (0.5,))


def test_json_round_trip():
    data = FAMILY_D_222.to_json_dict()
    assert data == {"m": 2, "n": 4, "C": [[1, 0, 1, 1], [0, 1, 2, 2]], "b": [0, 0, 1, 2]}
    assert ArrangementInput.from_json_dict(data) == FAMILY_D_222
    with pytest.raises(ValidationError):
        ArrangementInput.from_json_dict({"m": 3, "n": 4, "C": data["C"], "b": data["b"]})
    # nothing is coerced: bools, floats and strings are rejected everywhere
    for key, bad in (
        ("m", 2.0), ("m", "2"), ("n", True),
        ("C", [[1, 0, 1, 1], [0, 1, 2, 2.0]]), ("C", [[1, 0, 1, 1], [0, 1, 2, "2"]]),
        ("C", [[1, 0, 1, 1], [0, 1, 2, True]]), ("C", [1, 0, 1, 1]),
        ("b", [0, 0, 1, 2.5]), ("b", [0, 0, True, 2]), ("b", [0, 0, 1, "2"]), ("b", 0),
    ):
        with pytest.raises(ValidationError):
            ArrangementInput.from_json_dict({**data, key: bad})
    for bad in ({"m": 2, "n": 4, "C": data["C"]}, [data]):  # no "b"; not an object
        with pytest.raises(ValidationError, match="malformed arrangement object"):
            ArrangementInput.from_json_dict(bad)


def test_lcm_period_identity_columns():
    assert lcm_period(IntMatrix.from_columns([(1, 0), (0, 1), (1, 0)])) == 1


def test_lcm_period_family_a_242():
    mat = IntMatrix.from_columns([(1, 0), (0, 2)] + [(1, 4)] * 4)
    assert lcm_period(mat) == 4


def test_lcm_period_rank_two_root_matrix():
    # the subset {(0,1), (2,1)} has determinant -2; all other divisors divide 2
    assert lcm_period(IntMatrix.from_columns([(1, 0), (0, 1), (1, 1), (2, 1)])) == 2


def test_lcm_period_rejects_zero_column():
    with pytest.raises(ValidationError):
        lcm_period(IntMatrix.from_columns([(1, 0), (0, 0)]))


@st.composite
def random_arrangements(draw, max_m=3, max_n=6, bound=4, with_offsets=True):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    cols = []
    for _ in range(n):
        col = draw(
            st.lists(st.integers(-bound, bound), min_size=m, max_size=m).filter(any)
        )
        cols.append(tuple(col))
    if with_offsets:
        offsets = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    else:
        offsets = (0,) * n
    return arrangement(cols, offsets)


@given(random_arrangements(max_m=2, max_n=5, bound=3))
@settings(max_examples=40, deadline=None)
def test_lcm_period_matches_full_enumeration(arr):
    cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
    assert lcm_period(arr.cmatrix) == oracle_lcm_period(cols)


@st.composite
def matrices_with_dependent_columns(draw, m=3, bound=3):
    """A few columns, then repeats, multiples and sums of them, shuffled."""
    entry = st.integers(-bound, bound)
    column = st.lists(entry, min_size=m, max_size=m).filter(any).map(tuple)
    cols = draw(st.lists(column, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
        x, y = draw(entry), draw(entry)
        combo = tuple(x * a + y * b for a, b in zip(u, v))
        if any(combo):
            cols.append(combo)
    return IntMatrix.from_columns(draw(st.permutations(cols)))


@given(matrices_with_dependent_columns())
@settings(max_examples=40, deadline=None)
def test_lcm_period_matches_full_enumeration_dimension_three(mat):
    cols = [list(c) for c in mat.columns()]
    assert lcm_period(mat) == oracle_lcm_period(cols)


def test_q_zero_examples():
    central = arrangement([(1, 2), (3, -1)], (0, 0))
    assert q_zero(central) == 0
    assert q_zero(FAMILY_A_122) == 2
    assert q_zero(FAMILY_D_222) == 2


def test_offset_pivot_marks_the_rank_jump():
    # against the stacked basis of (1, 0 | 0) and (0, 1 | 0), (1, 1 | 1) has
    # its coefficient part in the span but not its stacked column: it
    # reduces to a row pivoted on the offset coordinate 2
    basis = [(0, (1, 0, 0)), (1, (0, 1, 0))]
    assert _reduce_against(basis, (1, 1, 1)) == (2, (0, 0, 1))
    assert _reduce_against(basis, (1, 1, 0)) is None


# q0 of every input the benchmark's workloads build (perfbench/workloads.py):
# the full Shi arrangements, every root deletion it may draw, and the
# families.  Kind A's q0 is the same for every s, so s = 2 stands for all.
BENCHMARK_Q_ZERO = [
    (("G2", 2, 2, None), 15), (("A", 3, 1, None), 3), (("G2", 2, 1, None), 6),
    (("A", 3, 2, (1, 0, 0)), 6), (("A", 3, 2, (0, 1, 0)), 6), (("A", 3, 2, (0, 0, 1)), 6),
    (("A", 3, 2, (1, 1, 0)), 7), (("A", 3, 2, (0, 1, 1)), 7), (("A", 3, 2, (1, 1, 1)), 6),
    (("G2", 2, 2, (1, 0)), 15), (("G2", 2, 2, (0, 1)), 10), (("G2", 2, 2, (1, 1)), 15),
    (("G2", 2, 2, (2, 1)), 15), (("G2", 2, 2, (3, 1)), 11), (("G2", 2, 2, (3, 2)), 9),
    (("Aprime", 2, 3, 3, 997), 1994), (("Aprime", 2, 4, 3, 997), 2991),
    (("Aprime", 2, 5, 3, 997), 3988),
    (("D", 2, 3, 1, 1009), 2018), (("D", 2, 4, 1, 1009), 3027), (("D", 2, 5, 1, 1009), 4036),
    (("A", 3, 24, 2, 1), 552), (("A", 2, 20, 2, 1), 380), (("A", 3, 10, 2, 1), 90),
    (("A", 2, 10, 2, 1), 90),
]


@pytest.mark.parametrize(
    "spec, q0", BENCHMARK_Q_ZERO, ids=[" ".join(map(str, spec)) for spec, _ in BENCHMARK_Q_ZERO]
)
def test_q_zero_of_benchmark_inputs(spec, q0):
    if len(spec) == 4:
        type_tag, rank, k, excluded = spec
        system = positive_roots(type_tag, rank)
        subset = (RootSubset.full(system) if excluded is None
                  else RootSubset.excluding(system, excluded))
        arr = shi_matrix(subset, k)
    else:
        kind, m, p, s, a = spec
        arr = family_matrix(FamilyParams(kind, m, p, s=s, a=a))
    assert q_zero(arr) == q0


def test_lcm_period_invariance_under_permutation_and_negation():
    cols = [(1, 2), (0, 3), (2, 2), (1, 4)]
    base = lcm_period(IntMatrix.from_columns(cols))
    shuffled = [cols[2], cols[0], cols[3], cols[1]]
    negated = [tuple(-v for v in cols[1])] + [cols[0], cols[2], cols[3]]
    assert lcm_period(IntMatrix.from_columns(shuffled)) == base
    assert lcm_period(IntMatrix.from_columns(negated)) == base


def test_formula_count_examples():
    assert divisor_formula_count(FAMILY_A_122, 5) == 2
    assert divisor_formula_count(FAMILY_A_122, 6) == 2
    assert divisor_formula_count(FAMILY_D_222, 4) == 5
    with pytest.raises(ValidationError):
        divisor_formula_count(FAMILY_A_122, 0)
    # nothing is coerced: a bool or a float is no q, and classes start at 1
    arr = family_matrix(FamilyParams("A", 2, 4, s=2))
    formula = CountingFormula.of(arr)
    for bad in (3.5, 2.0, True):
        for call in (formula.count, formula.constituent,
                     lambda q: divisor_formula_count(arr, q)):
            with pytest.raises(ValidationError, match="must be an integer"):
                call(bad)
    for bad in (0, -1):
        for call in (formula.count, formula.constituent):
            with pytest.raises(ValidationError, match="positive integer"):
                call(bad)


def test_formula_equals_brute_force_above_threshold():
    for arr in (FAMILY_A_122, FAMILY_D_222):
        threshold = q_zero(arr)
        formula = CountingFormula.of(arr)
        for q in range(threshold + 1, threshold + 2 * formula.period + 6):
            assert formula.count(q) == brute_force_count(arr, q)


@given(random_arrangements(max_m=2, max_n=5, bound=3))
@settings(max_examples=30, deadline=None)
def test_grouped_matches_naive(arr):
    formula = CountingFormula.of(arr)
    for q in (1, 2, 3, 7, 12):
        assert formula.count(q) == divisor_formula_count_naive(arr, q)


def test_grouped_matches_naive_with_duplicate_columns():
    # repeated identical stacked columns must collapse to a single signed pick
    arr = arrangement([(2, 1), (2, 1), (2, 1), (1, 0), (1, 0)], (1, 1, 1, 0, 2))
    formula = CountingFormula.of(arr)
    for q in range(1, 15):
        naive = divisor_formula_count_naive(arr, q)
        assert formula.count(q) == naive
        assert brute_force_count(arr, q) == naive or q <= q_zero(arr)


@st.composite
def shi_like_arrangements(draw, max_m=3, max_classes=5, bound=2):
    """A few coefficient columns, each repeated with 2-4 offsets, so that
    parallel classes and rank jumps are common."""
    m = draw(st.integers(1, max_m))
    column = st.lists(st.integers(-bound, bound), min_size=m, max_size=m).filter(any)
    cols, offsets = [], []
    for col in draw(st.lists(column.map(tuple), min_size=1, max_size=max_classes)):
        for b in draw(st.lists(st.integers(-2, 3), min_size=2, max_size=4)):
            cols.append(col)
            offsets.append(b)
    return arrangement(cols, offsets)


# (1, 0) and (0, 1) with offset 0 span, and (1, 1) with offset 0 joins them
# in the all-zero choice; (1, -1) with offset 2 follows, and its stacked
# column reduces against that choice's stacked basis, the echelon basis of
# the chosen columns with a trailing 0.  The choice (1, 0), (0, 1), (1, 1)
# with offsets 0, 1, 1 is consistent, and the walk keeps it only if the
# all-zero choice at node (1, 0) carries the stacked basis row (1, 0, 0).
SPANNING_ZERO_CHOICE = arrangement(
    [(1, 0), (0, 1), (0, 1), (1, 1), (1, 1), (1, -1), (1, -1)], (0, 0, 1, 0, 1, 0, 2)
)
# e1, e2 and e1 + e2 with offset 0 make an all-zero choice over a dependent
# class.  e1 + e2 with offset 1 over e1, e2 is a rank jump, seen only if the
# all-zero choice's stacked basis ends in the offset 0; e3 with offset 1
# then extends the all-zero choice over all three classes.
DEPENDENT_ZERO_LANE = arrangement(
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 0), (0, 0, 1)], (0, 0, 0, 1, 1)
)


@given(shi_like_arrangements())
@example(SPANNING_ZERO_CHOICE)
@example(DEPENDENT_ZERO_LANE)
@settings(max_examples=40, deadline=None)
def test_pruned_walk_matches_unpruned_walk(arr):
    assert _build_term_table(arr)[0] == unpruned_term_table(arr)


@pytest.mark.parametrize("type_tag", ["A", "B", "G2"])
def test_pruned_walk_matches_unpruned_walk_on_shi_deletions(type_tag):
    system = positive_roots(type_tag, 2)
    subsets = [RootSubset.full(system)]
    subsets += [RootSubset.excluding(system, root) for root in system.positive_roots]
    for k in (1, 2):
        for subset in subsets:
            arr = shi_matrix(subset, k)
            assert _build_term_table(arr)[0] == unpruned_term_table(arr)


@pytest.mark.parametrize(
    "type_tag, rank, k, offered",
    [("G2", 2, 3, 1440), ("B", 3, 1, 1356), ("A", 3, 2, 1688)],
)
def test_walk_budget_counts_every_offered_subset(monkeypatch, type_tag, rank, k, offered):
    # the unpruned walk would offer 117,648, 19,682 and 15,624 subsets; with
    # no shortcut at saturated class sets this walk offered 7,344, 4,818
    # and 6,048
    arr = shi_matrix(RootSubset.full(positive_roots(type_tag, rank)), k)
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", offered)
    _build_term_table(arr)
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", offered - 1)
    with pytest.raises(BudgetExceededError, match="subset walk"):
        _build_term_table(arr)


def test_q_zero_budget_counts_every_offered_subset(monkeypatch):
    arr = shi_matrix(RootSubset.full(positive_roots("A", 3)), 2)
    monkeypatch.setattr(arrangement_module, "Q_ZERO_BUDGET", 41746)
    assert q_zero(arr) == 7
    monkeypatch.setattr(arrangement_module, "Q_ZERO_BUDGET", 41745)
    with pytest.raises(BudgetExceededError, match="q_zero"):
        q_zero(arr)


# Class sets whose determinantal divisors are the whole matrix's (saturated)
# with a nonzero offset choice, checked against the unpruned walk in
# test_walk_matches_unpruned_walk_on_sublattices.  In the first, (1, 0) and
# (0, 1) with offsets 1, 1 would need offset 2 on (1, 1), which has only 5:
# no later class extends the choice, and its own term must stand.  The
# second has e_r = 2 on even-sum columns: (1, 1) and (1, -1) with offsets
# 0, 2 are extended by (2, 0) with offset 2 but not 5, and by no offset of
# (0, 2).
SATURATED_NONZERO_CHOICES = [
    arrangement([(1, 0), (0, 1), (1, 1)], (1, 1, 5)),
    arrangement([(1, 1), (1, -1), (2, 0), (2, 0), (0, 2)], (0, 2, 2, 5, 1)),
]


@pytest.mark.parametrize(
    "arr, smith_calls",
    [
        # unimodular: every coefficient chain is all ones, and the first
        # maximal minor of the whole matrix is 1, so no Smith form at all
        (shi_matrix(RootSubset.full(positive_roots("A", 3)), 2), 0),
        # 236 nonzero choices on class sets with e_r > 1, none saturated;
        # the whole matrix's first 2 x 2 minor is 1, so its floors take none
        (shi_matrix(RootSubset.full(positive_roots("G2", 2)), 3), 236),
        # no choice descends below a saturated class set, whatever its e_r,
        # and one that a later class extends gets no Smith form
        (SATURATED_NONZERO_CHOICES[1], 11),
        # the all-zero choice on (2, 0), (0, 1) has e_r = 2 and takes that
        # chain as its stacked one; (1, 0) with offset 1 jumps over it, and
        # (0, 1), (1, 0) with offsets 0, 1 has e_r = 1
        (arrangement([(2, 0), (0, 1), (1, 0)], (0, 0, 1)), 0),
    ],
)
def test_walk_smith_calls(count_calls, arr, smith_calls):
    calls = count_calls(arrangement_module, "_smith_divisors")
    _build_term_table(arr)
    assert calls["_smith_divisors"] == smith_calls


@given(st.one_of(random_arrangements(), random_arrangements(with_offsets=False)))
@settings(max_examples=60, deadline=None)
def test_walk_period_matches_lcm_period(arr):
    assert _build_term_table(arr)[1] == bases_lcm_period(arr.cmatrix)


@given(matrices_with_dependent_columns(), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_period_matches_lcm_period_with_dependent_columns(mat, data):
    offsets = data.draw(st.lists(st.integers(-2, 2), min_size=mat.cols, max_size=mat.cols))
    arr = ArrangementInput(mat, tuple(offsets))
    assert _build_term_table(arr)[1] == bases_lcm_period(mat)


@given(st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3).filter(any).map(tuple),
    min_size=6, max_size=6,
))
@settings(max_examples=30, deadline=None)
def test_walk_period_matches_lcm_period_on_central_scan_draws(cols):
    # the shape of `qcp scan-central --m 3 --n 6 --entry-bound 5`
    arr = arrangement(cols, (0,) * 6)
    assert _build_term_table(arr)[1] == bases_lcm_period(arr.cmatrix)


@pytest.mark.parametrize("type_tag", ["A", "B", "G2"])
def test_walk_period_matches_lcm_period_on_root_deletions(type_tag):
    system = positive_roots(type_tag, 2)
    subsets = [RootSubset.full(system)]
    subsets += [RootSubset.excluding(system, root) for root in system.positive_roots]
    for subset in subsets:
        linial = linial_matrix(subset, 1)
        # Shi and Linial give every root a nonzero offset; the central
        # arrangement of the same roots has only the zero one
        central = ArrangementInput(linial.cmatrix, (0,) * linial.n)
        for arr in (shi_matrix(subset, 1), shi_matrix(subset, 2), linial, central):
            assert _build_term_table(arr)[1] == bases_lcm_period(arr.cmatrix)


def count_minor_reads(monkeypatch) -> Counter:
    """Count, by |K|, the (class set K, draw) pairs whose minor gcd g(K) the
    kernel _minors_gcds reads: one per draw it is handed for a key."""
    reads: Counter = Counter()
    kernel = arrangement_module._minors_gcds

    def counting(cols, key, m):
        reads[len(key)] += len(cols)
        return kernel(cols, key, m)

    monkeypatch.setattr(arrangement_module, "_minors_gcds", counting)
    return reads


def test_formula_walks_once(monkeypatch, count_calls):
    # 63 subsets of six distinct central columns: no reduction (the ranks
    # come from determinantal divisors, and a central walk builds no stacked
    # basis), no Smith form (the chains come from determinantal divisors,
    # and the whole matrix's floors from its first 3 x 3 minor, 1), the
    # minor gcd of each of the 6 + 15 + 20 column sets of size at most 3
    # read once, the floors' first set included, and no separate
    # lcm_period walk
    arr = arrangement(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3), (2, -1, 1)], (0,) * 6
    )
    calls = count_calls(arrangement_module, "lcm_period", "_smith_divisors", "_reduce_against")
    reads = count_minor_reads(monkeypatch)
    formula = CountingFormula.of(arr)
    assert calls["lcm_period"] == 0
    assert calls["_smith_divisors"] == 0
    assert reads == {1: 6, 2: 15, 3: 20}
    assert calls["_reduce_against"] == 0
    assert formula.period == formula.minimum_period == 30


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_unpruned_walk_on_central_scan_draws(seed):
    # every node of a central walk has the all-zero choice alone
    for arr in generate_central_inputs(3, 6, 5, 60, seed):
        terms, rho = _build_term_table(arr)
        assert terms == unpruned_term_table(arr)
        assert rho == bases_lcm_period(arr.cmatrix)


def test_central_walk_checks_each_divisor_chain_once(monkeypatch, count_calls):
    # the 60 draws of `qcp scan-central --m 3 --n 6 --entry-bound 5
    # --trials 60 --seed 1`: every class set the walk visits extends the
    # determinantal divisors, but only 1,591 distinct d_1..d_m turn up, each
    # walk reading its own chain once; no walk reduces a vector.  The walks
    # read 2,460 minor gcds.  The floors read theirs, the 3 x 3 minors of
    # at most 6 column sets per draw, through the same memo, so none is
    # read twice; 47 draws reach gcd 1 that way, and the other 13 take a
    # Smith form of the whole matrix
    names = ("_extend_determinantal", "_divisor_chain", "_reduce_against", "_smith_divisors")
    calls = count_calls(arrangement_module, *names)
    reads = count_minor_reads(monkeypatch)
    for arr in generate_central_inputs(3, 6, 5, 60, 1):
        _build_term_table(arr)
    assert [calls[name] for name in names] == [3485, 1591, 0, 13]
    assert sum(reads.values()) == 2460
    # the scan walks them as one batch: each of the 6 + 15 + 20 class sets
    # is read once for all 60 draws, the same 2,460 reads
    reads.clear()
    central_scan(3, 6, 5, 60, 1)
    assert reads == {1: 6 * 60, 2: 15 * 60, 3: 20 * 60}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_matches_standalone_formulas(seed):
    # a batch shares chains and weights across draws, so a chain may come
    # from an earlier draw and must still raise the lcm period to its e_r;
    # its draws walk in lockstep, here drawn as a scan draws them
    draws = generate_central_inputs(3, 6, 5, 60, seed)
    standalone = [CountingFormula.of(arr) for arr in draws]
    assert list(_formulas(_central_draws(3, 6, 5, 60, seed))) == standalone


def randint_draws(m, n, entry_bound, trials, seed):
    """generate_central_inputs' columns drawn with random.Random.randint."""
    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        cols = []
        while len(cols) < n:
            col = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(m))
            if any(col):
                cols.append(col)
        draws.append(cols)
    return draws


@pytest.mark.parametrize("entry_bound", [1, 5, 8, 2**70])
def test_central_draws_match_randint(entry_bound):
    # width 17 (entry_bound 8) takes 5 bits, so 15 of every 32 draws are
    # drawn again; entry_bound 1 draws many zero columns in m = 1
    for m in range(1, 5):
        for seed in (0, 1, 2, 901, 2**40 + 3):
            draws = generate_central_inputs(m, 5, entry_bound, 12, seed)
            assert [arr.cmatrix.columns() for arr in draws] == randint_draws(
                m, 5, entry_bound, 12, seed)
            assert all(arr.offsets == (0,) * 5 for arr in draws)


def test_batch_past_the_table_cap_matches(monkeypatch, count_calls):
    draws = generate_central_inputs(3, 6, 5, 60, 1)
    standalone = [CountingFormula.of(arr) for arr in draws]
    calls = count_calls(arrangement_module, "_divisor_chain", "_indicator_weights")
    monkeypatch.setattr(arrangement_module, "_TABLE_CAP", 16)
    assert list(_formulas(draws)) == standalone
    # emptied tables are filled again: more than an uncapped batch's 252 and 219
    assert calls["_divisor_chain"] > 252
    assert calls["_indicator_weights"] > 219


def test_scan_walks_at_most_the_table_cap_per_batch(monkeypatch):
    monkeypatch.setattr(arrangement_module, "_TABLE_CAP", 16)
    lockstep_walk = arrangement_module._lockstep_walk
    sizes = []

    def spy(m, n, classes, floors, chains):
        sizes.append(len(classes))
        return lockstep_walk(m, n, classes, floors, chains)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement_module, "_lockstep_walk", spy)
        central_scan(3, 6, 5, 100, 1)
    assert sum(sizes) == 100 and max(sizes) <= 16

    # draws are made as they are walked, so 4x the trials hold about as much;
    # a full collection first empties the interpreter's free lists
    def peak(trials):
        gc.collect()
        tracemalloc.start()
        try:
            central_scan(3, 6, 5, trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(256) <= 1.5 * peak(64)


def test_factoring_is_charged_per_formula(monkeypatch):
    # trial division tries 2 and then odd divisors only: diag(10007, 10009)
    # tries 50 + 50 + 5,004 of them, the last for its term divisor
    # 10007 * 10009; diag(10037, 10039) tries 50 + 50 + 5,019 = 5,119
    first = arrangement([(10007, 0), (0, 10009)], (0, 0))
    second = arrangement([(10037, 0), (0, 10039)], (0, 0))
    monkeypatch.setattr(arrangement_module, "_FACTOR_BUDGET", 5103)
    message = "tried 5104 divisors, over the factoring budget of 5103"
    with pytest.raises(BudgetExceededError, match=message):
        CountingFormula.of(first)
    # each formula of a batch has the whole budget
    monkeypatch.setattr(arrangement_module, "_FACTOR_BUDGET", 5119)
    formulas = list(_formulas([first, second]))
    assert [f.period for f in formulas] == [10007 * 10009, 10037 * 10039]


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
# a zero leading pivot, swapped with the row below it
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
# a zero pivot in the second step, swapped with the last row
@example([[1, 2, 3, 4, 5], [1, 2, 0, 1, 1], [1, 2, 3, 0, 1], [1, 2, 2, 1, 0], [1, 3, 1, 1, 1]])
@example([[0, 1], [1, 0]])
@example([[0]])
# singular: a zero column stops the elimination, and a repeated row
@example([[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9], [0, 1, 1, 1]])
@example([[1, 2, 3, 4], [2, 1, 0, 3], [1, 2, 3, 4], [5, 0, 1, 2]])
@example([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 1, 0], [3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
@settings(max_examples=200, deadline=None)
def test_det_matches_cofactor_expansion(rows):
    assert _det(rows) == det(rows)


def test_dependent_minor_set_stops_at_the_first_minor(count_calls):
    calls = count_calls(arrangement_module, "_det")
    # the third column is the sum of the first two: one minor, not C(6, 3) = 20
    u, v = (1, 2, 0, 1, 3, -1), (0, 1, 1, 2, -1, 4)
    assert _minors_gcds([[u, v, tuple(a + b for a, b in zip(u, v))]], (0, 1, 2), 6) == [0]
    assert calls["_det"] == 1


def test_zero_first_minor_goes_to_smith(count_calls):
    calls = count_calls(arrangement_module, "_det", "_smith_divisors")
    # independent, with a zero first minor: one Smith form, not C(6, 3) = 20
    # minors
    cols = [(1, 0, 0, 2, 0, 0), (0, 1, 0, 0, 2, 0), (1, 1, 0, 0, 0, 2)]
    rows = [[c[i] for c in cols] for i in range(6)]
    assert _minors_gcds([cols], (0, 1, 2), 6) == [minors_gcd(rows, 3)] == [2]
    assert calls == {"_det": 1, "_smith_divisors": 1}


@pytest.mark.parametrize(
    "cols, offsets",
    [
        # b = yC for y = (2, -1): a translate of the central arrangement
        ([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)], (2, -1, 1, 5, -1)),
        # b = yC for y = (1/2, 1/2) only: b lies in C's rational row space
        ([(2, 0), (0, 2), (2, 2), (2, -2)], (1, 1, 2, 0)),
    ],
)
def test_q_zero_is_zero_when_offsets_lie_in_the_row_space(
    monkeypatch, count_calls, cols, offsets
):
    arr = arrangement(cols, offsets)
    calls = count_calls(arrangement_module, "_smith_divisors")
    # no subset can jump, so the search offers none
    monkeypatch.setattr(arrangement_module, "Q_ZERO_BUDGET", 0)
    assert q_zero(arr) == 0
    assert calls["_smith_divisors"] == 0
    monkeypatch.undo()
    formula = CountingFormula.of(arr)
    for q in range(1, 13):
        assert formula.count(q) == brute_force_count(arr, q)


@st.composite
def sublattice_columns(draw, m, max_n, bound=2):
    """Nonzero columns in a proper sublattice of Z^m, some repeated, so that
    determinantal divisors stay above 1: B.x with B = U.diag.L (U upper and
    L lower unitriangular, |det B| in {2, 3, 4}), or columns with an even
    coordinate sum."""
    entry = st.integers(-bound, bound)
    vector = st.lists(entry, min_size=m, max_size=m)
    xs = draw(st.lists(vector, min_size=1, max_size=max_n))
    if draw(st.booleans()):
        diag = draw(st.sampled_from([(2,), (3,), (4,), (2, 2)]))
        diag = (diag + (1,) * m)[:m]
        upper = [[1 if i == j else draw(entry) if j > i else 0 for j in range(m)]
                 for i in range(m)]
        lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(m)]
                 for i in range(m)]
        basis = [[sum(upper[i][t] * diag[t] * lower[t][j] for t in range(m))
                  for j in range(m)] for i in range(m)]
        cols = [tuple(sum(basis[i][j] * x[j] for j in range(m)) for i in range(m))
                for x in xs]
    else:
        cols = [(x[0] + sum(x) % 2, *x[1:]) for x in xs]
    cols = [c for c in cols if any(c)] or [(2,) + (0,) * (m - 1)]
    for _ in range(draw(st.integers(0, 2))):
        if len(cols) < max_n:
            cols.append(draw(st.sampled_from(cols)))
    return draw(st.permutations(cols))


@st.composite
def sublattice_arrangements(draw, max_n=6):
    m = draw(st.integers(2, 4))
    cols = draw(sublattice_columns(m, max_n))
    if draw(st.booleans()):
        offsets = (0,) * len(cols)
    else:
        offsets = draw(st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols)))
    return arrangement(cols, offsets)


@st.composite
def batches(draw, min_draws=1, max_draws=6):
    """Draws as a scan or a batch of formulas walks them: one row count m in
    1-4, entries bounded by 1-5 and one column count n <= 8, with up to two
    columns of each draw repeated, so that the draws of a batch have
    different class counts.  Some draws take their columns from
    ``sublattice_columns``, whose d_k stay above 1.  Some are central, and
    the others have offsets in [-2, 2], half of them 0, so a repeated
    column may carry several offsets and central and non-central draws of
    one class count walk together."""
    m = draw(st.integers(1, 4))
    bound = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    column = st.lists(st.integers(-bound, bound), min_size=m, max_size=m).filter(any)
    offset = st.one_of(st.just(0), st.integers(-2, 2))
    batch = []
    for _ in range(draw(st.integers(min_draws, max_draws))):
        if draw(st.booleans()):
            cols = draw(sublattice_columns(m, n))
        else:
            cols = [tuple(c) for c in draw(st.lists(column, min_size=n, max_size=n))]
            for _ in range(draw(st.integers(0, min(2, n - 1)))):
                cols[draw(st.integers(0, n - 1))] = draw(st.sampled_from(cols))
        if draw(st.booleans()):
            offsets = (0,) * len(cols)
        else:
            offsets = draw(st.lists(offset, min_size=len(cols), max_size=len(cols)))
        batch.append(arrangement(cols, offsets))
    return batch


def outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except (BudgetExceededError, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def assert_each_draw_walks_as_alone(batch) -> list:
    """Every draw of ``batch`` gets from one batch the term table (in
    order), lcm period and error of its batch of one; returns the walks."""
    walked = _walks(batch, {})
    for arr, got in zip(batch, walked):
        alone = outcome(lambda: _build_term_table(arr))
        if isinstance(got, Exception):
            got = type(got), str(got)
        assert got == alone
        if isinstance(alone[0], dict):
            # in the walk's order: a formula's factoring budget is spent term by term
            assert list(got[0]) == list(alone[0])
    return walked


# central and non-central draws of one shape: Shi and Linial of G2 (6
# classes, up to 4 offsets each, so up to 4 live choices per node) and the
# central arrangement of the same roots
G2_ROOTS = RootSubset.full(positive_roots("G2", 2))
G2_BATCH = [shi_matrix(G2_ROOTS, 1), shi_matrix(G2_ROOTS, 2), linial_matrix(G2_ROOTS, 2),
            ArrangementInput(linial_matrix(G2_ROOTS, 1).cmatrix, (0,) * 6)]


@given(batches())
@example(G2_BATCH)
@settings(max_examples=60, deadline=None)
def test_lockstep_walk_matches_each_walk(batch):
    for arr, (terms, rho) in zip(batch, assert_each_draw_walks_as_alone(batch)):
        assert terms == unpruned_term_table(arr)
        assert rho == bases_lcm_period(arr.cmatrix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_walk_matches_each_walk_on_scan_draws(seed):
    assert_each_draw_walks_as_alone(generate_central_inputs(3, 6, 5, 60, seed))


def offered_by_its_walk(arr):
    """Subsets the walk of ``arr`` offers: the least WALK_BUDGET under which
    it passes, found by bisection."""
    low, high = 0, arrangement_module.WALK_BUDGET  # it raises at low, passes at high
    while high - low > 1:
        mid = (low + high) // 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement_module, "WALK_BUDGET", mid)
            try:
                _build_term_table(arr)
                high = mid
            except BudgetExceededError:
                low = mid
    return high


@given(batches(min_draws=2).flatmap(
    lambda batch: st.tuples(st.just(batch), st.integers(1, len(batch) - 1))))
@example((generate_central_inputs(3, 6, 5, 60, 1), 15))
@example((G2_BATCH, 1))
@example((G2_BATCH, 2))
@settings(max_examples=40, deadline=None)
def test_lockstep_walk_charges_each_draw_as_its_walk(case):
    batch, target = case
    offered = offered_by_its_walk(batch[target])

    def alone():
        return [CountingFormula.of(arr) for arr in batch]

    for budget in (offered, offered - 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement_module, "WALK_BUDGET", budget)
            walked = assert_each_draw_walks_as_alone(batch)
            assert isinstance(walked[target], tuple) == (budget == offered)
            # every collapse and refusal is raised in draw order, as one
            # formula after the other raises them
            assert outcome(lambda: list(_formulas(batch))) == outcome(alone)
            patch.setattr(arrangement_module, "_indicator_weights", lambda pairs, spent: {1: 1})
            assert outcome(lambda: list(_formulas(batch))) == outcome(alone)


def test_scan_raises_an_earlier_collapse_before_a_later_refusal(monkeypatch):
    # the first two draws of the seed-1 benchmark scan offer 59 and 60
    # subsets: at WALK_BUDGET = 59 the second is refused, but the first
    # draw's formula comes first
    draws = generate_central_inputs(3, 6, 5, 60, 1)
    assert [offered_by_its_walk(arr) for arr in draws[:2]] == [59, 60]
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", 59)
    with pytest.raises(BudgetExceededError, match="walk offered more than WALK_BUDGET = 59"):
        central_scan(3, 6, 5, 60, 1)
    # weights {1: 1}: the first draw's formula collapses
    monkeypatch.setattr(arrangement_module, "_indicator_weights", lambda pairs, spent: {1: 1})
    message = f"central arrangement {draws[0].to_json_dict()} collapses: minimum period 1"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        central_scan(3, 6, 5, 60, 1)


# three draws that walk in lockstep, 2 rows and 3 classes each, whose floors
# are all (1, 1): the middle draw alone reaches d_1..d_m (1, 2) and the
# stacked rows [[1, 1], [0, 2], [0, 2]], and the final lcm loop, outside the
# per-draw handler, meets neither
LOCKSTEP_DRAWS = (
    arrangement([(1, 0), (0, 3), (1, 1), (1, 1)], (0, 0, 1, 2)),
    FAMILY_D_222,
    arrangement([(1, 0), (0, 1), (1, 3), (1, 3)], (0, 0, 1, 2)),
)


@pytest.mark.parametrize("name, bad", [("_divisor_chain", (1, 2)),
                                       ("_smith_divisors", [[1, 1], [0, 2], [0, 2]])],
                         ids=["refused-chain", "stacked-rank"])
def test_a_draws_internal_error_stays_with_that_draw(monkeypatch, name, bad):
    first, faulted, last = LOCKSTEP_DRAWS
    tables = [_build_term_table(first), _build_term_table(last)]
    formulas = [CountingFormula.of(first), CountingFormula.of(last)]
    inner = getattr(arrangement_module, name)

    def fault(arg):
        if arg != bad:
            return inner(arg)
        if name == "_divisor_chain":
            raise InternalConsistencyError(f"refused {arg}")
        return inner(arg)[:1]  # one divisor short: stacked rank 1

    monkeypatch.setattr(arrangement_module, name, fault)
    with pytest.raises(InternalConsistencyError) as alone:
        _build_term_table(faulted)
    message = str(alone.value)
    assert message == ("refused (1, 2)" if name == "_divisor_chain"
                       else "stacked rank 1 disagrees with the coefficient rank 2")
    walked = _walks(list(LOCKSTEP_DRAWS), {})
    assert isinstance(walked[1], InternalConsistencyError)
    assert str(walked[1]) == message
    assert [walked[0], walked[2]] == tables
    made = _formulas(LOCKSTEP_DRAWS)
    assert next(made) == formulas[0]
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        next(made)


# even coordinate sums in Z^4: d_4 stays 2 however many columns join
EVEN_SUM_4 = arrangement(
    [(1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 1, -1), (1, 0, 0, 1)],
    (0,) * 6,
)


@given(sublattice_arrangements())
@example(EVEN_SUM_4)
@example(SATURATED_NONZERO_CHOICES[0])
@example(SATURATED_NONZERO_CHOICES[1])
@example(arrangement(EVEN_SUM_4.cmatrix.columns(), (1, 0, 0, 2, 0, -1)))
@settings(max_examples=60, deadline=None)
def test_walk_matches_unpruned_walk_on_sublattices(arr):
    terms, rho = _build_term_table(arr)
    assert terms == unpruned_term_table(arr)
    assert rho == bases_lcm_period(arr.cmatrix)


@st.composite
def rank_deficient_arrangements(draw, max_m=4, max_n=6, bound=3):
    """Coefficient matrices whose last row is the sum of the others."""
    m = draw(st.integers(2, max_m))
    free = st.lists(st.integers(-bound, bound), min_size=m - 1, max_size=m - 1).filter(any)
    cols = [(*c, sum(c)) for c in draw(st.lists(free, min_size=1, max_size=max_n))]
    offsets = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
    return arrangement(cols, offsets)


@given(st.one_of(random_arrangements(max_m=2, max_n=5, bound=3), sublattice_arrangements(),
                 rank_deficient_arrangements()))
@settings(max_examples=60, deadline=None)
def test_q_zero_matches_full_enumeration(arr):
    cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
    assert q_zero(arr) == oracle_q_zero(cols, arr.offsets)


@given(st.one_of(random_arrangements(max_m=3, max_n=6, bound=3),
                 sublattice_arrangements(max_n=6), rank_deficient_arrangements(max_m=3)))
@settings(max_examples=25, deadline=None)
def test_q_zero_matches_full_enumeration_dimension_three(arr):
    cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
    assert q_zero(arr) == oracle_q_zero(cols, arr.offsets)


@given(st.one_of(random_arrangements(max_m=4, max_n=6, bound=3), sublattice_arrangements()))
@settings(max_examples=60, deadline=None)
def test_lcm_period_matches_bases_lcm_period(arr):
    assert lcm_period(arr.cmatrix) == bases_lcm_period(arr.cmatrix)


def count_extensions(monkeypatch, budget: int) -> Counter:
    """Patch WALK_BUDGET to ``budget`` and count, per draw, the class sets
    whose d_k the walk extends."""
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", budget)
    extend = arrangement_module._extend_determinantal
    extended: Counter = Counter()

    def counting(dets, chosen, idx, minors, low, alive):
        extended.update(alive)
        return extend(dets, chosen, idx, minors, low, alive)

    monkeypatch.setattr(arrangement_module, "_extend_determinantal", counting)
    return extended


# no pair of the columns (1, 2i) has an odd determinant, so no class set
# saturates before (1, 3), the last class, joins: the walk offers every
# subset of the first eleven
EVEN_PAIRS = [(1, 2 * i) for i in range(11)] + [(1, 3)]


def test_lcm_period_stops_at_the_walk_budget(monkeypatch):
    extended = count_extensions(monkeypatch, 1_000)
    with pytest.raises(BudgetExceededError, match="WALK_BUDGET"):
        lcm_period(IntMatrix.from_columns(EVEN_PAIRS))
    # the walk stops at the first class set past the budget, not after
    # every node already on its stack
    assert 0 < extended[0] <= 1_000


@pytest.mark.parametrize("offsets", [(0, 1), (1, 2)])
def test_walk_with_offsets_stops_at_the_walk_budget(monkeypatch, offsets):
    extended = count_extensions(monkeypatch, 1_000)
    cols = [c for c in EVEN_PAIRS for _ in offsets]
    with pytest.raises(BudgetExceededError, match="WALK_BUDGET"):
        _build_term_table(ArrangementInput(IntMatrix.from_columns(cols), offsets * 12))
    assert 0 < extended[0] <= 1_000


def test_lockstep_draw_stops_at_the_walk_budget(monkeypatch):
    # a draw past the budget leaves the walk while the draw beside it, of
    # the same shape, walks on to its own table
    small = ArrangementInput(IntMatrix.from_columns([(1, i) for i in range(12)]), (0,) * 12)
    alone = _build_term_table(small)
    extended = count_extensions(monkeypatch, 1_000)
    wide = ArrangementInput(IntMatrix.from_columns(EVEN_PAIRS), (0,) * 12)
    refused, walked = _walks([wide, small], {})
    assert isinstance(refused, BudgetExceededError)
    assert walked == alone
    assert 0 < extended[0] <= 1_000


@pytest.mark.parametrize("type_tag, rank", [("A", 7), ("D", 6), ("A", 12)])
def test_lcm_period_refuses_wide_central_roots_before_any_subset(monkeypatch, type_tag, rank):
    # every set of at most `rank` of the central positive roots is offered:
    # about 1.7 * 10^6, 7.7 * 10^5 and 5.3 * 10^13 subsets, past WALK_BUDGET
    def never(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(arrangement_module, "_lockstep_walk", never)
    cols = positive_roots(type_tag, rank).positive_roots
    with pytest.raises(BudgetExceededError, match="would offer at least .* WALK_BUDGET"):
        lcm_period(IntMatrix.from_columns(cols))


@given(st.one_of(random_arrangements(max_m=4, max_n=7, bound=2),
                 random_arrangements(max_m=4, max_n=7, bound=2, with_offsets=False),
                 sublattice_arrangements(max_n=7)))
@example(arrangement(positive_roots("A", 3).positive_roots, (0,) * 6))
@example(shi_matrix(RootSubset.full(positive_roots("A", 3)), 1))
@settings(max_examples=60, deadline=None)
def test_walk_offers_at_least_its_up_front_bound(arr):
    # the bound the walk checks up front, read by a spy on its own call
    least_offered = arrangement_module._least_offered
    bounds = []

    def spy(*args):
        bounds.append(least_offered(*args))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrangement_module, "_least_offered", spy)
        _build_term_table(arr)
        assert len(bounds) == 1 and bounds[0] > 0
        # with the check off and one subset less allowed, the loop stops it
        patch.setattr(arrangement_module, "_least_offered", lambda *args: 0)
        patch.setattr(arrangement_module, "WALK_BUDGET", bounds[0] - 1)
        with pytest.raises(BudgetExceededError, match="subset walk offered more than"):
            _build_term_table(arr)


def extend_one(minors, dets, chosen, idx, floor):
    """_extend_determinantal for the first draw of ``minors`` (a _MinorGcds)
    alone, with ``floor`` as its floors."""
    now = _extend_determinantal([[dk] for dk in dets], chosen, idx, minors,
                                [[low] for low in floor], [0])
    return tuple(dk for (dk,) in now)


def whole_determinantal(cols, m):
    """d_1..d_m of the matrix with columns ``cols``, as the walk's memo reads them."""
    return _MinorGcds([cols], m).floors[0]


def test_even_sum_determinantal_divisor_stays_two():
    cols = EVEN_SUM_4.cmatrix.columns()
    minors = _MinorGcds([cols], 4)
    floor = minors.floors[0]
    assert floor == (1, 1, 1, 2)
    for low in (floor, (1,) * 4):
        chosen, dets = (), (0,) * 4
        for idx in range(len(cols)):
            dets = extend_one(minors, dets, chosen, idx, low)
            chosen += (idx,)
        assert dets == (1, 1, 1, 2)
        assert _divisor_chain(dets) == (1, 1, 1, 2)


def test_divisor_chain_refuses_a_zero_before_a_nonzero_divisor():
    # d_k is 0 exactly above the rank, so no nonzero d_k follows a zero one
    assert _divisor_chain((2, 4, 0)) == (2, 2)
    with pytest.raises(InternalConsistencyError, match="zero before a nonzero"):
        _divisor_chain((1, 0, 2))


@st.composite
def kernel_batches(draw):
    """A lockstep batch of one to three draws with m <= 5 rows and one class
    count n <= 8: random, sublattice or rank-deficient columns (floors 0
    above the rank), cycled to n so that columns repeat, some with one row
    scaled by 2^70."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    column = st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any).map(tuple)
    kinds = [st.lists(column, min_size=1, max_size=n), sublattice_columns(m, n)]
    if m > 1:
        kinds.append(rank_deficient_columns(m, n))
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        cols = (draw(st.one_of(kinds)) * n)[:n]
        if draw(st.booleans()):
            r = draw(st.integers(0, m - 1))
            cols = [c[:r] + (c[r] << 70,) + c[r + 1:] for c in cols]
        batch.append(cols)
    return batch


@given(kernel_batches())
# rank 2 beside rank 3, and d_3 = 4 * 2^70
@example([[(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
          [(2, 0, 0), (0, 2, 0), (0, 0, 1 << 70)]])
@settings(max_examples=40, deadline=None)
def test_chains_from_determinantal_divisors_match_smith(batch):
    # the kernel gives every column set of every draw the cofactor oracle's
    # minor gcd, called alone and through the batch's memo, 0 above a draw's
    # rank; the memo's floors are each draw's d_1..d_m
    m, n = len(batch[0][0]), len(batch[0])
    rows = [[[c[i] for c in cols] for i in range(m)] for cols in batch]
    minors = _MinorGcds(batch, m)
    assert minors.floors == [tuple(minors_gcd(r, k) for k in range(1, m + 1)) for r in rows]
    for size in range(1, m + 1):
        for key in combinations(range(n), size):
            oracle = [minors_gcd([[row[j] for j in key] for row in r], size) for r in rows]
            assert _minors_gcds(batch, key, m) == minors[key] == oracle

    # every column set of the first draw, each reached by adding its largest
    # index last, with its determinantal divisors as floors and with none (1)
    cols = batch[0]
    for floor in (minors.floors[0], (1,) * m):
        stack = [((), (0,) * m)]
        while stack:
            chosen, dets = stack.pop()
            for idx in range(chosen[-1] + 1 if chosen else 0, n):
                now = extend_one(minors, dets, chosen, idx, floor)
                now_chosen = chosen + (idx,)
                smith = _smith_divisors([[cols[j][i] for j in now_chosen] for i in range(m)])
                assert _divisor_chain(now) == tuple(smith)
                stack.append((now_chosen, now))


def smith_determinantal(cols, m):
    """d_1..d_m of the m-row matrix with columns ``cols`` from its Smith form."""
    chain = _smith_divisors([[c[i] for c in cols] for i in range(m)])
    return tuple(prod(chain[:k]) if k <= len(chain) else 0 for k in range(1, m + 1))


@st.composite
def rank_deficient_columns(draw, m, max_n):
    """Nonzero integer combinations of fewer than m columns."""
    entry = st.integers(-3, 3)
    base = draw(st.lists(st.lists(entry, min_size=m, max_size=m).filter(any),
                         min_size=1, max_size=m - 1))
    cols = []
    for _ in range(draw(st.integers(1, max_n))):
        xs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
        col = tuple(sum(x * b[i] for x, b in zip(xs, base)) for i in range(m))
        if any(col):
            cols.append(col)
    return cols or [tuple(b) for b in base]


@pytest.mark.parametrize(
    "cols, dets",
    [
        # even coordinate sums: the first 4 x 4 minor is 2, and so is d_4
        (EVEN_SUM_4.cmatrix.columns(), (1, 1, 1, 2)),
        # a zero first minor, then a unit one
        ([(1, 0), (2, 0), (0, 1)], (1, 1)),
        # every 2 x 2 minor a multiple of 4: Smith after the first 4 sets
        ([(2, 0), (0, 2), (2, 2), (4, 2)], (2, 4)),
        # rank 2 of 3
        ([(1, 1, 0), (1, -1, 0), (3, 1, 0), (0, 2, 0)], (1, 2, 0)),
        # fewer columns than rows: no m x m minor at all
        ([(1, 2, 3), (2, 4, 6)], (1, 0, 0)),
        ([(2, 0, 0), (0, 4, 0)], (2, 8, 0)),
    ],
)
def test_whole_determinantal_examples(cols, dets):
    m = len(cols[0])
    assert whole_determinantal(cols, m) == smith_determinantal(cols, m) == dets


@given(st.integers(1, 4).flatmap(lambda m: st.one_of(
    st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m).filter(any).map(tuple),
             min_size=1, max_size=8),
    sublattice_columns(m, 8),
    rank_deficient_columns(m, 8) if m > 1 else sublattice_columns(m, 8),
)))
@settings(max_examples=80, deadline=None)
def test_whole_determinantal_matches_smith(cols):
    # the unit shortcut only ever answers (1, ..., 1), and anything else,
    # d_m > 1, rank below m or fewer columns than rows, is Smith's
    m = len(cols[0])
    assert whole_determinantal(cols, m) == smith_determinantal(cols, m)


def test_naive_refuses_wide_input():
    wide = arrangement([(1,)] * 21, tuple(range(21)))
    with pytest.raises(BudgetExceededError):
        divisor_formula_count_naive(wide, 3)


def test_report_gcd_flag_holds_by_construction(monkeypatch):
    from qcp import quasipoly

    audit = quasipoly.has_gcd_property

    def boom(qp):
        raise RuntimeError("collapse_report must not audit its own construction")

    monkeypatch.setattr(quasipoly, "has_gcd_property", boom)
    monkeypatch.setattr(arrangement_module, "has_gcd_property", boom, raising=False)
    for arr in (FAMILY_A_122, FAMILY_D_222, arrangement([(1, 2), (2, 1)], (3, 0))):
        report = collapse_report(arr)
        assert report.gcd_property is True
        assert report.to_json_dict()["gcd_property"] is True
        assert audit(report.quasi_polynomial)


def test_quasi_polynomial_family_a_122():
    qp = characteristic_quasi_polynomial(FAMILY_A_122)
    assert qp.period == 2
    assert qp.constituent_for_class(1).coeffs == (-3, 1)
    assert qp.constituent_for_class(2).coeffs == (-4, 1)


def test_characteristic_polynomial_single_point():
    arr = arrangement([(1,)], (0,))
    assert CountingFormula.of(arr).constituent(1).coeffs == (-1, 1)


def test_constituents_monic_of_dimension_degree():
    for arr in (FAMILY_A_122, FAMILY_D_222):
        qp = characteristic_quasi_polynomial(arr)
        for cons in qp.constituents:
            assert cons.degree == arr.m
            assert cons.is_monic


def test_collapse_report_family_a_242(capsys, tmp_path):
    mat = IntMatrix.from_columns([(1, 0), (0, 2)] + [(1, 4)] * 4)
    arr = ArrangementInput(mat, (0, 0, 1, 2, 3, 4))
    report = collapse_report(arr)
    assert report.lcm_period == 4
    assert report.minimum_period == 2
    assert report.collapse
    assert report.gcd_property
    data = report.to_json_dict()
    assert list(data) == [
        "lcm_period", "minimum_period", "collapse", "q0", "gcd_property", "quasi_polynomial",
    ]
    assert data["collapse"] is True and data["gcd_property"] is True
    assert data["quasi_polynomial"] == report.quasi_polynomial.to_json_dict()
    # the compute command writes that report for the arrangement it read
    path = tmp_path / "a242.json"
    path.write_text(json.dumps(arr.to_json_dict()))
    assert main(["compute", "--input", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"] == collapse_report(
        ArrangementInput.from_json_dict(payload["arrangement"])
    ).to_json_dict()


def test_central_inputs_never_collapse():
    central = arrangement([(2, 0), (0, 3), (2, 3)], (0, 0, 0))
    report = collapse_report(central)
    assert report.q0 == 0
    assert not report.collapse
    assert report.minimum_period == report.lcm_period


@given(random_arrangements(max_m=2, max_n=4, bound=3))
@example(OVER_BUDGET)
@settings(max_examples=25, deadline=None)
def test_report_consistency_properties(arr):
    formula = CountingFormula.of(arr)
    if formula.period > CONSTITUENT_BUDGET:
        with pytest.raises(BudgetExceededError, match="materialization budget"):
            collapse_report(arr)
        assert formula.period % formula.minimum_period == 0
        return
    report = collapse_report(arr)
    assert report.lcm_period % report.minimum_period == 0
    assert report.collapse == (report.minimum_period < report.lcm_period)
    assert report.gcd_property
    threshold = report.q0
    for q in range(threshold + 1, threshold + report.lcm_period + 2):
        assert report.quasi_polynomial.evaluate(q) == brute_force_count(arr, q)


@given(random_arrangements(max_m=2, max_n=4, bound=3))
@example(OVER_BUDGET)
@settings(max_examples=25, deadline=None)
def test_formula_is_the_quasi_polynomial_at_every_q(arr):
    # all sides are determined by q's residue class, so they agree even
    # below the threshold where the true count may differ
    formula = CountingFormula.of(arr)
    terms, _ = _build_term_table(arr)
    if formula.period > CONSTITUENT_BUDGET:
        with pytest.raises(BudgetExceededError, match="materialization budget"):
            characteristic_quasi_polynomial(arr)
        assert formula.period % formula.minimum_period == 0
        for q in range(1, 60):
            assert formula.count(q) == evaluate_terms(terms, arr.m, q)
        return
    qp = characteristic_quasi_polynomial(arr)
    for q in range(1, 2 * qp.period + 8):
        direct = evaluate_terms(terms, arr.m, q)
        assert qp.evaluate(q) == direct
        assert formula.count(q) == direct


@given(random_arrangements(max_m=2, max_n=3, bound=2))
@settings(max_examples=30, deadline=None)
def test_read_off_matches_interpolated_constituents(arr):
    formula = CountingFormula.of(arr)
    qp = interpolated_quasi_polynomial(arr)
    assert qp == formula.quasi_polynomial()
    assert minimum_period(qp) == formula.minimum_period


@given(random_arrangements(max_m=2, max_n=4, bound=4, with_offsets=False))
@settings(max_examples=30, deadline=None)
def test_central_summary_agrees_with_pipeline(arr):
    rho, minp = central_period_summary(arr)
    assert (rho, minp) == totient_summary(arr)
    if rho <= INTERPOLATION_PERIOD_CAP:
        qp = interpolated_quasi_polynomial(arr)
        assert (qp.period, minimum_period(qp)) == (rho, minp)


def test_central_collapse_is_an_internal_error(monkeypatch):
    # a central arrangement never collapses (the paper's second main result);
    # weights {1: 1} give every formula minimum period 1, a collapse at rho = 2
    monkeypatch.setattr(arrangement_module, "_indicator_weights", lambda pairs, spent: {1: 1})
    arr = arrangement([(2,)], (0,))
    message = f"central arrangement {arr.to_json_dict()} collapses: minimum period 1, lcm period 2"
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        CountingFormula.of(arr)
    # a non-central arrangement may collapse
    assert CountingFormula.of(FAMILY_A_122).minimum_period == 1


def test_central_summary_rejects_non_central():
    with pytest.raises(ValidationError):
        central_period_summary(FAMILY_A_122)


def test_constituent_materialization_cap():
    # three coprime stretches push the lcm period past the budget
    arr = arrangement([(251,), (257,), (263,)], (0, 0, 0))
    assert lcm_period(arr.cmatrix) == 251 * 257 * 263
    with pytest.raises(BudgetExceededError, match="materialization budget"):
        characteristic_quasi_polynomial(arr)
    # the summary path still handles it exactly
    rho, minp = central_period_summary(arr)
    assert rho == minp == 251 * 257 * 263
    assert totient_summary(arr) == (rho, minp)


def test_minimum_period_collapses_when_constituents_coincide():
    qp = characteristic_quasi_polynomial(FAMILY_D_222)
    assert qp.period == 2
    assert minimum_period(qp) == 1  # same polynomial on both classes
