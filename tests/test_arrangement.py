"""Counting formula, periods, threshold, and report assembly."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    evaluate_terms,
    interpolated_quasi_polynomial,
    oracle_lcm_period,
    oracle_q_zero,
    totient_summary,
    unpruned_term_table,
)
from qcp import (
    ArrangementInput,
    BudgetExceededError,
    CountingFormula,
    IntMatrix,
    RootSubset,
    ValidationError,
    brute_force_count,
    central_period_summary,
    characteristic_polynomial,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    divisor_formula_count_naive,
    lcm_period,
    linial_matrix,
    minimum_period,
    positive_roots,
    q_zero,
    shi_matrix,
)
from qcp import arrangement as arrangement_module
from qcp.arrangement import CONSTITUENT_BUDGET, CollapseReport, _build_term_table


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


@given(random_arrangements(max_m=2, max_n=5, bound=3))
@settings(max_examples=40, deadline=None)
def test_q_zero_matches_full_enumeration(arr):
    cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
    assert q_zero(arr) == oracle_q_zero(cols, arr.offsets)


@given(random_arrangements(max_m=3, max_n=6, bound=3))
@settings(max_examples=15, deadline=None)
def test_q_zero_matches_full_enumeration_dimension_three(arr):
    cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
    assert q_zero(arr) == oracle_q_zero(cols, arr.offsets)


def test_q_zero_examples():
    central = arrangement([(1, 2), (3, -1)], (0, 0))
    assert q_zero(central) == 0
    assert q_zero(FAMILY_A_122) == 2
    assert q_zero(FAMILY_D_222) == 2


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


@given(shi_like_arrangements())
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
    [("G2", 2, 3, 7344), ("B", 3, 1, 4818), ("A", 3, 2, 6048)],
)
def test_walk_budget_counts_every_offered_subset(monkeypatch, type_tag, rank, k, offered):
    # the unpruned walk would offer 117,648, 19,682 and 15,624 subsets
    arr = shi_matrix(RootSubset.full(positive_roots(type_tag, rank)), k)
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", offered)
    _build_term_table(arr)
    monkeypatch.setattr(arrangement_module, "WALK_BUDGET", offered - 1)
    with pytest.raises(BudgetExceededError, match="subset walk"):
        _build_term_table(arr)


@given(st.one_of(random_arrangements(), random_arrangements(with_offsets=False)))
@settings(max_examples=60, deadline=None)
def test_walk_period_matches_lcm_period(arr):
    assert _build_term_table(arr)[1] == lcm_period(arr.cmatrix)


@given(matrices_with_dependent_columns(), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_period_matches_lcm_period_with_dependent_columns(mat, data):
    offsets = data.draw(st.lists(st.integers(-2, 2), min_size=mat.cols, max_size=mat.cols))
    arr = ArrangementInput(mat, tuple(offsets))
    assert _build_term_table(arr)[1] == lcm_period(mat)


@given(st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3).filter(any).map(tuple),
    min_size=6, max_size=6,
))
@settings(max_examples=30, deadline=None)
def test_walk_period_matches_lcm_period_on_central_scan_draws(cols):
    # the shape of `qcp scan-central --m 3 --n 6 --entry-bound 5`
    arr = arrangement(cols, (0,) * 6)
    assert _build_term_table(arr)[1] == lcm_period(arr.cmatrix)


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
            assert _build_term_table(arr)[1] == lcm_period(arr.cmatrix)


def test_formula_walks_once(monkeypatch):
    # 63 subsets of six distinct central columns: one coefficient reduction
    # and one Smith form each, and no separate lcm_period walk
    arr = arrangement(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3), (2, -1, 1)], (0,) * 6
    )
    calls = Counter()

    def count_calls(name):
        inner = getattr(arrangement_module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(arrangement_module, name, counted)

    for name in ("lcm_period", "_smith_divisors", "_reduce_against"):
        count_calls(name)
    formula = CountingFormula.of(arr)
    assert calls["lcm_period"] == 0
    assert calls["_smith_divisors"] == 63
    assert calls["_reduce_against"] == 63
    assert formula.period == formula.minimum_period == 30


def test_naive_refuses_wide_input():
    wide = arrangement([(1,)] * 21, tuple(range(21)))
    with pytest.raises(BudgetExceededError):
        divisor_formula_count_naive(wide, 3)


def test_quasi_polynomial_family_a_122():
    qp = characteristic_quasi_polynomial(FAMILY_A_122)
    assert qp.period == 2
    assert qp.constituent_for_class(1).coeffs == (-3, 1)
    assert qp.constituent_for_class(2).coeffs == (-4, 1)


def test_characteristic_polynomial_single_point():
    arr = arrangement([(1,)], (0,))
    assert characteristic_polynomial(arr).coeffs == (-1, 1)


def test_constituents_monic_of_dimension_degree():
    for arr in (FAMILY_A_122, FAMILY_D_222):
        qp = characteristic_quasi_polynomial(arr)
        for cons in qp.constituents:
            assert cons.degree == arr.m
            assert cons.is_monic


def test_collapse_report_family_a_242():
    mat = IntMatrix.from_columns([(1, 0), (0, 2)] + [(1, 4)] * 4)
    arr = ArrangementInput(mat, (0, 0, 1, 2, 3, 4))
    report = collapse_report(arr)
    assert report.lcm_period == 4
    assert report.minimum_period == 2
    assert report.collapse
    assert report.gcd_property
    data = report.to_json_dict()
    assert CollapseReport.from_json_dict(data) == report


def test_collapse_report_json_is_strict():
    data = collapse_report(FAMILY_A_122).to_json_dict()
    for key, bad in (
        ("gcd_property", "false"), ("collapse", 1), ("q0", "7"),
        ("lcm_period", 2.0), ("minimum_period", True),
    ):
        with pytest.raises(ValidationError):
            CollapseReport.from_json_dict({**data, key: bad})


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
