"""Family constructors, closed forms, and the cross-family identities."""

from math import gcd

import pytest

from conftest import closed_form_A, correction_term, ehrhart_form_A, reciprocity_A, with_period
from qcp import (
    ArrangementInput,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    ValidationError,
    brute_force_count,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    family_matrix,
    lcm_period,
    q_zero,
)


def a_family(m, p, s):
    return family_matrix(FamilyParams(kind="A", m=m, p=p, s=s))


def test_family_a_122_matrix():
    arr = a_family(1, 2, 2)
    assert arr.to_json_dict() == {"m": 1, "n": 3, "C": [[2, 2, 2]], "b": [0, 1, 2]}


def test_family_d_222_matrix():
    arr = family_matrix(FamilyParams(kind="D", m=2, p=2, a=2))
    assert [list(arr.cmatrix.column(j)) + [arr.offsets[j]] for j in range(4)] == [
        [1, 0, 0],
        [0, 1, 0],
        [1, 2, 1],
        [1, 2, 2],
    ]


def test_family_b_221_matrix():
    arr = family_matrix(FamilyParams(kind="B", m=2, p=2, s=1))
    assert arr.offsets == (0, 0, 0, 1)
    assert [list(arr.cmatrix.column(j)) for j in range(4)] == [
        [1, 0],
        [0, 1],
        [1, 2],
        [1, 2],
    ]


def test_param_validation():
    with pytest.raises(ValidationError):
        FamilyParams(kind="A", m=1, p=4, s=3)  # s does not divide p
    with pytest.raises(ValidationError):
        FamilyParams(kind="B", m=1, p=2, s=1)  # m = 1 degenerates
    with pytest.raises(ValidationError):
        FamilyParams(kind="B", m=2, p=1, s=1)  # p = 1 is central
    with pytest.raises(ValidationError):
        FamilyParams(kind="D", m=2, p=2, s=2, a=2)  # D fixes s = 1
    with pytest.raises(ValidationError):
        FamilyParams(kind="A", m=2, p=2, s=2, a=3)  # a unused for kind A
    with pytest.raises(ValidationError):
        FamilyParams(kind="X", m=1, p=1)


def test_closed_form_values():
    qp = closed_form_A(1, 2, 2)
    assert qp.period == 2
    assert qp.constituent_for_class(1).coeffs == (-3, 1)
    assert qp.constituent_for_class(2).coeffs == (-4, 1)
    assert closed_form_A(1, 1, 1).constituent_for_class(1).coeffs == (-2, 1)
    assert closed_form_A(2, 2, 1).constituent_for_class(1).coeffs == (5, -4, 1)


def _grid(max_m=3, max_p=6):
    for m in range(1, max_m + 1):
        for p in range(1, max_p + 1):
            for s in range(1, p + 1):
                if p % s == 0:
                    yield m, p, s


def test_closed_form_matches_pipeline_on_small_grid():
    for m, p, s in _grid(max_m=2, max_p=4):
        arr = a_family(m, p, s)
        computed = characteristic_quasi_polynomial(arr)
        assert computed.period == p
        expanded = with_period(closed_form_A(m, p, s), p)
        assert expanded.constituents == computed.constituents


def test_theorem_periods_on_small_grid():
    for m, p, s in _grid(max_m=2, max_p=4):
        report = collapse_report(a_family(m, p, s))
        assert report.lcm_period == p
        assert report.minimum_period == s
        assert report.collapse == (s < p)


def test_ehrhart_form_values():
    assert ehrhart_form_A(1, 2, 2, 5) == 2
    assert ehrhart_form_A(1, 2, 2, 6) == 2
    arr = a_family(2, 2, 1)
    assert ehrhart_form_A(2, 2, 1, 4) == divisor_formula_count(arr, 4)
    # q is never coerced: a float is refused as invalid, not as a TypeError
    for form in (ehrhart_form_A, reciprocity_A):
        with pytest.raises(ValidationError, match="q must be an integer"):
            form(2, 4, 2, 3.0)


def test_ehrhart_form_matches_formula_everywhere():
    for m, p, s in _grid(max_m=3, max_p=4):
        formula = CountingFormula.of(a_family(m, p, s))
        for q in range(1, 3 * p + 6):
            assert ehrhart_form_A(m, p, s, q) == formula.count(q)


def test_reciprocity_values():
    assert reciprocity_A(1, 2, 2, 5) == 8
    assert reciprocity_A(1, 1, 1, 3) == 5


def test_reciprocity_identity():
    for m, p, s in _grid(max_m=3, max_p=4):
        qp = closed_form_A(m, p, s)
        for q in range(1, 11):
            constituent = qp.constituent_for_class((q - 1) % s + 1)
            mirrored = constituent.evaluate(-q)
            if m % 2:
                mirrored = -mirrored
            assert mirrored == reciprocity_A(m, p, s, q)


def test_correction_term_special_cases():
    for p in (1, 2, 3, 5):
        for q in range(p + 1, p + 8):
            assert correction_term(1, p, q) == p
    for p in (1, 2, 3, 4):
        for q in range(2 * p, 2 * p + 8):
            assert correction_term(p, p, q) == p
    assert correction_term(2, 2, 4) == 2
    with pytest.raises(ValidationError):
        correction_term(2, 3, 3)
    # nothing is coerced: q = 3.5 counts no pairs, and True is no a = 1
    with pytest.raises(ValidationError, match="q must be an integer"):
        correction_term(1, 2, 3.5)
    with pytest.raises(ValidationError, match="a must be an integer"):
        correction_term(True, 2, 3)


def _open_cube(d, q):
    return (q - 1) ** d if d >= 1 else 1


def test_family_d_lemma_with_correction_term():
    # count = (q-1)^m + p * sum_{k=1}^{m-1} (-1)^k (q-1)^(m-k) + (-1)^m * correction
    for m in (1, 2, 3):
        for a in (1, 2, 3):
            for p in (1, 2, 3):
                arr = family_matrix(FamilyParams(kind="D", m=m, p=p, a=a))
                threshold = q_zero(arr)
                formula = CountingFormula.of(arr)
                for q in range(max(p, threshold) + 1, max(p, threshold) + 8):
                    expect = _open_cube(m, q)
                    for k in range(1, m):
                        term = p * _open_cube(m - k, q)
                        expect += -term if k % 2 else term
                    corr = correction_term(a, p, q)
                    expect += corr if m % 2 == 0 else -corr
                    assert brute_force_count(arr, q) == expect
                    assert formula.count(q) == expect


def test_family_d_polynomiality_for_unit_and_full_a():
    for m in (1, 2):
        for p in (1, 2, 3):
            for a in (1, p):
                arr = family_matrix(FamilyParams(kind="D", m=m, p=p, a=a))
                report = collapse_report(arr)
                assert report.minimum_period == 1
                formula = CountingFormula.of(arr)
                # for q >= 2p the correction term equals p and folds into the sum
                for q in range(max(2 * p, report.q0 + 1), 2 * p + 8):
                    expect = _open_cube(m, q)
                    for k in range(1, m + 1):
                        term = p * _open_cube(m - k, q)
                        expect += -term if k % 2 else term
                    assert formula.count(q) == expect


def test_family_b_identity():
    # kind A minus kind B is (-1)^m gcd(q, s), visible in the constant term
    for m in (2, 3):
        for p in (2, 4):
            for s in (1, 2, p):
                if p % s:
                    continue
                qa = characteristic_quasi_polynomial(a_family(m, p, s))
                qb = characteristic_quasi_polynomial(
                    family_matrix(FamilyParams(kind="B", m=m, p=p, s=s))
                )
                assert qa.period == qb.period == p
                for k in range(1, p + 1):
                    ca = list(qa.constituent_for_class(k).coeffs)
                    cb = list(qb.constituent_for_class(k).coeffs)
                    diff = gcd(k, s) if m % 2 == 0 else -gcd(k, s)
                    assert ca[0] - cb[0] == diff
                    assert ca[1:] == cb[1:]


def test_family_b_periods():
    for m, p, s in ((2, 2, 1), (2, 4, 2), (3, 2, 2)):
        report = collapse_report(family_matrix(FamilyParams(kind="B", m=m, p=p, s=s)))
        assert report.lcm_period == p
        assert report.minimum_period == s


def test_family_b_m1_degenerate_case_built_by_hand():
    # the rejected m = 1 shape still has a well-defined arrangement whose
    # count is q - p with full period collapse
    s, p = 2, 2
    arr = ArrangementInput(
        IntMatrix.from_columns([(s,)] + [(p,)] * p), tuple([0] + list(range(p)))
    )
    report = collapse_report(arr)
    assert report.lcm_period == p
    assert report.minimum_period == 1
    assert report.collapse
    assert report.quasi_polynomial.constituent_for_class(1).coeffs == (-p, 1)


def test_family_aprime_identity():
    for m in (1, 2):
        for p in (2, 4):
            for s in (1, 2):
                for a in (1, 2, 3, p):
                    qa = characteristic_quasi_polynomial(a_family(m, p, s))
                    arr = family_matrix(FamilyParams(kind="Aprime", m=m, p=p, s=s, a=a))
                    qprime = characteristic_quasi_polynomial(arr)
                    for q in range(1, 3 * p + 7):
                        g = gcd(q, a)
                        multiples = sum(1 for r in range(1, p + 1) if r % g == 0)
                        diff = p - g * multiples
                        if m % 2:
                            diff = -diff
                        assert qa.evaluate(q) - qprime.evaluate(q) == diff


def test_family_aprime_equality_cases():
    for m in (1, 2):
        for p in (2, 3):
            for s in (1, 2):
                if p % s:
                    continue
                for a in (1, p):
                    qa = characteristic_quasi_polynomial(a_family(m, p, s))
                    qprime = characteristic_quasi_polynomial(
                        family_matrix(FamilyParams(kind="Aprime", m=m, p=p, s=s, a=a))
                    )
                    common = qa.period * qprime.period // gcd(qa.period, qprime.period)
                    assert (
                        with_period(qa, common).constituents
                        == with_period(qprime, common).constituents
                    )


def test_family_aprime_lcm_period():
    for m in (1, 2):
        for p in (2, 3):
            for s in (1, 2, 3):
                for a in (1, 2, 3):
                    arr = family_matrix(FamilyParams(kind="Aprime", m=m, p=p, s=s, a=a))
                    expected = s * a // gcd(s, a)
                    assert lcm_period(arr.cmatrix) == expected
