"""Quasi-polynomial values, interpolation, periods, gcd property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interpolate_constituents, with_period
from qcp import (
    InternalConsistencyError,
    Polynomial,
    QuasiPolynomial,
    ValidationError,
    has_gcd_property,
    minimum_period,
)


def poly(*coeffs):
    return Polynomial(tuple(coeffs))


def qp(*constituents):
    return QuasiPolynomial(period=len(constituents), constituents=tuple(constituents))


def test_polynomial_normalization_and_eval():
    p = poly(5, -4, 1, 0, 0)
    assert p.coeffs == (5, -4, 1)
    assert p.degree == 2
    assert p.is_monic
    assert p.evaluate(3) == 2
    assert p.evaluate(-5) == 50
    assert poly().degree == -1
    assert str(poly()) == "0"
    assert str(poly(16, -8, 1)) == "t^2 - 8t + 16"
    assert str(poly(-3, 1)) == "t - 3"
    assert str(poly(0, -1, 0, 2)) == "2t^3 - t"


def test_evaluate_single_constituent():
    assert qp(poly(-2, 1)).evaluate(7) == 5


def test_evaluate_uses_residue_class():
    # values frozen from brute-force counts of {z mod q : 2z not in {0,1,2}}
    two = qp(poly(-3, 1), poly(-4, 1))
    assert two.evaluate(5) == 2
    assert two.evaluate(6) == 2
    assert two.evaluate(7) == 4
    assert two.evaluate(8) == 4


def test_with_period_is_pointwise_stable():
    two = qp(poly(-3, 1), poly(-4, 1))
    six = with_period(two, 6)
    assert six.period == 6
    for q in range(1, 40):
        assert six.evaluate(q) == two.evaluate(q)
    with pytest.raises(AssertionError):
        with_period(two, 3)


def test_quasi_polynomial_validation():
    with pytest.raises(ValidationError):
        qp(poly(-3, 1), poly(1, 0, 1))  # mixed degrees
    with pytest.raises(ValidationError):
        qp(poly(3, 2))  # not monic
    with pytest.raises(ValidationError):
        QuasiPolynomial(period=2, constituents=(poly(-3, 1),))
    with pytest.raises(ValidationError, match="period must be an integer"):
        QuasiPolynomial(2.0, (poly(-3, 1), poly(-3, 1)))  # never coerced to 2
    with pytest.raises(ValidationError, match="must be Polynomial values"):
        QuasiPolynomial(period=1, constituents=((-3, 1),))
    for k in (0, 3):
        with pytest.raises(ValidationError, match=f"residue class {k} out of range 1..2"):
            qp(poly(-3, 1), poly(-1, 1)).constituent_for_class(k)


def test_interpolation_line():
    result = interpolate_constituents({1: [(1, -1), (3, 1), (5, 3)]}, expected_degree=1)
    assert result.period == 1
    assert result.constituents[0].coeffs == (-2, 1)


def test_interpolation_two_classes():
    samples = {1: [(5, 2), (7, 4)], 2: [(6, 2), (8, 4)]}
    result = interpolate_constituents(samples, expected_degree=1)
    assert result.constituent_for_class(1).coeffs == (-3, 1)
    assert result.constituent_for_class(2).coeffs == (-4, 1)


def test_interpolation_rejects_non_integral():
    with pytest.raises(InternalConsistencyError, match="constituent not integral"):
        interpolate_constituents({1: [(1, 0), (3, 1), (5, 2)]}, expected_degree=1)


def test_interpolation_rejects_bad_holdout():
    with pytest.raises(InternalConsistencyError, match="holdout"):
        interpolate_constituents({1: [(1, 1), (3, 3), (5, 6)]}, expected_degree=1)


def test_interpolation_input_validation():
    with pytest.raises(ValidationError):
        interpolate_constituents({1: [(1, 1)]}, expected_degree=1)  # too few points
    with pytest.raises(ValidationError):
        interpolate_constituents({2: [(2, 1), (4, 1)]}, expected_degree=0)  # classes not 1..rho
    with pytest.raises(ValidationError):
        interpolate_constituents(
            {1: [(1, 1), (4, 1)], 2: [(2, 1), (4, 1)]}, expected_degree=1
        )  # q=4 not in class 1 mod 2


def test_minimum_period_examples():
    square = poly(16, -8, 1)
    assert minimum_period(qp(square, square)) == 1
    assert minimum_period(qp(poly(-3, 1), poly(-4, 1))) == 2
    # period 6 with classes {1,2,4,5} vs {3,6} repeats with period 3
    a, b = poly(26, -10, 1), poly(25, -10, 1)
    assert minimum_period(QuasiPolynomial(period=6, constituents=(a, a, b, a, a, b))) == 3


def test_minimum_period_divides_period():
    a, b = poly(1, 1), poly(2, 1)
    for cons in [(a, a, a, a), (a, b, a, b), (a, a, b, b), (a, b, b, a)]:
        q = QuasiPolynomial(period=4, constituents=cons)
        assert 4 % minimum_period(q) == 0


def test_gcd_property_examples():
    a, b, c = poly(1, 1), poly(2, 1), poly(3, 1)
    assert has_gcd_property(qp(a))
    assert has_gcd_property(qp(a, b))  # gcd(1,2) != gcd(2,2): no constraint
    assert not has_gcd_property(QuasiPolynomial(4, (a, b, c, b)))  # gcd(1,4)=gcd(3,4)
    assert has_gcd_property(QuasiPolynomial(4, (a, b, a, c)))


@given(st.integers(1, 6), st.integers(2, 4), st.lists(st.integers(-9, 9), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_expansion_preserves_evaluation(period, factor, tail):
    constituents = tuple(
        Polynomial(tuple([k + i for i in tail] + [1])) for k in range(period)
    )
    base = QuasiPolynomial(period=period, constituents=constituents)
    expanded = with_period(base, period * factor)
    for q in range(1, 3 * period * factor + 1):
        assert expanded.evaluate(q) == base.evaluate(q)
    assert minimum_period(expanded) == minimum_period(base)


def test_json_round_trip():
    original = qp(poly(-3, 1), poly(-4, 1))
    data = original.to_json_dict()
    assert data == {"period": 2, "constituents": [
        {"k": 1, "coeffs": ["-3", "1"]}, {"k": 2, "coeffs": ["-4", "1"]},
    ]}
    # classes holding one Polynomial object share one coefficient list
    a = poly(-3, 1)
    items = QuasiPolynomial(3, (a, poly(-4, 1), a)).to_json_dict()["constituents"]
    assert items[0]["coeffs"] == ["-3", "1"]
    assert items[0]["coeffs"] is items[2]["coeffs"]
