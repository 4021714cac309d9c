"""Smith normal form and rank against minor-gcd oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_rank, divisors_via_minors
from qcp import IntMatrix, SmithForm, ValidationError, integer_rank, smith_normal_form
from qcp.intlinalg import divisors_of, euler_phi, gcd_all, lcm_all


def mat(rows):
    return IntMatrix.from_rows(rows)


def test_identity_divisors():
    form = smith_normal_form(mat([[1, 0], [0, 1]]))
    assert form.rank == 2
    assert form.divisors == (1, 1)


def test_two_by_two_with_determinant_two():
    # 1x1 minors have gcd 1, determinant is 2, so the chain is (1, 2)
    form = smith_normal_form(mat([[2, 2], [1, 2]]))
    assert form.rank == 2
    assert form.divisors == (1, 2)


def test_rank_two_coefficient_matrix_with_unit_minor():
    form = smith_normal_form(mat([[1, 0, 1, 2], [0, 1, 1, 1]]))
    assert form.rank == 2
    assert form.divisors == (1, 1)


def test_zero_matrix_has_rank_zero():
    form = smith_normal_form(mat([[0, 0], [0, 0]]))
    assert form.rank == 0
    assert form.divisors == ()
    assert form.largest == 1


@pytest.mark.parametrize(
    "rows,expected",
    [([[1, 1], [1, 1]], 1), ([[1, 0], [0, 1]], 2), ([[0, 1, 1], [1, 2, 2]], 2)],
)
def test_integer_rank_examples(rows, expected):
    assert integer_rank(mat(rows)) == expected


def test_rank_agrees_with_smith_rank():
    m = mat([[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert integer_rank(m) == smith_normal_form(m).rank


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_divisor_products_match_minor_gcds(rows):
    form = smith_normal_form(mat(rows))
    assert form.rank == brute_rank(rows)
    prod = 1
    for k, d in enumerate(form.divisors, start=1):
        prod *= d
        from conftest import minors_gcd

        assert prod == minors_gcd(rows, k)


@given(small_matrices)
@settings(max_examples=40, deadline=None)
def test_divisor_chain_matches_minor_chain(rows):
    assert list(smith_normal_form(mat(rows)).divisors) == divisors_via_minors(rows)


@given(small_matrices)
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_transpose(rows):
    m = mat(rows)
    assert integer_rank(m) == integer_rank(m.transpose())


def _mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_invariance_under_unimodular_transforms():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    base = smith_normal_form(mat(rows))
    # hand-picked unimodular factors: permutation, shear, sign flip
    perm = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    shear = [[1, 0, 0], [3, 1, 0], [0, 0, 1]]
    flip = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    for left in (perm, shear, flip):
        for right in (perm, shear, flip):
            transformed = _mul(left, _mul(rows, right))
            assert smith_normal_form(mat(transformed)) == base


def test_matrix_validation():
    with pytest.raises(ValidationError):
        IntMatrix(rows=0, cols=1, entries=())
    with pytest.raises(ValidationError):
        IntMatrix(rows=1, cols=2, entries=(1,))
    with pytest.raises(ValidationError):
        IntMatrix(rows=1, cols=1, entries=(1.5,))
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_accessors():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == (4, 5, 6)
    assert m.column(2) == (3, 6)
    assert m.entry(0, 1) == 2
    assert m.transpose().row(0) == (1, 4)
    assert m.with_extra_row([7, 8, 9]).row(2) == (7, 8, 9)
    with pytest.raises(ValidationError):
        mat([[1, 2]]).with_extra_row([1.9, True])  # never coerced to (1, 1)
    assert IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)]) == m


def test_smith_form_validation():
    with pytest.raises(ValidationError):
        SmithForm(rank=2, divisors=(2, 3))  # chain broken
    with pytest.raises(ValidationError):
        SmithForm(rank=1, divisors=(0,))
    with pytest.raises(ValidationError):
        SmithForm(rank=2, divisors=(1,))


def test_number_helpers():
    assert gcd_all([6, -9, 15]) == 3
    assert gcd_all([]) == 0
    assert lcm_all([4, 6, 0]) == 12
    assert lcm_all([]) == 1
    assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    # gcd(e, q) as a totient sum over common divisors, spot check
    from math import gcd

    for e in (1, 4, 6, 12):
        for q in range(1, 30):
            assert gcd(e, q) == sum(euler_phi(d) for d in divisors_of(e) if q % d == 0)
