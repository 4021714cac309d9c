"""The Smith divisor chain and rank against minor-gcd oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_rank, divisors, divisors_via_minors, euler_phi, minors_gcd
from qcp import IntMatrix, ValidationError
from qcp.intlinalg import _smith_divisors


def mat(rows):
    return IntMatrix.from_rows(rows)


def smith(rows):
    """Divisor chain of ``rows``, which ``_smith_divisors`` would consume."""
    return _smith_divisors([list(r) for r in rows])


def test_identity_divisors():
    assert smith([[1, 0], [0, 1]]) == [1, 1]


def test_two_by_two_with_determinant_two():
    # 1x1 minors have gcd 1, determinant is 2, so the chain is (1, 2)
    assert smith([[2, 2], [1, 2]]) == [1, 2]


def test_rank_two_coefficient_matrix_with_unit_minor():
    assert smith([[1, 0, 1, 2], [0, 1, 1, 1]]) == [1, 1]


def test_zero_matrix_has_rank_zero():
    assert smith([[0, 0], [0, 0]]) == []


@pytest.mark.parametrize(
    "rows,expected",
    [([[1, 1], [1, 1]], 1), ([[1, 0], [0, 1]], 2), ([[0, 1, 1], [1, 2, 2]], 2)],
)
def test_integer_rank_examples(rows, expected):
    assert len(smith(rows)) == expected


def test_rank_agrees_with_smith_rank():
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    assert len(smith(rows)) == brute_rank(rows) == 2


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@st.composite
def large_matrices(draw):
    """Entries up to 10^12, where a row step that ran before the column
    below the pivot was clear once grew entries without bound; about half
    of those with two or more rows end with a row that combines two others."""
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 6))
    entry = st.integers(-10**12, 10**12)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if r >= 2 and draw(st.booleans()):
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [s * a + t * b for a, b in zip(rows[0], rows[-2])]
    return rows


matrices = st.one_of(small_matrices, large_matrices())


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_divisor_products_match_minor_gcds(rows):
    divisors = smith(rows)
    assert len(divisors) == brute_rank(rows)
    prod = 1
    for k, d in enumerate(divisors, start=1):
        prod *= d
        assert prod == minors_gcd(rows, k)


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_divisor_chain_matches_minor_chain(rows):
    assert smith(rows) == divisors_via_minors(rows)


def test_swapped_out_row_does_not_grow():
    # the whole coefficient matrix of the first draw of
    # generate_central_inputs(3, 6, 10**6, 1, 1): when the row step ran with
    # a swapped-out row still holding a pivot-column entry, that entry was
    # multiplied into its row, and the entries passed 4,000 digits
    rows = [
        [-718218, 682471, -465082, 595853, 366489, -559693],
        [193707, 601751, -752707, -57349, -203890, -803163],
        [777197, -867656, 39002, -9630, 654072, 23109],
    ]
    assert smith(rows) == divisors_via_minors(rows) == [1, 1, 1]


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_transpose(rows):
    transposed = [list(col) for col in zip(*rows)]
    assert len(smith(rows)) == len(smith(transposed))


def _mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_invariance_under_unimodular_transforms():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    base = smith(rows)
    # hand-picked unimodular factors: permutation, shear, sign flip
    perm = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    shear = [[1, 0, 0], [3, 1, 0], [0, 0, 1]]
    flip = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    for left in (perm, shear, flip):
        for right in (perm, shear, flip):
            transformed = _mul(left, _mul(rows, right))
            assert smith(transformed) == base


def test_matrix_validation():
    with pytest.raises(ValidationError):
        IntMatrix(rows=0, cols=1, entries=())
    with pytest.raises(ValidationError):
        IntMatrix(rows=1, cols=2, entries=(1,))
    with pytest.raises(ValidationError):
        IntMatrix(rows=1, cols=1, entries=(1.5,))
    with pytest.raises(ValidationError):
        IntMatrix(rows=1, cols=2, entries=(1, True))  # never coerced to (1, 1)
    # nor is the shape: a float or a bool is no row count
    with pytest.raises(ValidationError, match="rows must be an integer"):
        IntMatrix(2.0, 2, (1, 2, 3, 4))
    with pytest.raises(ValidationError, match="rows must be an integer"):
        IntMatrix(True, 2, (1, 2))
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValidationError, match="at least one row and one column"):
        IntMatrix.from_rows([])
    with pytest.raises(ValidationError, match="at least one column"):
        IntMatrix.from_columns([])


def test_matrix_accessors():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == (4, 5, 6)
    assert m.column(2) == (3, 6)
    assert m.columns() == [(1, 4), (2, 5), (3, 6)]
    assert IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)]) == m


def test_number_helpers():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    # gcd(e, q) as a totient sum over common divisors, spot check
    from math import gcd

    for e in (1, 4, 6, 12):
        for q in range(1, 30):
            assert gcd(e, q) == sum(euler_phi(d) for d in divisors(e) if q % d == 0)
