"""Brute-force counter and randomized central scans."""

import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interpolated_quasi_polynomial, totient_summary
from qcp import (
    ArrangementInput,
    BudgetExceededError,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    RootSubset,
    ValidationError,
    brute_force_count,
    central_period_summary,
    central_scan,
    family_matrix,
    generate_central_inputs,
    lcm_period,
    minimum_period,
    positive_roots,
    q_zero,
    shi_matrix,
)
from qcp import arrangement as arrangement_module
from qcp import oracle as oracle_module
from qcp.oracle import (_classes_mod, _count_scalar, _count_vectorized, _count_window,
                        _exact_classes)


def arrangement(columns, offsets):
    return ArrangementInput(IntMatrix.from_columns(columns), tuple(offsets))


def vectorized(arr, q):
    """The vectorized count at q alone, whatever the grid's size."""
    return _count_vectorized(_exact_classes(arr), arr.m, q)


def test_single_hyperplane():
    arr = arrangement([(1,)], (0,))
    assert brute_force_count(arr, 7) == 6


def test_family_a_122_hand_enumeration():
    # residues with 2z not in {0, 1, 2} mod 5 are exactly z in {2, 4}
    arr = arrangement([(2,), (2,), (2,)], (0, 1, 2))
    assert brute_force_count(arr, 5) == 2


def test_family_d_222_at_four():
    arr = arrangement([(1, 0), (0, 1), (1, 2), (1, 2)], (0, 0, 1, 2))
    assert brute_force_count(arr, 4) == 5


def test_budget_is_point_tests():
    # q^m * n = 5^2 * 3 point tests, charged before any counting
    arr = arrangement([(1, 0), (0, 1), (1, 1)], (0, 0, 1))
    assert brute_force_count(arr, 5, budget=75) == 13
    with pytest.raises(BudgetExceededError, match="needs 75 point tests"):
        brute_force_count(arr, 5, budget=74)


def test_budget_error_names_budget():
    arr = arrangement([(1, 0), (0, 1)], (0, 0))
    with pytest.raises(BudgetExceededError, match="budget of 10"):
        brute_force_count(arr, 5, budget=10)
    # the budget is an integer too: never a string, a bool or a float
    for bad in ("x", True, 1e8):
        with pytest.raises(ValidationError, match="budget must be an integer"):
            brute_force_count(arr, 5, budget=bad)


def test_rejects_nonpositive_q():
    arr = arrangement([(1,)], (0,))
    with pytest.raises(ValidationError):
        brute_force_count(arr, 0)
    # nothing is coerced: a bool or a float is no q
    for bad in (True, 2.0, 3.5):
        with pytest.raises(ValidationError, match="must be an integer"):
            brute_force_count(arr, bad)


def test_vectorized_and_scalar_paths_agree():
    arr = arrangement([(1, 2), (3, -1), (2, 2), (1, 2)], (0, 1, -2, 3))
    for q in range(1, 12):
        assert vectorized(arr, q) == _count_scalar(arr, q)


def test_huge_entries_take_the_big_integer_path():
    # entries are reduced mod q in Python before numpy sees them, so huge
    # entries run the vectorized path, exactly.
    # 2^61 is 2 mod 3 (2^2 is 1 mod 3), so only z = 0 is removed
    arr = arrangement([(2**61,)], (0,))
    assert brute_force_count(arr, 3) == 2
    assert brute_force_count(arr, 4) == 0  # 2^61 is 0 mod 4, the plane is everything
    big = arrangement([(2**63 + 5, -(2**64) - 1), (3 * 2**70, 1), (2**63, 2**63)], (2**65, -1, 7))
    for q in range(1, 10):
        assert vectorized(big, q) == _count_scalar(big, q)


_ENTRIES = st.one_of(
    st.integers(-4, 4), st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63))
)


# the largest q drawn for each m, so that the scalar count stays small
_Q_BOUND = {1: 24, 2: 9, 3: 5}


@st.composite
def grouped_arrangements(draw):
    """Columns from a pool of at most three, so coefficient classes repeat,
    and offsets base + k*q, so offsets of a class coincide mod q."""
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, _Q_BOUND[m]))
    pool = draw(
        st.lists(st.lists(_ENTRIES, min_size=m, max_size=m).filter(any), min_size=1, max_size=3)
    )
    planes = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), _ENTRIES, st.integers(-2, 2)), min_size=1, max_size=6
        )
    )
    cols = [col for col, _, _ in planes]
    offsets = [base + k * q for _, base, k in planes]
    return arrangement(cols, offsets), q


@given(grouped_arrangements())
@example((arrangement([(1, 2), (1, 2), (1, 2)], (0, 5, 10)), 5))
@example((arrangement([(-3,), (2**64 - 3,)], (2**66, 1)), 7))
@example((arrangement([(1, 2), (3, -1)], (0, 5)), 1))  # q = 1: the grid is one point
@example((arrangement([(2, 1, 0)], (0,)), 1))
# one class whose offsets cover every residue, so no point survives
@example((arrangement([(1, 2), (1, 2), (1, 2)], (0, 1, 5)), 3))
@example((arrangement([(3, 1), (3, 1), (3, 1), (1, 1)], (0, 1, 2, 0)), 3))
@example((arrangement([(2,), (2,), (5,)], (0, 1, 0)), 2))
# coefficients 0 mod q on the first, a middle and the last axis
@example((arrangement([(7, 1, 14), (1, 0, 7), (3, 7, 2), (1, 1, 1)], (0, 1, 2, 3)), 7))
@settings(max_examples=150, deadline=None)
def test_vectorized_matches_scalar_on_grouped_classes(case):
    arr, q = case
    assert vectorized(arr, q) == _count_scalar(arr, q)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_COMPOSITES = (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24)


@st.composite
def grouped_windows(draw):
    """A grouped arrangement with several q to count it at: the draw's own
    q, a prime, a composite and up to three more, in any order."""
    arr, q = draw(grouped_arrangements())
    bound = _Q_BOUND[arr.m]
    prime = draw(st.sampled_from([p for p in _PRIMES if p <= bound]))
    composite = draw(st.sampled_from([c for c in _COMPOSITES if c <= bound]))
    more = draw(st.lists(st.integers(1, bound), max_size=3))
    return arr, [q, prime, composite, *more]


@given(grouped_windows())
# last coefficient 3, a unit other than 1 mod 7: the class is rescaled by 5
@example((arrangement([(1, 3), (2, 1)], (2, 4)), [7]))
# every axis has a coefficient 2, no unit mod 4 or 8: (1, 2) and (2, 2)
# gather the last axis
@example((arrangement([(1, 2), (2, 1), (2, 2)], (1, 3, 0)), [4, 8]))
# last coefficient 0 on both classes
@example((arrangement([(1, 0), (2, 0)], (1, 3)), [4, 5]))
# (1, 3) and (2, 6) are both (5, 1) once rescaled mod 7, with offsets 0 and 6
@example((arrangement([(1, 3), (2, 6)], (0, 1)), [7]))
@example((arrangement([(3,), (-2,), (6,)], (1, 0, 5)), [7, 12, 1]))  # m = 1
# m = 3: mod 8 the third axis has no unit or 0, so the second becomes the last
@example((arrangement([(1, 1, 2), (3, 1, 4), (0, 1, 6)], (0, 5, 3)), [8, 4, 5]))
@settings(max_examples=150, deadline=None)
def test_window_matches_scalar_at_every_q(case):
    arr, qs = case
    assert _count_window(arr, qs) == [_count_scalar(arr, q) for q in qs]
    # a last coefficient that is a unit is rescaled to 1, so it needs no gather
    for q in qs:
        for col in _classes_mod(_exact_classes(arr), arr.m, q):
            assert col[-1] == 1 % q or gcd(col[-1], q) != 1, (q, col)


# columns with a repeat, so one class has two offsets
_BLOCK_COLUMNS = {
    1: [(1,), (3,), (3,), (-2,)],
    2: [(1, 2), (3, -1), (3, -1), (2, 2)],
    3: [(1, 2, 0), (3, -1, 1), (3, -1, 1), (2, 2, -1)],
}


@pytest.mark.parametrize(
    "m, cap, block, qs",
    [
        (1, 12, None, range(13, 40)),
        (2, 12, None, range(4, 13)),
        (3, 12, None, (3,)),
        # m = 3 in blocks of 2, 2, 2 and 1, and of 2 and 1 first coordinates
        (3, 98, None, (7,)),
        (3, 20, None, (3,)),
        # the block size apart from the cap: blocks of 12 or 20 cells under
        # the default cap, blocks of one slice when a slice outgrows the
        # block, and blocks of 49 cells under a cap of 98
        (1, None, 12, range(13, 40)),
        (2, None, 12, range(4, 13)),
        (3, None, 20, (3,)),
        (2, None, 3, (5, 7)),
        (3, 98, 49, (7,)),
    ],
    ids=[
        "1-qs0", "2-qs1", "3-qs2", "3-qs3", "3-qs4",  # m and the q range, as listed
        "1-block12", "2-block12", "3-block20", "2-slice-past-block", "3-block-under-cap",
    ],
)
def test_blocked_count_matches_scalar_past_the_cap(monkeypatch, m, cap, block, qs):
    # every q here has a grid past the block size but a slice q^(m-1) within
    # the cap, so the grid is counted in several blocks
    if cap is not None:
        monkeypatch.setattr(oracle_module, "_NUMPY_CELL_CAP", cap)
    if block is not None:
        monkeypatch.setattr(oracle_module, "_BLOCK_CELLS", block)
    cap = oracle_module._NUMPY_CELL_CAP
    size = min(oracle_module._BLOCK_CELLS, cap)
    arr = arrangement(_BLOCK_COLUMNS[m], (0, 1, -4, 5))
    expected = {q: _count_scalar(arr, q) for q in qs}

    def no_scalar(*args):
        raise AssertionError("the point-by-point path ran")

    monkeypatch.setattr(oracle_module, "_count_scalar", no_scalar)
    for q in qs:
        assert q**m > size and cap >= q ** (m - 1)
        # the whole grid is still charged, q^m * n point tests, up front
        assert brute_force_count(arr, q, budget=q**m * 4) == expected[q]
        with pytest.raises(BudgetExceededError):
            brute_force_count(arr, q, budget=q**m * 4 - 1)


@pytest.mark.parametrize(
    "m, q, bytes_per_cell", [(2, 400, 5), (3, 40, 5), (1, 1 << 16, 34.1), (3, 41, 2.6)]
)
def test_vectorized_count_peak_memory_per_cell(m, q, bytes_per_cell):
    # numpy reports its allocations to tracemalloc, so the traced peak covers
    # every array the count builds.  For m >= 2 a block holds at most three
    # bool arrays and u; an int64 c.z over the grid alone would be 8 bytes a
    # cell.  For m = 1 the first-axis residues are int64 and the count reads
    # about 20 bytes a cell; building c.z over the grid read 34.0.  At the
    # prime 41 every last coefficient is 0 or a unit, so no class gathers
    # the last axis: 2.3 bytes a cell, where a gather per class read 3.1.
    arr = arrangement(_BLOCK_COLUMNS[m], (0, 1, -4, 5))
    vectorized(arr, 5)  # the first call imports numpy; keep that out of the peak
    tracemalloc.start()
    try:
        vectorized(arr, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / q**m <= bytes_per_cell


@pytest.mark.parametrize("q", [997, 1000, 2000, 2003])
@pytest.mark.parametrize(
    "arr",
    [shi_matrix(RootSubset.full(positive_roots("G2", 2)), 1),
     family_matrix(FamilyParams("A", 2, 10, 5))],
    ids=["shi-G2-k1", "family-A-2-10-5"],
)
def test_formula_matches_brute_force_on_large_grids(arr, q):
    # grids of 10^6 to 4*10^6 cells, counted in many blocks, far above q0
    assert q > q_zero(arr)
    assert CountingFormula.of(arr).count(q) == brute_force_count(arr, q)


def test_scalar_count_only_past_a_slice(monkeypatch, count_calls):
    # m = 3, q = 4: one slice holds 16 cells, past a cap of 12
    monkeypatch.setattr(oracle_module, "_NUMPY_CELL_CAP", 12)
    arr = arrangement(_BLOCK_COLUMNS[3], (0, 1, -4, 5))
    calls = count_calls(oracle_module, "_count_scalar")
    assert brute_force_count(arr, 4) == _count_scalar(arr, 4)
    assert calls["_count_scalar"] == 1


def test_count_invariant_under_hyperplane_permutation():
    cols = [(1, 2), (3, 1), (2, 2)]
    offs = (1, 0, 2)
    arr = arrangement(cols, offs)
    perm = arrangement([cols[2], cols[0], cols[1]], (offs[2], offs[0], offs[1]))
    for q in (2, 3, 5, 8):
        assert brute_force_count(arr, q) == brute_force_count(perm, q)


def _mat_vec(rows, col):
    return tuple(sum(r[i] * col[i] for i in range(len(col))) for r in rows)


def test_count_invariant_under_unimodular_coordinates_central():
    # z -> z U is a bijection of (Z/q)^m, so replacing each column c by U c
    # preserves the central count
    cols = [(1, 2), (3, 1), (2, 2)]
    arr = arrangement(cols, (0, 0, 0))
    for uni in ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [4, -1]]):
        image = arrangement([_mat_vec(uni, c) for c in cols], (0, 0, 0))
        for q in (2, 3, 5, 7, 9):
            assert brute_force_count(arr, q) == brute_force_count(image, q)


def test_generate_central_inputs_deterministic():
    a = generate_central_inputs(m=2, n=3, entry_bound=4, trials=5, seed=42)
    b = generate_central_inputs(m=2, n=3, entry_bound=4, trials=5, seed=42)
    c = generate_central_inputs(m=2, n=3, entry_bound=4, trials=5, seed=43)
    assert a == b
    assert a != c
    for arr in a:
        assert arr.is_central
        assert all(any(arr.cmatrix.column(j)) for j in range(arr.n))


def test_central_scan_empty():
    report = central_scan(m=2, n=2, entry_bound=3, trials=0, seed=1)
    assert report.trials == 0
    assert report.violations == ()
    assert report.seed == 1
    assert report.generator


def test_central_scan_no_violations():
    report = central_scan(m=2, n=4, entry_bound=5, trials=200, seed=42)
    assert report.trials == 200
    assert report.violations == ()
    report = central_scan(m=3, n=5, entry_bound=3, trials=100, seed=7)
    assert report.violations == ()


def test_central_scan_shares_chains_and_weights(count_calls):
    # the 60 draws of `qcp scan-central --m 3 --n 6 --entry-bound 5 --trials
    # 60 --seed 1`: walks of their own read 1,591 chains and expand 1,246
    # weight sets, but only 252 and 219 are distinct
    calls = count_calls(arrangement_module, "_divisor_chain", "_indicator_weights")
    central_scan(3, 6, 5, 60, 1)
    assert calls == {"_divisor_chain": 252, "_indicator_weights": 219}


def test_central_scan_reproducible():
    a = central_scan(m=3, n=5, entry_bound=3, trials=20, seed=7)
    b = central_scan(m=3, n=5, entry_bound=3, trials=20, seed=7)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_scan_summary_matches_interpolation_on_small_periods():
    checked = 0
    for arr in generate_central_inputs(m=2, n=4, entry_bound=5, trials=200, seed=42):
        if lcm_period(arr.cmatrix) > 60:
            continue
        summary = central_period_summary(arr)
        assert summary == totient_summary(arr)
        qp = interpolated_quasi_polynomial(arr)
        assert summary == (qp.period, minimum_period(qp))
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize(
    "name, bad, match",
    [
        ("m", True, "must be an integer"),
        ("n", 3.0, "must be an integer"),
        ("entry_bound", "2", "must be an integer"),
        ("trials", 2.0, "must be an integer"),
        ("trials", False, "must be an integer"),
        # True would draw the sample of seed 1 and report "seed": true
        ("seed", True, "must be an integer"),
        ("seed", 2.5, "must be an integer"),
        ("m", 0, "must be positive"),
        ("entry_bound", -1, "must be positive"),
        ("trials", -1, "nonnegative"),
    ],
)
def test_central_scan_rejects_bad_arguments(name, bad, match):
    args = {"m": 2, "n": 3, "entry_bound": 2, "trials": 2, "seed": 1, name: bad}
    with pytest.raises(ValidationError, match=match):
        central_scan(**args)
    with pytest.raises(ValidationError, match=match):
        generate_central_inputs(**args)


def test_central_scan_budget_guard():
    with pytest.raises(BudgetExceededError):
        central_scan(m=2, n=30, entry_bound=2, trials=10, seed=0)
    with pytest.raises(ValidationError, match="budget must be an integer"):
        central_scan(m=2, n=3, entry_bound=2, trials=2, seed=1, budget=2.5e9)


def test_central_scan_budget_charges_nonempty_subsets():
    cost = 7 * (2**4 - 1)
    report = central_scan(m=2, n=4, entry_bound=3, trials=7, seed=5, budget=cost)
    assert report.trials == 7
    with pytest.raises(BudgetExceededError, match=f"needs up to {cost} subsets"):
        central_scan(m=2, n=4, entry_bound=3, trials=7, seed=5, budget=cost - 1)


def test_formula_matches_oracle_on_scanned_inputs():
    for arr in generate_central_inputs(m=2, n=3, entry_bound=3, trials=10, seed=9):
        formula = CountingFormula.of(arr)
        for q in range(1, 8):
            assert formula.count(q) == brute_force_count(arr, q)
        assert q_zero(arr) == 0
