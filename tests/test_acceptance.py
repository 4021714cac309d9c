"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each criterion prints a PASS or FAIL line; run with ``pytest -s`` to see
them live.  Shared artifacts (the staircase-family grid, root-system
reports, central scans) are computed once in module-scoped fixtures, and
criterion 8 audits the gcd property across every quasi-polynomial they
produced.
"""

import functools
import random
from math import comb, gcd

import pytest

from conftest import (bases_lcm_period, closed_form_A, divisor_formula_count_naive,
                      ehrhart_form_A, reciprocity_A, roots_of_length, with_period)
from qcp import (
    ArrangementInput,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    Polynomial,
    brute_force_count,
    central_scan,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    family_matrix,
    generate_central_inputs,
    has_gcd_property,
    q_zero,
    RootSubset,
    shi_matrix,
    linial_matrix,
    positive_roots,
)
from qcp.oracle import DEFAULT_BUDGET

SCAN_SEED = 20260808


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


def family_a_grid():
    for m in (1, 2, 3):
        for p in range(1, 7):
            for s in range(1, p + 1):
                if p % s == 0:
                    yield m, p, s


def power_poly(c, m):
    """Coefficients of (t - c)^m, constant term first."""
    return Polynomial(tuple(comb(m, j) * (-c) ** (m - j) for j in range(m + 1)))


@pytest.fixture(scope="module")
def family_grid_reports():
    grid = {}
    for m, p, s in family_a_grid():
        arr = family_matrix(FamilyParams(kind="A", m=m, p=p, s=s))
        grid[(m, p, s)] = (arr, collapse_report(arr))
    return grid


@pytest.fixture(scope="module")
def root_system_reports():
    reports = {}

    def add(label, arr):
        reports[label] = collapse_report(arr)

    a2 = positive_roots("A", 2)
    a3 = positive_roots("A", 3)
    b2 = positive_roots("B", 2)
    b3 = positive_roots("B", 3)
    g2 = positive_roots("G2", 2)
    for system, ks in ((a2, (1, 2)), (a3, (1, 2)), (b2, (1, 2)), (g2, (1, 2)), (b3, (1,))):
        # b3 with k = 2: the walk offers only 13,068 subsets, but the report
        # still takes seconds, mostly in q_zero; out of suite budget
        for k in ks:
            add((system.type_tag, system.rank, "full", k), shi_matrix(RootSubset.full(system), k))
    for root in roots_of_length(b2, "short"):
        for k in (1, 2):
            add(("B2-short", root, k), shi_matrix(RootSubset.excluding(b2, root), k))
    for root in roots_of_length(b2, "long"):
        for k in (1, 2):
            add(("B2-long", root, k), shi_matrix(RootSubset.excluding(b2, root), k))
    for root in roots_of_length(g2, "short"):
        add(("G2-short", root, 1), shi_matrix(RootSubset.excluding(g2, root), 1))
    for k in (1, 3):
        add(("G2-alpha2", k), shi_matrix(RootSubset.excluding(g2, (0, 1)), k))
    return reports


@pytest.fixture(scope="module")
def linial_quasi_polynomials():
    cases = []
    for type_tag, rank, n_values in (("A", 2, (1, 2)), ("B", 2, (1, 2, 3)), ("G2", 2, (1, 2))):
        system = positive_roots(type_tag, rank)
        rho = bases_lcm_period(IntMatrix.from_columns(system.positive_roots))
        for n in n_values:
            arr = linial_matrix(RootSubset.full(system), n)
            cases.append((type_tag, n, rho, characteristic_quasi_polynomial(arr)))
    return cases


@pytest.fixture(scope="module")
def identity_quasi_polynomials():
    produced = []
    for m in (2, 3):
        for p in (2, 4):
            for s in range(1, p + 1):
                if p % s:
                    continue
                qa = characteristic_quasi_polynomial(
                    family_matrix(FamilyParams(kind="A", m=m, p=p, s=s))
                )
                qb = characteristic_quasi_polynomial(
                    family_matrix(FamilyParams(kind="B", m=m, p=p, s=s))
                )
                produced.append(((m, p, s), qa, qb))
    return produced


@pytest.fixture(scope="module")
def central_scan_results():
    scanned = 0
    audited = []
    seed = SCAN_SEED
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4, 5):
            # a scan returns only when no draw's formula finds a central collapse
            assert central_scan(m=m, n=n, entry_bound=5, trials=20, seed=seed) is None
            for arr in generate_central_inputs(m=m, n=n, entry_bound=5, trials=20, seed=seed):
                scanned += 1
                if len(audited) < 60 and bases_lcm_period(arr.cmatrix) <= 200:
                    audited.append(characteristic_quasi_polynomial(arr))
            seed += 1
    return scanned, audited


@criterion(1, "oracle equivalence on the staircase-family grid")
def test_criterion_1(family_grid_reports):
    checked = 0
    for (m, p, s), (arr, report) in family_grid_reports.items():
        threshold = report.q0
        formula = CountingFormula.of(arr)
        for q in range(threshold + 1, threshold + 2 * p + 6):
            if q**m * arr.n > DEFAULT_BUDGET:
                assert m > 2, "small dimensions must stay within budget"
                continue
            assert formula.count(q) == brute_force_count(arr, q), (m, p, s, q)
            checked += 1
    assert checked >= 500


@criterion(2, "lcm/minimum periods and the closed form on the grid")
def test_criterion_2(family_grid_reports):
    for (m, p, s), (arr, report) in family_grid_reports.items():
        assert report.lcm_period == p, (m, p, s)
        assert report.minimum_period == s, (m, p, s)
        assert report.collapse == (s < p)
        expanded = with_period(closed_form_A(m, p, s), p)
        assert expanded.constituents == report.quasi_polynomial.constituents, (m, p, s)


@criterion(3, "five lattice points at q = 4 for the kind-D example")
def test_criterion_3():
    arr = family_matrix(FamilyParams(kind="D", m=2, p=2, a=2))
    assert brute_force_count(arr, 4) == 5
    assert divisor_formula_count(arr, 4) == 5


@criterion(4, "product form and reciprocity identities")
def test_criterion_4(family_grid_reports):
    for (m, p, s), (arr, report) in family_grid_reports.items():
        threshold = report.q0
        formula = CountingFormula.of(arr)
        for q in range(threshold + 1, threshold + 2 * p + 6):
            assert ehrhart_form_A(m, p, s, q) == formula.count(q), (m, p, s, q)
        closed = closed_form_A(m, p, s)
        for q in range(1, 11):
            constituent = closed.constituent_for_class((q - 1) % s + 1)
            mirrored = constituent.evaluate(-q)
            if m % 2:
                mirrored = -mirrored
            assert mirrored == reciprocity_A(m, p, s, q), (m, p, s, q)


@criterion(5, "kind-B and kind-Aprime difference identities")
def test_criterion_5(identity_quasi_polynomials):
    for (m, p, s), qa, qb in identity_quasi_polynomials:
        assert qa.period == qb.period == p
        arr_a = family_matrix(FamilyParams(kind="A", m=m, p=p, s=s))
        arr_b = family_matrix(FamilyParams(kind="B", m=m, p=p, s=s))
        window_top = max(q_zero(arr_a), q_zero(arr_b)) + 2 * p + 5
        for q in range(1, window_top + 1):
            diff = gcd(q, s) if m % 2 == 0 else -gcd(q, s)
            assert qa.evaluate(q) - qb.evaluate(q) == diff, (m, p, s, q)
    for m in (1, 2):
        for p in (2, 4):
            for s in (1, 2):
                qa = characteristic_quasi_polynomial(
                    family_matrix(FamilyParams(kind="A", m=m, p=p, s=s))
                )
                for a in (1, 2, 3, p):
                    arr = family_matrix(FamilyParams(kind="Aprime", m=m, p=p, s=s, a=a))
                    qprime = characteristic_quasi_polynomial(arr)
                    for q in range(1, q_zero(arr) + 2 * p + 6):
                        g = gcd(q, a)
                        expected = p - g * sum(1 for r in range(1, p + 1) if r % g == 0)
                        if m % 2:
                            expected = -expected
                        assert qa.evaluate(q) - qprime.evaluate(q) == expected, (m, p, s, a, q)
                    if a in (1, p):
                        common = qa.period * qprime.period // gcd(qa.period, qprime.period)
                        assert (
                            with_period(qa, common).constituents
                            == with_period(qprime, common).constituents
                        )


@criterion(6, "Shi and deleted-root period data for A2/A3/B2/B3/G2")
def test_criterion_6(root_system_reports, linial_quasi_polynomials):
    heights = {"A": {2: 3, 3: 4}, "B": {2: 4, 3: 6}, "G2": {2: 6}}
    for label, report in root_system_reports.items():
        if len(label) == 4 and label[2] == "full":
            type_tag, rank, _, k = label
            h = heights[type_tag][rank]
            expected = power_poly(k * h, rank)
            assert all(c == expected for c in report.quasi_polynomial.constituents), label
            assert report.minimum_period == 1
    for label, report in root_system_reports.items():
        kind = label[0]
        if kind == "B2-short":
            k = label[2]
            assert report.lcm_period == 2 and report.minimum_period == 1, label
            assert report.collapse
            expected = Polynomial((10 * k * k, -6 * k, 1))
            assert all(c == expected for c in report.quasi_polynomial.constituents), label
        elif kind == "B2-long":
            k = label[2]
            assert report.lcm_period == 1, label
            expected = Polynomial((9 * k * k, -6 * k, 1))
            assert report.quasi_polynomial.constituents == (expected,), label
        elif kind == "G2-short":
            assert report.lcm_period == 6 and report.minimum_period == 1, label
            assert report.collapse
            expected = Polynomial((27, -10, 1))
            assert all(c == expected for c in report.quasi_polynomial.constituents), label
    one = root_system_reports[("G2-alpha2", 1)]
    assert one.lcm_period == 6 and one.minimum_period == 3 and one.collapse
    coprime, multiple = Polynomial((26, -10, 1)), Polynomial((25, -10, 1))
    for k in range(1, 7):
        want = multiple if k % 3 == 0 else coprime
        assert one.quasi_polynomial.constituent_for_class(k) == want, k
    three = root_system_reports[("G2-alpha2", 3)]
    assert three.lcm_period == 6 and three.minimum_period == 1 and three.collapse
    assert all(
        c == Polynomial((231, -30, 1)) for c in three.quasi_polynomial.constituents
    )
    # staircase-height periodicity for the Linial variant
    for type_tag, n, rho, qp in linial_quasi_polynomials:
        g = gcd(n + 1, rho)
        assert qp.period % g == 0
        for k in range(1, qp.period + 1):
            base = qp.constituent_for_class(((k - 1) % g) + 1)
            assert qp.constituent_for_class(k) == base, (type_tag, n, k)


@criterion(7, "no period collapse across 300 random central arrangements")
def test_criterion_7(central_scan_results):
    scanned, _ = central_scan_results
    assert scanned == 300


@criterion(8, "gcd-property audit over every produced quasi-polynomial")
def test_criterion_8(
    family_grid_reports,
    root_system_reports,
    linial_quasi_polynomials,
    identity_quasi_polynomials,
    central_scan_results,
):
    audited = 0
    for _, report in family_grid_reports.values():
        assert has_gcd_property(report.quasi_polynomial)
        assert report.gcd_property
        audited += 1
    for report in root_system_reports.values():
        assert has_gcd_property(report.quasi_polynomial)
        audited += 1
    for _, _, _, qp in linial_quasi_polynomials:
        assert has_gcd_property(qp)
        audited += 1
    for _, qa, qb in identity_quasi_polynomials:
        assert has_gcd_property(qa) and has_gcd_property(qb)
        audited += 2
    _, central_qps = central_scan_results
    assert central_qps, "expected some materializable central trials"
    for qp in central_qps:
        assert has_gcd_property(qp)
        audited += 1
    assert audited >= 100


@criterion(9, "grouped enumerator matches the naive enumerator")
def test_criterion_9():
    rng = random.Random(97)
    for trial in range(20):
        m = rng.randint(1, 3)
        n = rng.randint(8, 12)
        cols = []
        offsets = []
        for _ in range(n):
            if cols and rng.random() < 0.3:
                # duplicated coefficient column, sometimes the whole column
                j = rng.randrange(len(cols))
                cols.append(cols[j])
                offsets.append(offsets[j] if rng.random() < 0.5 else rng.randint(-3, 3))
                continue
            while True:
                col = tuple(rng.randint(-4, 4) for _ in range(m))
                if any(col):
                    break
            cols.append(col)
            offsets.append(rng.randint(-3, 3))
        arr = ArrangementInput(IntMatrix.from_columns(cols), tuple(offsets))
        formula = CountingFormula.of(arr)
        for q in sorted(rng.sample(range(2, 14), 3)):
            assert formula.count(q) == divisor_formula_count_naive(arr, q), (
                trial,
                q,
            )
