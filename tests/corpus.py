"""A fixed differential corpus for the counting formula, and its results file.

``corpus()`` builds the same inputs on every run, from fixed parameters and
seeds: Shi and Linial arrangements of rank at most 3 with every root
deleted, a grid of the four families, sublattice and rank-deficient input,
random input with repeated columns and zero offsets, and ``scan-central``
draws.  ``tests/data/corpus.json`` holds, per input, its lcm period, its
minimum period, q0 and a sha256 of its term table in table order (a
formula's factoring budget is spent term by term, so the order is a result
too).  ``tests/test_corpus.py`` recomputes every entry and compares.

Run as a script to regenerate the file.  Before it writes, every entry is
checked against the oracles of ``conftest``: the term table against
``unpruned_term_table``, the lcm period against ``bases_lcm_period``, q0
against ``oracle_q_zero`` where the input has at most ORACLE_Q_ZERO_COLUMNS
columns (that oracle reads every subset by cofactor expansion), and the
formula against ``brute_force_count`` at q0 + 1, q0 + 2 and q0 + 3 where
that costs at most BRUTE_FORCE_POINTS point tests.  The script prints how
many entries each oracle checked::

    PYTHONPATH=src:tests python tests/corpus.py           # check only
    PYTHONPATH=src:tests python tests/corpus.py --write   # check, then write

Check mode prints each differing field of each entry with its old and
new value.  A change that regenerates the file says which fields moved and
why: a results field that moves is a finding.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from qcp import (
    ArrangementInput,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    RootSubset,
    brute_force_count,
    family_matrix,
    generate_central_inputs,
    linial_matrix,
    positive_roots,
    q_zero,
    shi_matrix,
)
from qcp.arrangement import _build_term_table

DATA = Path(__file__).parent / "data" / "corpus.json"

# oracle_q_zero reads all 2^n column subsets, each by cofactor expansion
ORACLE_Q_ZERO_COLUMNS = 12
# point tests the brute-force check of one entry may take, for q0 + 1..q0 + 3
BRUTE_FORCE_POINTS = 10**8


def _roots_deleted(name, build, type_tag, rank, param):
    system = positive_roots(type_tag, rank)
    yield f"{name} {type_tag}{rank} {param} full", build(RootSubset.full(system), param)
    for root in system.positive_roots:
        label = ",".join(map(str, root))
        yield (f"{name} {type_tag}{rank} {param} -({label})",
               build(RootSubset.excluding(system, root), param))


def _root_arrangements():
    for type_tag, rank in (("A", 2), ("B", 2), ("C", 2), ("G2", 2)):
        for k in (1, 2):
            yield from _roots_deleted("shi", shi_matrix, type_tag, rank, k)
            yield from _roots_deleted("linial", linial_matrix, type_tag, rank, k)
    for type_tag in ("A", "B", "C"):
        yield from _roots_deleted("shi", shi_matrix, type_tag, 3, 1)
        yield from _roots_deleted("linial", linial_matrix, type_tag, 3, 1)


def _family_grid():
    for m in (1, 2, 3):
        for p in range(1, 9):
            for s in (d for d in range(1, p + 1) if p % d == 0):
                yield f"family A m={m} p={p} s={s}", FamilyParams("A", m, p, s=s)
                if m >= 2 and p >= 2:
                    yield f"family B m={m} p={p} s={s}", FamilyParams("B", m, p, s=s)
            for s, a in ((2, 3), (3, 2), (2, 5)):
                yield f"family Aprime m={m} p={p} s={s} a={a}", FamilyParams(
                    "Aprime", m, p, s=s, a=a)
            for a in (2, 3, 5):
                yield f"family D m={m} p={p} a={a}", FamilyParams("D", m, p, a=a)


def _arrangement(cols, offsets) -> ArrangementInput:
    return ArrangementInput(IntMatrix.from_columns(cols), tuple(offsets))


def _offsets(rng, n):
    """Offsets in [-3, 3], each 0 with probability 0.4."""
    return [0 if rng.random() < 0.4 else rng.randint(-3, 3) for _ in range(n)]


def _random(rng):
    """m <= 4 rows, n <= 7 columns with entries in [-4, 4], some repeated."""
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    cols = []
    while len(cols) < n:
        if cols and rng.random() < 0.3:
            cols.append(rng.choice(cols))
        else:
            col = [rng.randint(-4, 4) for _ in range(m)]
            if any(col):
                cols.append(col)
    offsets = _offsets(rng, n)
    if rng.random() < 0.25:
        offsets = [0] * n
    return _arrangement(cols, offsets)


def _sublattice(rng):
    """Columns B.x in a proper sublattice of Z^m (B = U.diag.L, |det B| in
    {2, 3, 4}) or with an even coordinate sum, so d_k stays above 1."""
    m, n = rng.randint(2, 4), rng.randint(1, 6)
    xs = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.5:
        diag = (rng.choice([(2,), (3,), (4,), (2, 2)]) + (1,) * m)[:m]
        upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)]
                 for i in range(m)]
        lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(m)]
                 for i in range(m)]
        basis = [[sum(upper[i][t] * diag[t] * lower[t][j] for t in range(m))
                  for j in range(m)] for i in range(m)]
        cols = [[sum(basis[i][j] * x[j] for j in range(m)) for i in range(m)] for x in xs]
    else:
        cols = [[x[0] + sum(x) % 2, *x[1:]] for x in xs]
    cols = [c for c in cols if any(c)] or [[2] + [0] * (m - 1)]
    if rng.random() < 0.5:
        cols.append(rng.choice(cols))
    offsets = [0] * len(cols) if rng.random() < 0.4 else _offsets(rng, len(cols))
    return _arrangement(cols, offsets)


def _rank_deficient(rng):
    """m - 1 free rows in [-3, 3], and a last row that is their sum."""
    m, n = rng.randint(2, 4), rng.randint(1, 6)
    cols = []
    while len(cols) < n:
        free = [rng.randint(-3, 3) for _ in range(m - 1)]
        if any(free):
            cols.append(free + [sum(free)])
    if rng.random() < 0.3:
        cols.append(rng.choice(cols))
    return _arrangement(cols, _offsets(rng, len(cols)))


def corpus() -> list[tuple[str, ArrangementInput]]:
    """Every (name, arrangement) of the corpus, in a fixed order."""
    out = list(_root_arrangements())
    out += [(name, family_matrix(params)) for name, params in _family_grid()]
    for kind, make, count, seed in (("random", _random, 200, 10),
                                    ("sublattice", _sublattice, 80, 11),
                                    ("rank-deficient", _rank_deficient, 60, 12)):
        rng = random.Random(seed)
        out += [(f"{kind} {i}", make(rng)) for i in range(count)]
    for m, n, bound, seed in ((3, 6, 5, 1), (3, 6, 5, 2), (2, 5, 4, 3), (4, 5, 2, 4)):
        draws = generate_central_inputs(m, n, bound, 30, seed)
        out += [(f"scan m={m} n={n} bound={bound} seed={seed} #{i}", arr)
                for i, arr in enumerate(draws)]
    return out


def term_digest(terms: dict) -> str:
    """sha256 of a term table, its entries in table order."""
    rows = [[rank, [list(p) for p in pairs], coef] for (rank, pairs), coef in terms.items()]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def entry(name, terms, formula, q0) -> dict:
    return {"name": name, "lcm_period": formula.period,
            "minimum_period": formula.minimum_period, "q0": q0, "terms": term_digest(terms)}


def compute() -> list[dict]:
    """Every entry of the file, each input's formula built alone."""
    return [entry(name, _build_term_table(arr)[0], CountingFormula.of(arr), q_zero(arr))
            for name, arr in corpus()]


def load() -> list[dict]:
    return json.loads(DATA.read_text())


def dump(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def _check(name, arr, row) -> set:
    """Check one entry against the oracles of conftest, raising on a
    mismatch; return the names of the oracles it was checked against."""
    from conftest import bases_lcm_period, oracle_q_zero, unpruned_term_table

    terms, rho = _build_term_table(arr)
    assert terms == unpruned_term_table(arr), name
    assert rho == row["lcm_period"] == bases_lcm_period(arr.cmatrix), name
    checked = {"unpruned_term_table", "bases_lcm_period"}
    if arr.n <= ORACLE_Q_ZERO_COLUMNS:
        cols = [list(arr.cmatrix.column(j)) for j in range(arr.n)]
        assert row["q0"] == oracle_q_zero(cols, arr.offsets), name
        checked.add("oracle_q_zero")
    qs = range(row["q0"] + 1, row["q0"] + 4)
    if sum(q**arr.m * arr.n for q in qs) <= BRUTE_FORCE_POINTS:
        formula = CountingFormula.of(arr)
        for q in qs:
            assert formula.count(q) == brute_force_count(arr, q), (name, q)
        checked.add("brute_force_count")
    return checked


def main(argv) -> int:
    entries = compute()
    checked = Counter()
    for (name, arr), row in zip(corpus(), entries):
        checked.update(_check(name, arr, row))
    print(f"{len(entries)} entries checked:",
          ", ".join(f"{count} against {oracle}" for oracle, count in checked.items()))
    if "--write" in argv:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(dump(entries))
        print(f"wrote {DATA}")
    elif DATA.exists() and load() != entries:
        print(f"{DATA} differs from the recomputed entries:")
        print("\n".join(differences(load(), entries)) or "the same entries in another order")
        return 1
    return 0


def differences(old, new) -> list[str]:
    """A line per field that differs between two lists of entries, matched
    by name, with its old and new value, and a line per unmatched name."""
    before = {row["name"]: row for row in old}
    lines = []
    for row in new:
        was = before.pop(row["name"], None)
        if was is None:
            lines.append(f"{row['name']}: new entry")
            continue
        lines += [f"{row['name']}: {field} {was.get(field)} -> {value}"
                  for field, value in row.items() if was.get(field) != value]
    return lines + [f"{name}: entry gone" for name in before]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
