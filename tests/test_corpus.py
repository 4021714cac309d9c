"""The committed corpus (tests/corpus.py) recomputed two ways: each input's
formula built alone, and every input's formula from one batch, where
central and non-central inputs of one shape walk together."""

from corpus import compute, corpus, differences, entry, load
from qcp import arrangement as arrangement_module
from qcp.arrangement import _formulas


def mismatches(expected, got) -> list[str]:
    assert len(got) == len(expected)
    return [want["name"] for want, have in zip(expected, got) if want != have]


def test_corpus_matches_its_file(monkeypatch):
    expected = load()
    items = corpus()
    assert [row["name"] for row in expected] == [name for name, _ in items]
    alone = compute()
    assert mismatches(expected, alone) == []
    # one batch: each term table is read where its formula is expanded
    tables = []
    expand = arrangement_module._expand

    def spy(arr, terms, rho, by_pairs):
        tables.append(terms)
        return expand(arr, terms, rho, by_pairs)

    monkeypatch.setattr(arrangement_module, "_expand", spy)
    formulas = list(_formulas([arr for _, arr in items]))
    batch = [entry(row["name"], terms, formula, row["q0"])
             for row, terms, formula in zip(alone, tables, formulas)]
    assert mismatches(expected, batch) == []


def test_differences_name_each_moved_field():
    old = [{"name": "a", "q0": 1, "terms": "x"}, {"name": "b", "q0": 0, "terms": "y"}]
    new = [{"name": "a", "q0": 2, "terms": "z"}, {"name": "c", "q0": 0, "terms": "y"}]
    assert differences(old, new) == ["a: q0 1 -> 2", "a: terms x -> z", "c: new entry",
                                     "b: entry gone"]
    assert differences(old, old) == []
