"""Value semantics shared by every value class: field-wise equality and hash,
immutability, pickle and deepcopy, and the ``Name(field=value, ...)`` repr."""

import copy
import pickle
from enum import IntEnum

import pytest

from qcp import (
    ArrangementInput,
    CollapseReport,
    CountingFormula,
    FamilyParams,
    IntMatrix,
    Polynomial,
    QuasiPolynomial,
    RootSubset,
    RootSystem,
    ValidationError,
    positive_roots,
)


def _quasi(last=1):
    return QuasiPolynomial(2, (Polynomial((-1, 1)), Polynomial((last, 1))))


def _report(q0=0):
    return CollapseReport(lcm_period=2, minimum_period=2, q0=q0, quasi_polynomial=_quasi())


def _root_system(type_tag="A"):
    a2 = positive_roots("A", 2)
    return RootSystem(
        type_tag, a2.rank, a2.positive_roots, a2.root_lengths, a2.highest_root_coeffs
    )


# class, field names in order, a builder of one value, and a builder of the
# same value with one field changed
CASES = [
    (IntMatrix, ("rows", "cols", "entries"),
     lambda: IntMatrix(2, 2, (1, 2, 3, 4)), lambda: IntMatrix(2, 2, (1, 2, 3, 5))),
    (Polynomial, ("coeffs",),
     lambda: Polynomial((1, 0, 1)), lambda: Polynomial((1, 1, 1))),
    (QuasiPolynomial, ("period", "constituents"), _quasi, lambda: _quasi(last=2)),
    (ArrangementInput, ("cmatrix", "offsets"),
     lambda: ArrangementInput(IntMatrix.from_rows([[1, 2]]), (0, 1)),
     lambda: ArrangementInput(IntMatrix.from_rows([[1, 2]]), (0, 2))),
    (CollapseReport,
     ("lcm_period", "minimum_period", "q0", "quasi_polynomial"),
     _report, lambda: _report(q0=1)),
    (CountingFormula, ("m", "period", "minimum_period", "weights"),
     lambda: CountingFormula(m=1, period=2, minimum_period=2, weights={1: {1: -1, 2: 1}}),
     lambda: CountingFormula(m=1, period=2, minimum_period=2, weights={1: {1: -1, 2: 2}})),
    (FamilyParams, ("kind", "m", "p", "s", "a"),
     lambda: FamilyParams("A", 2, 4, 2), lambda: FamilyParams("A", 2, 4)),
    (RootSystem, ("type_tag", "rank", "positive_roots", "root_lengths", "highest_root_coeffs"),
     _root_system, lambda: _root_system("X")),
    (RootSubset, ("parent", "included"),
     lambda: RootSubset.full(_root_system()), lambda: RootSubset(_root_system(), (0, 2))),
]


@pytest.mark.parametrize("cls,fields,make,changed", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, make, changed):
    value = make()
    assert type(value) is cls
    # equal arguments, equal values and hashes; the dict field of
    # CountingFormula leaves it unhashable
    assert value == make() and not value != make()
    if cls is CountingFormula:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(make())
        assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    # one changed field, and another class, make values unequal
    assert value != changed() and not value == changed()
    assert value.__eq__(object()) is NotImplemented
    # immutable
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()
    # the fields, in order, are the constructor's parameters
    assert cls(*(getattr(value, name) for name in fields)) == value
    assert cls(**{name: getattr(value, name) for name in fields}) == value
    # pickle and deepcopy restore an equal, still immutable value
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*copies, copy.deepcopy(value)):
        assert type(other) is cls and other == value
        with pytest.raises(AttributeError):
            setattr(other, fields[0], None)
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({body})"


def test_collapse_report_flags_are_derived():
    # collapse is read off the periods and gcd_property holds by
    # construction: neither is stored, and neither can be assigned
    report = _report()
    assert report.collapse is False and report.gcd_property is True
    collapsed = CollapseReport(lcm_period=2, minimum_period=1, q0=0, quasi_polynomial=_quasi())
    assert collapsed.collapse is True
    with pytest.raises(ValidationError, match="minimum period must divide the lcm period"):
        CollapseReport(lcm_period=2, minimum_period=3, q0=0, quasi_polynomial=_quasi())
    for name in ("collapse", "gcd_property"):
        assert name not in vars(report)
        with pytest.raises(AttributeError):
            setattr(report, name, not getattr(report, name))


@pytest.mark.parametrize("columns", [[(1,), (2, 3)], [(1, 2), (3,)]])
def test_ragged_columns_are_refused(columns):
    # neither the longer column is cut nor the shorter one read past its end
    with pytest.raises(ValidationError, match="all columns must have equal length"):
        IntMatrix.from_columns(columns)


class _Sign(IntEnum):
    MINUS = -1
    PLUS = 1


@pytest.mark.parametrize("bad", [True, False, 2.0, "3"])
def test_bad_entries_after_ints_are_named(bad):
    # the one type check over all entries falls back to the value-by-value
    # one, which names the first bad value as it always has
    with pytest.raises(ValidationError, match=f"^matrix entry must be an integer, got {bad!r}$"):
        IntMatrix(1, 3, (1, -2, bad))
    with pytest.raises(ValidationError, match=f"^matrix entry must be an integer, got {bad!r}$"):
        IntMatrix(1, 4, (1, bad, 5, 0.5))
    row = IntMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ValidationError, match=f"^offset must be an integer, got {bad!r}$"):
        ArrangementInput(row, (0, 4, bad))


def test_int_subclass_entries_are_accepted():
    matrix = IntMatrix(1, 3, (1, _Sign.MINUS, 4))
    assert matrix == IntMatrix(1, 3, (1, -1, 4))
    arr = ArrangementInput(matrix, (0, _Sign.PLUS, 2))
    assert arr.offsets == (0, 1, 2) and not arr.is_central
