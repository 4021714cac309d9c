"""Quasi-polynomials with exact integer constituents.

A quasi-polynomial of period ``rho`` is a list of ``rho`` polynomials
f^1, ..., f^rho; its value at a positive integer q is f^k(q) where k is the
residue class of q, with classes numbered 1..rho and class rho standing for
q divisible by rho.

``CountingFormula`` (arrangement.py) builds constituents in closed form.  No
command calls ``minimum_period`` or ``has_gcd_property``: they compare
constituents class by class, to audit what the formula builds.
"""

from __future__ import annotations

from math import gcd

from .errors import ValidationError
from .intlinalg import _require_int, _Value

__all__ = [
    "Polynomial",
    "QuasiPolynomial",
    "minimum_period",
    "has_gcd_property",
]


class Polynomial(_Value):
    """Integer polynomial, coefficients constant-term first, trailing zeros stripped."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            _require_int("polynomial coefficient", c)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.__dict__.update(coeffs=tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class QuasiPolynomial(_Value):
    """Periodic family of monic integer polynomials of a common degree.

    ``constituents[k - 1]`` is the polynomial governing residue class k for
    k in 1..period; class ``period`` covers arguments divisible by the period.
    """

    def __init__(self, period: int, constituents):
        constituents = tuple(constituents)
        _require_int("period", period, positive=True)
        if len(constituents) != period:
            raise ValidationError("need exactly one constituent per residue class")
        for p in constituents:
            if not isinstance(p, Polynomial):
                raise ValidationError(f"constituents must be Polynomial values, got {p!r}")
        degrees = {p.degree for p in constituents}
        if len(degrees) != 1:
            raise ValidationError(f"constituents must share one degree, got {sorted(degrees)}")
        if not all(p.is_monic for p in constituents):
            raise ValidationError("every constituent must be monic")
        self.__dict__.update(period=period, constituents=constituents)

    def constituent_for_class(self, k: int) -> Polynomial:
        _require_int("k", k)
        if not 1 <= k <= self.period:
            raise ValidationError(f"residue class {k} out of range 1..{self.period}")
        return self.constituents[k - 1]

    def evaluate(self, q: int) -> int:
        """Value at a positive integer q, using the constituent of q's class."""
        _require_int("q", q, positive=True)
        return self.constituents[(q - 1) % self.period].evaluate(q)

    def to_json_dict(self) -> dict:
        """Classes that share one Polynomial object share one coefficient list."""
        coeffs: dict[int, list[str]] = {}
        items = []
        for k, poly in enumerate(self.constituents, 1):
            listed = coeffs.get(id(poly))
            if listed is None:
                listed = coeffs[id(poly)] = poly.to_json_list()
            items.append({"k": k, "coeffs": listed})
        return {"period": self.period, "constituents": items}


def minimum_period(qp: QuasiPolynomial) -> int:
    """Smallest divisor s of the period with f^k = f^k' whenever k ≡ k' mod s."""
    rho = qp.period
    cons = qp.constituents
    for s in range(1, rho):
        if rho % s == 0 and all(cons[i] == cons[i % s] for i in range(rho)):
            return s
    return rho


def has_gcd_property(qp: QuasiPolynomial) -> bool:
    """Whether constituents depend on the class k only through gcd(k, period)."""
    rho = qp.period
    rep: dict[int, Polynomial] = {}
    for k in range(1, rho + 1):
        g = gcd(k, rho)
        if g in rep:
            if rep[g] != qp.constituents[k - 1]:
                return False
        else:
            rep[g] = qp.constituents[k - 1]
    return True
