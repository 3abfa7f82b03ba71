"""Exact polynomials in a single variable q with integer coefficients.

Used for Poincaré polynomials, inversion generating functions and the
coefficients of chromatic quasisymmetric functions.  Coefficients are a
sparse map exponent -> int with no zero entries stored.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import OutOfRange, checked_int


class QPolynomial:
    """Integer polynomial in q, exact and immutable by convention.

    >>> (QPolynomial.q() + QPolynomial.one()) * QPolynomial.q()
    QPolynomial('q + q^2')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    if e < 0:
                        raise OutOfRange("negative exponent")
                    clean[int(e)] = int(c)
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def q(cls, exponent: int = 1) -> "QPolynomial":
        return cls({exponent: 1})

    @classmethod
    def from_int(cls, n: int) -> "QPolynomial":
        return cls({0: n})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "QPolynomial":
        acc: dict[int, int] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return cls(acc)

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted [exponent, coefficient] view used by every serializer."""
        return sorted(self.coeffs.items())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPolynomial.from_int(other)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            other = QPolynomial.from_int(other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return QPolynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self + (-other if isinstance(other, QPolynomial) else -QPolynomial.from_int(other))

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            return QPolynomial({e: c * other for e, c in self.coeffs.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return QPolynomial(acc)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        return sum(c * value**e for e, c in self.coeffs.items())

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.pairs():
            if e == 0:
                bits.append(str(c))
                continue
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            var = "q" if e == 1 else f"q^{e}"
            bits.append(f"{head}{var}" if head in ("", "-") else f"{head}*{var}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.pairs():
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                var = "q" if e == 1 else f"q^{{{e}}}"
                bits.append(f"{head}{var}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPolynomial('{self}')"


def q_int(k: int) -> QPolynomial:
    """q-analog [k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    if checked_int(k, "k") < 0:
        raise OutOfRange("q_int of a negative integer")
    return QPolynomial({e: 1 for e in range(k)})


def q_factorial(k: int) -> QPolynomial:
    """q-analog [k]_q! = [1]_q [2]_q ... [k]_q; [0]_q! = 1."""
    if checked_int(k, "k") < 0:
        raise OutOfRange("q_factorial of a negative integer")
    out = QPolynomial.one()
    for j in range(1, k + 1):
        out = out * q_int(j)
    return out
