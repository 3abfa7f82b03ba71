"""Exact polynomials in a single variable q with integer coefficients.

Used for Poincaré polynomials, inversion generating functions and the
coefficients of chromatic quasisymmetric functions.  `terms` maps exponent
-> nonzero int; the ring operations are those of intpoly._Poly.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import add

from .errors import OutOfRange, checked_int
from .intpoly import _Poly


class QPolynomial(_Poly):
    """Integer polynomial in q, exact and immutable by convention; a key is
    an exponent int and nvars is 1.

    >>> (QPolynomial.q() + QPolynomial.one()) * QPolynomial.q()
    QPolynomial('q + q^2')
    """

    __slots__ = ()
    _noun = "q-polynomial"
    _mul_keys = add

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(e) is not int or type(c) is not int:
                    checked_int(e, "an exponent")
                    checked_int(c, "a coefficient")
                if c:
                    if e < 0:
                        raise OutOfRange("negative exponent")
                    clean[e] = c
        self.nvars, self.terms = 1, clean

    def _unit(self) -> int:
        return 0

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
        return sorted(self.terms.items())

    def __call__(self, value: int) -> int:
        return sum(c * value**e for e, c in self.terms.items())

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def _format(self, power: str, times: str) -> str:
        """Terms by rising exponent; power formats q^e for e > 1, and times
        goes between a coefficient other than +-1 and its power of q."""
        bits = []
        for e, c in self.pairs():
            if e == 0:
                bits.append(str(c))
                continue
            var = "q" if e == 1 else power.format(e)
            bits.append(var if c == 1 else f"-{var}" if c == -1 else f"{c}{times}{var}")
        return " + ".join(bits).replace("+ -", "- ") or "0"

    def __str__(self) -> str:
        return self._format("q^{}", "*")

    def latex(self) -> str:
        return self._format("q^{{{}}}", "")

    def __repr__(self) -> str:
        return f"QPolynomial('{self}')"


def q_int(k: int) -> QPolynomial:
    """q-analog [k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    if checked_int(k, "k") < 0:
        raise OutOfRange("q_int of a negative integer")
    return QPolynomial._of(1, dict.fromkeys(range(k), 1))


def q_factorial(k: int) -> QPolynomial:
    """q-analog [k]_q! = [1]_q [2]_q ... [k]_q; [0]_q! = 1."""
    if checked_int(k, "k") < 0:
        raise OutOfRange("q_factorial of a negative integer")
    out = QPolynomial.one()
    for j in range(1, k + 1):
        out = out * q_int(j)
    return out
