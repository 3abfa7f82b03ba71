"""Exact integer polynomials: the arithmetic core of both kinds, and IntPoly.

A polynomial is a sparse map `terms` from keys to nonzero ints on `nvars`
variables: exponent tuples for IntPoly, the values of GKM classes in
t_1..t_n, and exponent ints for qpoly.QPolynomial (nvars 1).  A kind defines
_noun, named in the "cannot combine" message, its unit key _unit() and
_mul_keys(a, b), the key of a product.  Each kind's constructor checks its
input; the arithmetic of _Poly builds its results unchecked.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import add

from .errors import KOutOfRange, MalformedInput, OutOfRange, ShapeMismatch, checked_int


class _Poly:
    __slots__ = ("nvars", "terms")

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "_Poly":
        """The polynomial with these terms, unchecked: keys of this kind and
        nonzero int coefficients."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = self._coerce(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other) -> "_Poly":
        """other as a polynomial of this kind: an int is a constant; a bool,
        another kind or any other value is MalformedInput."""
        if type(other) is int:
            return self._of(self.nvars, {self._unit(): other} if other else {})
        if type(other) is not type(self):
            raise MalformedInput(f"cannot combine a {self._noun} with {other!r:.40}")
        if other.nvars != self.nvars:
            raise ShapeMismatch("variable count mismatch")
        return other

    def __add__(self, other) -> "_Poly":
        acc = dict(self.terms)
        get = acc.get
        for e, c in self._coerce(other).terms.items():
            if s := get(e, 0) + c:
                acc[e] = s
            else:
                del acc[e]
        return self._of(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self) -> "_Poly":
        return self._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "_Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "_Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "_Poly":
        if type(other) is int:
            return self._of(self.nvars, {e: c * other for e, c in self.terms.items()}
                            if other else {})
        right = self._coerce(other).terms.items()
        mul_keys = self._mul_keys
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                key = mul_keys(e1, e2)
                acc[key] = get(key, 0) + c1 * c2
        return self._of(self.nvars, {e: c for e, c in acc.items() if c})

    __rmul__ = __mul__


class IntPoly(_Poly):
    """A polynomial in t_1..t_nvars; a key is an exponent tuple of length
    nvars."""

    __slots__ = ()
    _noun = "polynomial"

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        if type(nvars) is not int or nvars < 0:
            _check_nvars(nvars)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    checked_int(c, "a coefficient")
                if c:
                    if type(exps) is not tuple:
                        raise MalformedInput(f"exponents must be a tuple, got {exps!r:.40}")
                    if len(exps) != nvars:
                        raise ShapeMismatch("exponent tuple of wrong length")
                    for e in exps:
                        if type(e) is not int or e < 0:
                            if checked_int(e, "an exponent") < 0:
                                raise OutOfRange("negative exponent")
                    clean[exps] = c
        self.nvars, self.terms = nvars, clean

    def _unit(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    @staticmethod
    def _mul_keys(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, a, b))

    @classmethod
    def zero(cls, nvars: int) -> "IntPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "IntPoly":
        _check_nvars(nvars)
        return cls._of(nvars, {(0,) * nvars: c} if checked_int(c, "a coefficient") else {})

    @classmethod
    def var(cls, nvars: int, i: int) -> "IntPoly":
        """The variable with 1-based index i."""
        if not 1 <= checked_int(i, "the variable index") <= _check_nvars(nvars):
            raise KOutOfRange("variable index out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls._of(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"t{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(exps)
                if p
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"IntPoly({self.nvars}, '{self.pretty()}')"


def _check_nvars(nvars) -> int:
    if checked_int(nvars, "the variable count") < 0:
        raise OutOfRange("negative variable count")
    return nvars


def product(nvars: int, factors: Iterable[IntPoly]) -> IntPoly:
    out = IntPoly.const(nvars, 1)
    for f in factors:
        out = out * f
    return out
