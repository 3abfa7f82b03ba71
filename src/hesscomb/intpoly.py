"""Exact multivariate integer polynomials on a fixed variable count.

The values of GKM classes at the vertices, polynomials in the torus
variables t_1..t_n.  Terms are a sparse map from exponent tuples (length
nvars) to nonzero ints.  The constructor checks its input; arithmetic builds
its results through IntPoly._of, which takes terms as given.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import KOutOfRange, MalformedInput, ShapeMismatch, checked_int


class IntPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    checked_int(c, "a coefficient")
                if c:
                    if len(exps) != nvars:
                        raise ShapeMismatch("exponent tuple of wrong length")
                    for e in exps:
                        if type(e) is not int:
                            checked_int(e, "an exponent")
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "IntPoly":
        """The polynomial with these terms, unchecked: exponent tuples of
        length nvars and nonzero int coefficients."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "IntPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "IntPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "IntPoly":
        """The variable with 1-based index i."""
        if not 1 <= checked_int(i, "the variable index") <= nvars:
            raise KOutOfRange("variable index out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = IntPoly.const(self.nvars, other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly.const(self.nvars, other)
        if not isinstance(other, IntPoly):
            raise MalformedInput(f"cannot combine a polynomial with {other!r:.40}")
        if other.nvars != self.nvars:
            raise ShapeMismatch("variable count mismatch")
        return other

    def __add__(self, other) -> "IntPoly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return IntPoly._of(self.nvars, {e: c for e, c in acc.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "IntPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "IntPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly._of(self.nvars, {e: c * other for e, c in self.terms.items() if other})
        other = self._coerce(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return IntPoly._of(self.nvars, {e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

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


def product(nvars: int, factors: Iterable[IntPoly]) -> IntPoly:
    out = IntPoly.const(nvars, 1)
    for f in factors:
        out = out * f
    return out
