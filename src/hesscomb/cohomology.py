"""The quotient-ring model: monomial bases, normal forms, transition blocks.

Elements live in Z[x_1..x_n, y_1..y_n] modulo the graded ideal of the one-row
presentation.  Monomials carry at most one y factor (higher y-powers reduce).
Normal forms land on the union of the pure-x basis B1 and the y-sector basis
B2; the alternative y-sector basis B3 uses differences y_{k+1} - y_1.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, lshift, sub

from .errors import (
    DegenerateForm,
    MalformedInput,
    NonTerminating,
    NotInBasis,
    NotSquare,
    ShapeMismatch,
    checked_int,
    json_decoder,
)
from .gkm import GkmClass, _generator_form, class_x, class_y
from .hessenberg import (
    HessenbergFunction,
    YForm,
    _one_row_h1,
    transpose,
    y_form,
)
from .linalg import IntEchelon, bareiss_det
from .qpoly import QPolynomial
from .symfunc import DecompositionCounts


@dataclass(frozen=True)
class XYMonomial:
    """x_1^{e_1}...x_n^{e_n} times an optional single y_k factor."""

    xexp: tuple[int, ...]
    y: int | None = None

    def __post_init__(self):
        if type(self.xexp) is not tuple:
            raise MalformedInput(f"the exponents must be a tuple, got {self.xexp!r:.40}")
        if not self.xexp:
            raise ShapeMismatch("empty exponent vector")
        for e in self.xexp:
            if type(e) is not int or e < 0:
                checked_int(e, "an exponent")
                raise ShapeMismatch("negative exponent")
        if self.y is not None and not 1 <= checked_int(self.y, "a y index") <= len(self.xexp):
            raise ShapeMismatch(f"y index {self.y} outside 1..{len(self.xexp)}")

    @property
    def n(self) -> int:
        return len(self.xexp)

    def xdegree(self) -> int:
        return sum(self.xexp)

    def qdegree(self, ydeg: int) -> int:
        return self.xdegree() + (ydeg if self.y is not None else 0)

    def pretty(self) -> str:
        bits = []
        for i, e in enumerate(self.xexp, start=1):
            if e == 1:
                bits.append(f"x{i}")
            elif e > 1:
                bits.append(f"x{i}^{e}")
        if self.y is not None:
            bits.append(f"y{self.y}")
        return "*".join(bits) if bits else "1"


def _y_rank(k: int | None, n: int) -> int:
    if k is None:
        return 0
    return k if k >= 2 else n + 1


def _mono_key(m: XYMonomial) -> tuple:
    return (m.xdegree(), tuple(reversed(m.xexp)), _y_rank(m.y, m.n))


@dataclass(frozen=True, eq=False)
class XYElement:
    n: int
    terms: dict[XYMonomial, int]

    def __post_init__(self):
        if type(self.n) is not int:
            checked_int(self.n, "n")
        clean = {}
        for m, c in self.terms.items():
            if type(c) is not int:
                checked_int(c, "a coefficient")
            if c:
                if m.n != self.n:
                    raise ShapeMismatch("mixed variable counts")
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, n: int) -> "XYElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "XYElement":
        return cls(n, {XYMonomial((0,) * checked_int(n, "n")): 1})

    @classmethod
    def monomial(cls, m: XYMonomial, c: int = 1) -> "XYElement":
        return cls(m.n, {m: c})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: XYMonomial) -> int:
        return self.terms.get(m, 0)

    def __add__(self, other: "XYElement") -> "XYElement":
        if other.n != self.n:
            raise ShapeMismatch("mixed variable counts")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return XYElement(self.n, acc)

    def __sub__(self, other: "XYElement") -> "XYElement":
        return self + (-other)

    def __neg__(self) -> "XYElement":
        return XYElement(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c: int) -> "XYElement":
        return XYElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, XYElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[XYMonomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: _mono_key(mc[0]))

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            body = m.pretty()
            if c == 1:
                bits.append(f"+ {body}")
            elif c == -1:
                bits.append(f"- {body}")
            elif c < 0:
                bits.append(f"- {-c}*{body}")
            else:
                bits.append(f"+ {c}*{body}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"x": list(m.xexp), "y": m.y, "c": c}
                    for m, c in self.sorted_terms()
                ]
            },
            sort_keys=True,
        )

    @classmethod
    @json_decoder("an element")
    def from_json(cls, data) -> "XYElement":
        terms: dict[XYMonomial, int] = {}
        n = None
        for t in data["terms"]:
            m = XYMonomial(tuple(t["x"]), t.get("y"))
            n = m.n
            terms[m] = terms.get(m, 0) + checked_int(t["c"], "a coefficient")
        if n is None:
            raise ShapeMismatch("cannot infer variable count from an empty element")
        return cls(n, terms)


def _check_n(n: int, h: HessenbergFunction) -> None:
    if n != h.n:
        raise ShapeMismatch(f"{n} variables, but h = {h} has n = {h.n}")


def multiply(h: HessenbergFunction, a: XYElement, b: XYElement) -> XYElement:
    """Full product in the quotient ring, reducing y*y pairs as it goes."""
    n = h.n
    square, sign = _rewriter(_one_row_h1(h), n).square
    _check_n(a.n, h)
    _check_n(b.n, h)
    acc: dict[XYMonomial, int] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = tuple(map(add, m1.xexp, m2.xexp))
            c = c1 * c2
            if m1.y is not None and m2.y is not None:
                if m1.y != m2.y:
                    continue
                exps = tuple(map(add, exps, square))
                c *= sign
                y = m1.y
            else:
                y = m1.y if m1.y is not None else m2.y
            m = XYMonomial(exps, y)
            acc[m] = acc.get(m, 0) + c
    return XYElement(n, acc)


@dataclass(frozen=True)
class BasisSet:
    """Basis elements of one presentation; form names the y-classes their y
    factors stand for (None for the pure-x nilpotent basis)."""

    label: str
    h: HessenbergFunction
    elements: tuple[XYElement, ...]
    form: YForm | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def y_degree(self) -> int:
        return len(self.form.factors) if self.form else 0

    def degrees(self) -> list[int]:
        ydeg = self.y_degree()
        return [_element_degree(e, ydeg) for e in self.elements]


def _element_degree(e: XYElement, ydeg: int) -> int:
    degs = {m.qdegree(ydeg) for m in e.terms}
    if len(degs) != 1:
        raise ShapeMismatch("inhomogeneous basis element")
    return degs.pop()


def _element_key(e: XYElement, ydeg: int):
    rep = min(e.terms, key=lambda m: _y_rank(m.y, m.n))
    return (_element_degree(e, ydeg), tuple(reversed(rep.xexp)), _y_rank(rep.y, rep.n))


def _staircase_monomials(bounds: list[int]) -> list[tuple[int, ...]]:
    """All exponent vectors with 0 <= e_i <= bounds[i], in reversed-lex order.
    Sorting such a list by degree (sort is stable) gives the order of
    _element_key: degree, then the exponents read from x_n down."""
    ranges = [range(b + 1) for b in reversed(bounds)]
    return [exps[::-1] for exps in itertools.product(*ranges)]


def _b1_exponents(h: HessenbergFunction) -> list[tuple[int, ...]]:
    """The exponent tuples of B1: the staircase (exponent of x_j at most n-j)
    minus the multiples of x_1...x_{h(1)}."""
    h1 = _one_row_h1(h)
    n = h.n
    return [
        exps
        for exps in _staircase_monomials([n - j for j in range(1, n + 1)])
        if 0 in exps[:h1]
    ]


def _b1_elements(exponents: list[tuple[int, ...]]) -> tuple[XYElement, ...]:
    return tuple(XYElement.monomial(XYMonomial(exps)) for exps in exponents)


def basis_B1(h: HessenbergFunction) -> BasisSet:
    """Staircase monomials (exponent of x_j at most n-j) avoiding x_1...x_{h(1)}."""
    return BasisSet("B1", h, _b1_elements(sorted(_b1_exponents(h), key=sum)), y_form(h, "one-row"))


def _y_sector_xparts(h: HessenbergFunction) -> list[tuple[int, ...]]:
    h1 = _one_row_h1(h)
    n = h.n
    bounds = [0] + [v - 2 for v in range(2, n + 1)]
    return [exps for exps in _staircase_monomials(bounds) if 0 in exps[h1:]]


def _b2_elements(n: int, xparts: list[tuple[int, ...]]) -> tuple[XYElement, ...]:
    """x^e y_2, ..., x^e y_{n-1}, x^e y_1 for each x-part e, in that order."""
    return tuple(
        XYElement.monomial(XYMonomial(exps, k)) for exps in xparts for k in (*range(2, n), 1)
    )


def basis_B2(h: HessenbergFunction) -> BasisSet:
    """x-parts in x_2..x_n (exponent of x_v at most v-2, avoiding the factor
    x_{h(1)+1}...x_n) times y_k for k = 1..n-1; y_1 comes last, as
    _y_rank orders it."""
    return BasisSet("B2", h, _b2_elements(h.n, sorted(_y_sector_xparts(h), key=sum)),
                    y_form(h, "one-row"))


def _b3_elements(n: int, xparts: list[tuple[int, ...]]) -> tuple[XYElement, ...]:
    """x^e (y_{k+1} - y_1) for each x-part e and k = 1..n-1, in that order."""
    return tuple(
        XYElement(n, {XYMonomial(exps, k + 1): 1, XYMonomial(exps, 1): -1})
        for exps in xparts
        for k in range(1, n)
    )


def basis_B3(h: HessenbergFunction) -> BasisSet:
    """Same x-parts as B2 times the differences y_{k+1} - y_1, k = 1..n-1:
    y_{k+1} - y_1 is the Specht polynomial of shape (n-1, 1) in the y
    variables, for the standard tableau with 1 and k + 1 in its column."""
    return BasisSet("B3", h, _b3_elements(h.n, sorted(_y_sector_xparts(h), key=sum)),
                    y_form(h, "one-row"))


def _nilpotent_exponents(h: HessenbergFunction) -> list[tuple[int, ...]]:
    """The exponent tuples of the nilpotent basis: exponent of x_k at most
    h(k) - k."""
    return _staircase_monomials([h(k) - k for k in range(1, h.n + 1)])


def basis_nilpotent(h: HessenbergFunction) -> BasisSet:
    """Monomials with exponent of x_k at most h(k) - k; valid for every h."""
    elems = [
        XYElement.monomial(XYMonomial(exps))
        for exps in sorted(_nilpotent_exponents(h), key=sum)
    ]
    return BasisSet("Nh", h, tuple(elems))


def mirror_element(e: XYElement) -> XYElement:
    """The variable relabeling x_i <-> x_{n+1-i}; y indices unchanged."""
    return XYElement(
        e.n,
        {XYMonomial(tuple(reversed(m.xexp)), m.y): c for m, c in e.terms.items()},
    )


def basis_transpose(h: HessenbergFunction) -> tuple[BasisSet, BasisSet, BasisSet]:
    """The bases TransposeB1, TransposeB2 and TransposeB3 for h of transpose
    form ((n-1)^(n-m), n^m): B1, B2 and B3 of the one-row transpose(h) =
    (m, n, ..., n) under the relabeling x_i <-> x_{n+1-i}, sorted for
    y-degree m - 1."""
    form = y_form(h, "transpose")
    ydeg = len(form.factors)
    ht = transpose(h)
    sets = []
    for b in (basis_B1(ht), basis_B2(ht), basis_B3(ht)):
        elems = sorted(map(mirror_element, b.elements), key=lambda e: _element_key(e, ydeg))
        sets.append(BasisSet("Transpose" + b.label, h, tuple(elems), form))
    return tuple(sets)


# --- normal form --------------------------------------------------------------
#
# Monomials are packed into ints of `width`-bit fields.  Pure x^e holds x_v in
# field v - 1 (x_n on top); x^e y_k, k < n, sets a flag bit above every pure-x
# int and holds k in field 0 and x_v in field n + 1 - v (x_1 on top); y_n is
# replaced by its relation on the way in.  So every rule lowers the int: a
# pure-x rule moves exponent to lower variables, a y-sector rule to higher
# ones or out of the sector.  A field's top bit is a guard above room for the
# top degree: a rule's packed change never carries into the next field, and
# adding a constant sets a guard exactly when an exponent reaches a bound.

_Table = tuple[tuple[tuple[int, ...], int], ...]


def _straighten_rule(v: int, k: int, lo: int, hi: int, n: int) -> _Table:
    """Rewrites x_v^k by h_k(x_lo..x_hi) = 0, where lo <= v <= hi: every
    other term of the complete homogeneous sum, negated, in place of x_v^k."""
    out = []
    for combo in itertools.combinations_with_replacement(range(lo, hi + 1), k):
        if combo != (v,) * k:
            delta = [0] * n
            delta[v - 1] = -k
            for l in combo:
                delta[l - 1] += 1
            out.append((tuple(delta), -1))
    return tuple(out)


def _difference_product(h1: int, n: int) -> _Table:
    """prod_{l=2}^{h1} (x_1 - x_l) expanded, one term per subset S of {2..h1}:
    (-1)^|S| x_1^{h1-1-|S|} prod_{l in S} x_l.  The last term, for S = {2..h1},
    is prod_{l=2}^{h1} (-x_l)."""
    out = []
    for size in range(h1):
        for subset in itertools.combinations(range(2, h1 + 1), size):
            exps = [0] * n
            exps[0] = h1 - 1 - size
            for l in subset:
                exps[l - 1] = 1
            out.append((tuple(exps), -1 if size % 2 else 1))
    return tuple(out)


def _exclusion_rule(h1: int, n: int) -> _Table:
    """Rewrites x_1 x_2 ... x_{h(1)} by x_1 * prod_{l=2}^{h(1)} (x_1 - x_l) = 0:
    x_1 times each other term of the product, with its sign moved past the
    last term's (-1)^{h(1)-1}, in place of x_1 times that last term."""
    *others, (lead, _) = _difference_product(h1, n)
    sign = -1 if h1 % 2 else 1
    return tuple((tuple(map(sub, exps, lead)), sign * c) for exps, c in others)


# The last _RING_CACHE_SIZE rewriters (packed rule tables and the normal
# monomials met or kept) and contexts (bases, positions and one pure-x part
# per y-sector x-part) used: the bound keeps a long-lived process from holding
# one of each for every h it has seen.
_RING_CACHE_SIZE = 8


class _Rewriter:
    """The rules of the one-row ideal for one (h(1), n) on packed monomials,
    and the one loop that applies them.  Pure x^e: straighten x_v^(n+1-v) by
    h_(n+1-v)(x_1..x_v), highest v first, else x_1...x_h(1) by the exclusion
    rule.  x^e y_k (k < n): any x_1 gives 0; x_(h(1)+1)...x_n leaves for
    x^e prod_{l=2}^{h(1)} (-x_l); else straighten x_v^(v-1) by
    h_(v-1)(x_v..x_n), lowest v first.  B1 and B2 are what no rule matches."""

    def __init__(self, h1: int, n: int):
        self.n, self.ydeg = n, h1 - 1
        self.top = (n - 1) * (n - 2) // 2 + h1 - 1
        w = self.width = max(self.top, n).bit_length() + 1
        g = 1 << (w - 1)
        self._x_shifts, self._y_shifts = range(0, w * n, w), range(w * n, 0, -w)
        self._flag, self._mask = 1 << (w * (n + 1)), (1 << w) - 1
        self._x1 = self._mask << (w * n)
        # Adding _over sets x_v's guard when x_v^(n+1-v) divides a pure-x monomial, _y_over
        # when x_v^(v-1) divides a y-sector one, _excl (_y_excl) when x_v, v <= h(1) (> h(1)), does.
        self._over = self.pure([g - (n + 1 - v) for v in range(1, n + 1)])
        self._excl = self.pure([g - 1] * h1)
        self._guards = self.pure([g] * n)
        self._y_over = self._ypack([0] + [g - (v - 1) for v in range(2, n + 1)])
        self._y_excl = self._ypack([0] * h1 + [g - 1] * (n - h1))
        self._y_guards = self._ypack([0] + [g] * (n - 1))

        def packed(table, pack=self.pure):
            return tuple((pack(delta), c) for delta, c in table)

        # y_k^2 = y_k * prod_{l=2}^{h(1)} (-x_l), the last term of the product
        difference = _difference_product(h1, n)
        self.square, self.difference = difference[-1], packed(difference)
        # indexed by the bit length, in fields, of the highest guard set
        self._straighten = [None] + [packed(_straighten_rule(v, n + 1 - v, 1, v, n))
                                     for v in range(1, n + 1)]
        self._y_straighten = [None, None] + [
            packed(_straighten_rule(v, v - 1, v, n, n), self._ypack) for v in range(n, 1, -1)]
        self._exclusion = packed(_exclusion_rule(h1, n))
        self.monomials: dict[int, XYMonomial] = {}

    def pure(self, exps) -> int:
        """The packed pure-x monomial x^exps."""
        return sum(map(lshift, exps, self._x_shifts))

    def _ypack(self, exps) -> int:
        return sum(map(lshift, exps, self._y_shifts))

    def pack(self, e: XYElement) -> dict[int, int]:
        """e on packed monomials, y_n replaced by prod_{l=2}^{h(1)} (x_1 - x_l)
        - sum_{k<n} y_k.  Terms above the top degree are dropped: the rules
        keep the degree, and B1 and B2 have nothing above it."""
        out: dict[int, int] = {}
        for m, c in e.terms.items():
            exps, y = m.xexp, m.y
            if sum(exps) + (self.ydeg if y else 0) > self.top:
                continue
            if y is None:
                terms = ((self.pure(exps), c),)
            else:
                ys = self.y_sector(exps)
                terms = ((ys | y, c),) if y < self.n else [
                    *((self.pure(exps) + d, c * cd) for d, cd in self.difference),
                    *((ys | k, -c) for k in range(1, self.n))]
            for p, cp in terms:
                out[p] = out.get(p, 0) + cp
        return out

    def y_sector(self, exps) -> int:
        """The packed x^exps y_k, k < n, less k."""
        return self._flag | self._ypack(exps)

    def monomial(self, m: int) -> XYMonomial:
        """The monomial packed as m, built on first request unless the ring
        kept it; normal_form asks only for normal monomials: B1 and B2."""
        mono = self.monomials.get(m)
        if mono is None:
            y = m & self._mask if m & self._flag else None
            shifts = self._y_shifts if y else self._x_shifts
            mono = XYMonomial(tuple((m >> s) & self._mask for s in shifts), y)
            self.monomials[m] = mono
        return mono

    def reduce(self, pending: dict[int, int]) -> dict[int, int]:
        """The normal form of a packed polynomial, which it consumes: each
        monomial is rewritten once, highest first, with its coefficient
        complete.  Raises NonTerminating if a rule fails to lower it."""
        flag, x1, w, h1 = self._flag, self._x1, self.width, self.ydeg + 1
        over, excl, guards, straighten = self._over, self._excl, self._guards, self._straighten
        heap = [-m for m in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            m = -heapq.heappop(heap)
            c = pending.pop(m)
            if not c or m & x1:
                continue
            # a table of None marks a normal monomial, no hit has bit length 0
            if not m & flag:
                table = straighten[((m + over) & guards).bit_length() // w]
                if table is None and ((m + excl) & guards).bit_count() == h1:
                    table = self._exclusion
            elif ((m + self._y_excl) & self._y_guards).bit_count() == self.n - h1:
                # the one rule that is not a constant packed change
                (square, sign), mask = self.square, self._mask
                exps = [(m >> s) & mask for s in self._y_shifts]
                table = ((self.pure(exps) + self.pure(square) - m, sign),)
            else:
                hit = (m + self._y_over) & self._y_guards
                table = self._y_straighten[hit.bit_length() // w]
            if table is None:
                out[m] = c
                continue
            for delta, cr in table:
                m2 = m + delta
                c2 = pending.get(m2)
                if c2 is not None:
                    pending[m2] = c2 + c * cr
                elif m2 < m:
                    pending[m2] = c * cr
                    heapq.heappush(heap, -m2)
                else:
                    raise NonTerminating(
                        f"rewriting {self.monomial(m).pretty()} produced "
                        f"{self.monomial(m2).pretty()}, which is not lower"
                    )
        return out


_rewriter = lru_cache(maxsize=_RING_CACHE_SIZE)(_Rewriter)


def normal_form(e: XYElement, h: HessenbergFunction) -> XYElement:
    """Reduce modulo the one-row ideal onto the span of B1 and B2, through
    the rewriter of (h(1), n).  Raises NonTerminating if a rule fails to
    lower a monomial."""
    rw = _rewriter(_one_row_h1(h), h.n)
    _check_n(e.n, h)
    return XYElement(h.n, {rw.monomial(m): c for m, c in rw.reduce(rw.pack(e)).items()})


# --- transition blocks and related reports ------------------------------------


@dataclass(frozen=True)
class TransitionBlock:
    """Columns are B1 and B3 elements of one degree in B1-and-B2 coordinates."""

    degree: int
    matrix: tuple[tuple[int, ...], ...]
    row_elements: tuple[XYElement, ...]
    col_elements: tuple[XYElement, ...]

    @property
    def size(self) -> int:
        return len(self.matrix)

    def determinant(self) -> int:
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise NotSquare("non-square transition block")
        return bareiss_det(self.matrix)

    def to_csv(self) -> str:
        lines = [f"degree,{self.degree}"]
        for row in self.matrix:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def coordinates(e: XYElement, elements: list[XYElement]) -> list[int]:
    """Coordinates of a normal-form element against a list of basis monomials."""
    index: dict[XYMonomial, int] = {}
    for pos, b in enumerate(elements):
        if len(b.terms) != 1:
            raise NotInBasis(f"basis entry {b.pretty()} is not a single monomial")
        (mono,) = b.terms
        index[mono] = pos
    vec = [0] * len(elements)
    for m, c in e.terms.items():
        if m not in index:
            raise NotInBasis(f"monomial {m.pretty()} outside the basis list")
        vec[index[m]] = c
    return vec


def _degree_ranges(exponents: list[tuple[int, ...]]) -> dict[int, range]:
    """Degree -> its positions, for exponent tuples sorted by degree."""
    out, start = {}, 0
    for d, size in sorted(Counter(map(sum, exponents)).items()):
        out[d] = range(start, start + size)
        start += size
    return out


class _OneRowRing:
    """The bases B1, B2 and B3 of one one-row h, their positions, and the
    pure-x parts of the normal forms of x^e y_n for the y-sector x-parts e.

    The bases are built once, by the builders of basis_B1/B2/B3, from the
    B1 exponents and x-parts sorted by degree.  So `b1_range` maps a degree
    to a slice of B1, `x_range` an x-degree to a slice of the x-parts, and
    x-part i owns n - 1 consecutive positions of B2 and of B3.

    B1 and B2 monomials are normal, and so is every monomial of a B3 element
    but x^e y_n.  Each x^e y_k with k < n is a B2 monomial, so
    NF(x^e y_n) = P_e - sum_{k<n} x^e y_k, where the pure-x part
    P_e = NF(x^e prod_{l=2}^{h(1)} (x_1 - x_l)) lies in the span of B1.

    P_e is kept on packed monomials and built on first use by the rewriter
    `rw` from the part a degree lower, P_e = NF(x_v P_(e - eps_v)).  The
    x-parts are closed under lowering an exponent, so the chain stays inside
    them.  v is the lowest variable in e: x_v times a B1 monomial leaves B1
    only at the bound n + 1 - v, highest for the lowest v."""

    def __init__(self, h: HessenbergFunction):
        n = self.n = h.n
        rw = self.rw = _rewriter(_one_row_h1(h), n)
        b1_exps = sorted(_b1_exponents(h), key=sum)
        xparts = _y_sector_xparts(h)
        order = sorted(range(len(xparts)), key=lambda j: sum(xparts[j]))
        self.xparts = [xparts[j] for j in order]
        # each x-part's index in self.xparts, listed in the order of _y_sector_xparts
        self.staircase = sorted(range(len(order)), key=order.__getitem__)
        self.b1 = _b1_elements(b1_exps)
        self.b2 = _b2_elements(n, self.xparts)
        self.b3 = _b3_elements(n, self.xparts)
        self.b1_range = _degree_ranges(b1_exps)
        self.x_range = _degree_ranges(self.xparts)
        self.b1_at = {rw.pure(exps): pos for pos, exps in enumerate(b1_exps)}
        # rw keeps every normal monomial, so a product reduced after this builds none
        b2_at = [rw.y_sector(exps) | k for exps in self.xparts for k in (*range(2, n), 1)]
        basis = [m for e in self.b1 + self.b2 for m in e.terms]
        rw.monomials.update(zip([*self.b1_at, *b2_at], basis))
        self._parts: dict[tuple[int, ...], dict[int, int]] = {}

    def part(self, exps: tuple[int, ...]) -> dict[int, int]:
        """P_exps on packed monomials."""
        form = self._parts.get(exps)
        if form is None:
            v = next((i for i, e in enumerate(exps) if e), None)
            if v is None:
                pending = dict(self.rw.difference)
            else:
                step = self.rw.pure((0,) * v + (1,))
                below = self.part(exps[:v] + (exps[v] - 1,) + exps[v + 1:])
                pending = {m + step: c for m, c in below.items()}
            form = self._parts[exps] = self.rw.reduce(pending)
        return form

    def part_positions(self, exps: tuple[int, ...]) -> dict[int, int]:
        """P_exps in coordinates: B1 position -> coefficient."""
        out = {}
        for m, c in self.part(exps).items():
            pos = self.b1_at.get(m)
            if pos is None:
                raise NotInBasis(
                    f"normal form of {XYMonomial(exps, self.n).pretty()} leaves the basis list"
                )
            out[pos] = c
        return out

_one_row_ring = lru_cache(maxsize=_RING_CACHE_SIZE)(_OneRowRing)


def transition_blocks(h: HessenbergFunction) -> list[TransitionBlock]:
    """Per degree, the matrix of B1 and B3 elements over B1 and B2 coordinates.
    B1 monomials are normal, so the B1 columns are the unit columns of the
    B1 rows, which come first.  Column x^e (y_{k+1} - y_1) is +1 on row
    x^e y_{k+1} and -1 on row x^e y_1 for k + 1 < n; for k + 1 = n it is
    NF(x^e y_n) - x^e y_1, so P_e on the B1 rows, -1 on x^e y_2..x^e y_{n-1}
    and -2 on x^e y_1."""
    ring = _one_row_ring(h)
    n1, ydeg = ring.n - 1, ring.rw.ydeg
    blocks = []
    for d in sorted(ring.b1_range.keys() | {xd + ydeg for xd in ring.x_range}):
        r1 = ring.b1_range.get(d, range(0))
        rx = ring.x_range.get(d - ydeg, range(0))
        b1 = ring.b1[r1.start:r1.stop]
        lo, hi = rx.start * n1, rx.stop * n1
        rows, cols = b1 + ring.b2[lo:hi], b1 + ring.b3[lo:hi]
        matrix = [[0] * len(cols) for _ in rows]
        for j in range(len(b1)):
            matrix[j][j] = 1
        for i in rx:
            first = len(b1) + i * n1 - lo  # row x^e y_2, column x^e (y_2 - y_1)
            last = first + n1 - 1  # row x^e y_1, column x^e (y_n - y_1)
            for j in range(first, last):
                matrix[j][j] = 1
                matrix[last][j] = matrix[j][last] = -1
            matrix[last][last] = -2
            for pos, c in ring.part_positions(ring.xparts[i]).items():
                if pos not in r1:
                    raise NotInBasis(f"normal form of {cols[last].pretty()} leaves its degree")
                matrix[pos - r1.start][last] = c
        blocks.append(TransitionBlock(2 * d, tuple(map(tuple, matrix)), rows, cols))
    return blocks


def check_unimodular(b: TransitionBlock) -> bool:
    """Exact determinant test |det| = 1."""
    return abs(b.determinant()) == 1


def decomposition_counts(h: HessenbergFunction) -> DecompositionCounts:
    """Per-degree multiplicities, counted from exponent tuples: trivial from
    the B1 monomials x^e (degree |e|), standard from the y-sector x-parts e,
    each of which carries the n - 1 elements x^e (y_{k+1} - y_1) of B3, of
    degree |e| + h(1) - 1."""
    h1 = _one_row_h1(h)
    trivial = Counter(sum(e) for e in _b1_exponents(h))
    standard = Counter(sum(e) + h1 - 1 for e in _y_sector_xparts(h))
    degrees = sorted(trivial.keys() | standard.keys())
    return DecompositionCounts(h.n, {d: (trivial[d], standard[d]) for d in degrees})


@dataclass(frozen=True)
class OrbitPartition:
    orbits: tuple[tuple[XYElement, ...], ...]
    fixed: tuple[XYElement, ...]


def permutation_orbits(h: HessenbergFunction) -> OrbitPartition:
    """Orbit sets {x-part * y_k : k = 1..n} plus a greedily chosen fixed set of
    pure-x monomials making the union linearly independent.

    The orbit of x^e spans the B2 monomials x^e y_k (k < n) and P_e, the
    pure-x part of NF(x^e y_n), so the orbits span B2 plus span{P_e}.  Taken
    in order, a B1 monomial is left out exactly when span{P_e} holds a vector
    whose last nonzero coordinate is that monomial: when its position is a
    pivot of an echelon of the P_e with positions reversed."""
    n = h.n
    if _one_row_h1(h) == n:
        raise DegenerateForm("no y-sector orbits when h(1) = n")
    ring = _one_row_ring(h)
    last = len(ring.b1) - 1
    ech = IntEchelon()
    orbits = []
    for i in ring.staircase:
        exps, slot = ring.xparts[i], i * (n - 1)
        ech.insert({last - pos: c for pos, c in ring.part_positions(exps).items()})
        # B2 holds x^e y_2..x^e y_(n-1), then x^e y_1
        orbits.append((ring.b2[slot + n - 2], *ring.b2[slot:slot + n - 2],
                       XYElement.monomial(XYMonomial(exps, n))))
    fixed = tuple(e for pos, e in enumerate(ring.b1) if last - pos not in ech.pivots)
    return OrbitPartition(tuple(orbits), fixed)


def degree_gf(b: BasisSet) -> QPolynomial:
    """Generating function of half cohomological degrees over basis elements."""
    acc: dict[int, int] = {}
    for d in b.degrees():
        acc[d] = acc.get(d, 0) + 1
    return QPolynomial(acc)


def monomial_to_gkm(m: XYMonomial, h: HessenbergFunction) -> GkmClass:
    """Pointwise product of the generator classes named by the monomial."""
    _generator_form(h)
    n = h.n
    _check_n(m.n, h)
    acc = GkmClass.constant(n, 1)
    for k, e in enumerate(m.xexp, start=1):
        xk = class_x(n, k)
        for _ in range(e):
            acc = acc * xk
    if m.y is not None:
        acc = acc * class_y(h, m.y)
    return acc


def element_to_gkm(e: XYElement, h: HessenbergFunction) -> GkmClass:
    _check_n(e.n, h)
    acc = GkmClass.zero(h.n)
    for m, c in e.terms.items():
        acc = acc + monomial_to_gkm(m, h) * c
    return acc
