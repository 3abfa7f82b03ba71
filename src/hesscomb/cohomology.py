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
from functools import cache, lru_cache
from operator import add, neg, sub

from .errors import (
    DegenerateForm,
    HesscombError,
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
    _transpose_m,
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
        if not self.xexp:
            raise ShapeMismatch("empty exponent vector")
        if min(self.xexp) < 0:
            raise ShapeMismatch("negative exponent")
        if self.y is not None and not 1 <= self.y <= len(self.xexp):
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
        clean = {m: c for m, c in self.terms.items() if c}
        for m in clean:
            if m.n != self.n:
                raise ShapeMismatch("mixed variable counts")
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, n: int) -> "XYElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "XYElement":
        return cls(n, {XYMonomial((0,) * n): 1})

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

    def __mul__(self, other: "XYElement") -> "XYElement":
        """Product when no two y factors meet; use multiply(h, a, b) otherwise."""
        if other.n != self.n:
            raise ShapeMismatch("mixed variable counts")
        acc: dict[XYMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1.y is not None and m2.y is not None:
                    raise HesscombError(
                        "product of two y-monomials depends on h; use multiply()"
                    )
                m = XYMonomial(
                    tuple(a + b for a, b in zip(m1.xexp, m2.xexp)),
                    m1.y if m1.y is not None else m2.y,
                )
                acc[m] = acc.get(m, 0) + c1 * c2
        return XYElement(self.n, acc)

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
            y = t.get("y")
            m = XYMonomial(tuple(checked_int(e, "an exponent") for e in t["x"]),
                           None if y is None else checked_int(y, "a y index"))
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
    # y_k^2 = y_k * prod_{l=2}^{h(1)} (-x_l), the last term of _difference_product
    square, sign = _difference_product(_one_row_h1(h), n)[-1]
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
    """All exponent vectors with 0 <= e_i <= bounds[i], in reversed-lex order."""
    ranges = [range(b + 1) for b in reversed(bounds)]
    out = [tuple(reversed(exps)) for exps in itertools.product(*ranges)]
    return out


def _divisible(exps: tuple[int, ...], positions) -> bool:
    return all(exps[p - 1] >= 1 for p in positions)


def _b1_exponents(h: HessenbergFunction) -> list[tuple[int, ...]]:
    """The exponent tuples of B1: the staircase (exponent of x_j at most n-j)
    minus the multiples of x_1...x_{h(1)}."""
    h1 = _one_row_h1(h)
    n = h.n
    return [
        exps
        for exps in _staircase_monomials([n - j for j in range(1, n + 1)])
        if not _divisible(exps, range(1, h1 + 1))
    ]


def basis_B1(h: HessenbergFunction) -> BasisSet:
    """Staircase monomials (exponent of x_j at most n-j) avoiding x_1...x_{h(1)}."""
    h1 = _one_row_h1(h)
    elems = [XYElement.monomial(XYMonomial(exps)) for exps in _b1_exponents(h)]
    elems.sort(key=lambda e: _element_key(e, h1 - 1))
    return BasisSet("B1", h, tuple(elems), y_form(h, "one-row"))


def _y_sector_xparts(h: HessenbergFunction) -> list[tuple[int, ...]]:
    h1 = _one_row_h1(h)
    n = h.n
    bounds = [0] + [v - 2 for v in range(2, n + 1)]
    return [
        exps
        for exps in _staircase_monomials(bounds)
        if not _divisible(exps, range(h1 + 1, n + 1))
    ]


def basis_B2(h: HessenbergFunction) -> BasisSet:
    """x-parts in x_2..x_n (exponent of x_v at most v-2, avoiding the factor
    x_{h(1)+1}...x_n) times y_k for k = 1..n-1."""
    h1 = _one_row_h1(h)
    n = h.n
    elems = [
        XYElement.monomial(XYMonomial(exps, k))
        for exps in _y_sector_xparts(h)
        for k in range(1, n)
    ]
    elems.sort(key=lambda e: _element_key(e, h1 - 1))
    return BasisSet("B2", h, tuple(elems), y_form(h, "one-row"))


def basis_B3(h: HessenbergFunction) -> BasisSet:
    """Same x-parts as B2 times the differences y_{k+1} - y_1, k = 1..n-1."""
    h1 = _one_row_h1(h)
    n = h.n
    elems = []
    for exps in _y_sector_xparts(h):
        for k in range(1, n):
            elems.append(
                XYElement(
                    n,
                    {XYMonomial(exps, k + 1): 1, XYMonomial(exps, 1): -1},
                )
            )
    elems.sort(key=lambda e: _element_key(e, h1 - 1))
    return BasisSet("B3", h, tuple(elems), y_form(h, "one-row"))


def basis_nilpotent(h: HessenbergFunction) -> BasisSet:
    """Monomials with exponent of x_k at most h(k) - k; valid for every h."""
    n = h.n
    monos = _staircase_monomials([h(k) - k for k in range(1, n + 1)])
    elems = [XYElement.monomial(XYMonomial(exps)) for exps in monos]
    elems.sort(key=lambda e: _element_key(e, 0))
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
# Inside the rewrite engine a monomial is the pair (exps, y): its exponent
# tuple and its y index, with y = 0 for no y factor.  A rule table holds
# (exponent change, coefficient) pairs, which _shifted adds to the monomial
# being rewritten; an XYMonomial is built only for an output term.

_Table = tuple[tuple[tuple[int, ...], int], ...]


@cache
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


@cache
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


@cache
def _exclusion_rule(h1: int, n: int) -> _Table:
    """Rewrites x_1 x_2 ... x_{h(1)} by x_1 * prod_{l=2}^{h(1)} (x_1 - x_l) = 0:
    x_1 times each other term of the product, with its sign moved past the
    last term's (-1)^{h(1)-1}, in place of x_1 times that last term."""
    *others, (lead, _) = _difference_product(h1, n)
    sign = -1 if h1 % 2 else 1
    return tuple((tuple(map(sub, exps, lead)), sign * c) for exps, c in others)


def _shifted(exps: tuple[int, ...], y: int, table: _Table) -> list:
    """The terms of a rule table applied to x^exps, each with the y index y."""
    return [((tuple(map(add, exps, delta)), y), c) for delta, c in table]


def _find_rewrite(exps: tuple[int, ...], y: int, n: int, h1: int) -> list | None:
    """One rewriting step for the monomial (exps, y), as ((exps, y), coefficient)
    pairs, or None when it is normal."""
    if y:
        if y == n:
            # y_n = prod_{l=2}^{h(1)} (x_1 - x_l) - sum_{k<n} y_k
            out = _shifted(exps, 0, _difference_product(h1, n))
            return out + [((exps, k), -1) for k in range(1, n)]
        if exps[0] > 0:
            return []
        if _divisible(exps, range(h1 + 1, n + 1)):
            # y_k x_{h(1)+1}...x_n = prod_{l=2}^{h(1)} (-x_l) * x_{h(1)+1}...x_n
            return _shifted(exps, 0, _difference_product(h1, n)[-1:])
        for v in range(2, n + 1):
            if exps[v - 1] >= v - 1:
                return _shifted(exps, y, _straighten_rule(v, v - 1, v, n, n))
        return None
    for v in range(n, 0, -1):
        if exps[v - 1] >= n + 1 - v:
            return _shifted(exps, 0, _straighten_rule(v, n + 1 - v, 1, v, n))
    if _divisible(exps, range(1, h1 + 1)):
        return _shifted(exps, 0, _exclusion_rule(h1, n))
    return None


def _rewrite_key(exps: tuple[int, ...], y: int, n: int) -> tuple:
    """Position of the monomial (exps, y) in the rewrite order as a min-heap
    key (smallest key = highest monomial).  y_n monomials come first; then
    y_k (k < n), by the x-exponents read from x_1 upward, ties broken by k;
    then pure-x monomials, by the x-exponents read from x_n down.  Distinct
    monomials get distinct keys, and every rule of _find_rewrite replaces a
    monomial by strictly lower ones."""
    if not y:
        return (2, *map(neg, reversed(exps)))
    if y == n:
        return (0, *map(neg, exps))
    return (1, *map(neg, exps), y)


def normal_form(e: XYElement, h: HessenbergFunction) -> XYElement:
    """Reduce modulo the one-row ideal onto the span of B1 and B2.

    Monomials are taken highest first in the rewrite order, so each one is
    rewritten once, after every contribution to its coefficient has arrived.
    The rules run on (exps, y) pairs; an XYMonomial is built once for each
    output term.  Raises NonTerminating if a rule fails to descend in that
    order."""
    h1 = _one_row_h1(h)
    n = h.n
    _check_n(e.n, h)
    # rewrite key -> [exps, y, coefficient]; keys hash faster than monomials
    pending = {}
    for m, c in e.terms.items():
        y = m.y or 0
        pending[_rewrite_key(m.xexp, y, n)] = [m.xexp, y, c]
    heap = list(pending)
    heapq.heapify(heap)
    out: dict[XYMonomial, int] = {}
    while heap:
        key = heapq.heappop(heap)
        exps, y, c = pending.pop(key)
        if c == 0:
            continue
        replacement = _find_rewrite(exps, y, n, h1)
        if replacement is None:
            out[XYMonomial(exps, y or None)] = c
            continue
        for (exps2, y2), c2 in replacement:
            key2 = _rewrite_key(exps2, y2, n)
            entry = pending.get(key2)
            if entry is not None:
                entry[2] += c * c2
            elif key2 > key:
                pending[key2] = [exps2, y2, c * c2]
                heapq.heappush(heap, key2)
            else:
                raise NonTerminating(
                    f"rewriting {XYMonomial(exps, y or None).pretty()} produced "
                    f"{XYMonomial(exps2, y2 or None).pretty()}, which is not lower"
                )
    return XYElement(n, out)


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
        return bareiss_det([list(row) for row in self.matrix])

    def to_csv(self) -> str:
        lines = [f"degree,{self.degree}"]
        for row in self.matrix:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def _by_degree(basis: BasisSet) -> dict[int, list[XYElement]]:
    ydeg = basis.y_degree()
    out: dict[int, list[XYElement]] = {}
    for e in basis.elements:
        out.setdefault(_element_degree(e, ydeg), []).append(e)
    return out


def _basis_index(elements: list[XYElement]) -> dict[XYMonomial, int]:
    index: dict[XYMonomial, int] = {}
    for pos, b in enumerate(elements):
        if len(b.terms) != 1:
            raise NotInBasis(f"basis entry {b.pretty()} is not a single monomial")
        (mono,) = b.terms.keys()
        index[mono] = pos
    return index


def _coordinates_in(e: XYElement, index: dict[XYMonomial, int], size: int) -> list[int]:
    vec = [0] * size
    for m, c in e.terms.items():
        if m not in index:
            raise NotInBasis(f"monomial {m.pretty()} outside the basis list")
        vec[index[m]] = c
    return vec


def coordinates(e: XYElement, elements: list[XYElement]) -> list[int]:
    """Coordinates of a normal-form element against a list of basis monomials."""
    return _coordinates_in(e, _basis_index(elements), len(elements))


# One context per h, shared by the reports below; contexts are small (bases and
# one y_n normal form per y-sector x-part), and the bound keeps a long-lived
# process from holding one for every h it has seen.
_RING_CACHE_SIZE = 8


class _OneRowRing:
    """The bases B1, B2 and B3 of one one-row h, grouped by degree, the index of
    B1 and B2, and the normal forms of x^e y_n for the y-sector x-parts e.

    B1 and B2 monomials are normal, and so is every monomial of a B3 element
    but x^e y_n.  Its normal form is built on first use from the one a degree
    lower: NF(x^e y_n) = NF(x_v NF(x^(e - eps_v) y_n)), v the highest variable
    in e.  That is exact because NF is linear and sends the ideal to 0; the
    x-parts are closed under lowering an exponent, so the chain stays inside
    them."""

    def __init__(self, h: HessenbergFunction):
        self.h = h
        self.n = h.n
        b1, b2, b3 = basis_B1(h), basis_B2(h), basis_B3(h)
        self.b1 = b1.elements
        self.d1, self.d2, self.d3 = _by_degree(b1), _by_degree(b2), _by_degree(b3)
        self.index = _basis_index(b1.elements + b2.elements)
        self._yn: dict[tuple[int, ...], XYElement] = {}

    def yn_form(self, exps: tuple[int, ...]) -> XYElement:
        """The normal form of x^exps y_n."""
        form = self._yn.get(exps)
        if form is None:
            v = max((i for i, e in enumerate(exps) if e), default=None)
            if v is None:
                form = normal_form(XYElement.monomial(XYMonomial(exps, self.n)), self.h)
            else:
                below = self.yn_form(exps[:v] + (exps[v] - 1,) + exps[v + 1:])
                form = normal_form(XYElement(self.n, {
                    XYMonomial(m.xexp[:v] + (m.xexp[v] + 1,) + m.xexp[v + 1:], m.y): c
                    for m, c in below.terms.items()
                }), self.h)
            self._yn[exps] = form
        return form

    def reduced(self, e: XYElement) -> XYElement:
        """The normal form of a combination of B1, B2 and B3 monomials: each
        x^e y_n term replaced by its normal form, the rest kept."""
        out = e
        for m, c in e.terms.items():
            if m.y == self.n:
                out = out + (self.yn_form(m.xexp) - XYElement.monomial(m)).scale(c)
        return out


_one_row_ring = lru_cache(maxsize=_RING_CACHE_SIZE)(_OneRowRing)


def transition_blocks(h: HessenbergFunction) -> list[TransitionBlock]:
    """Per degree, the matrix of B1 and B3 elements over B1 and B2 coordinates."""
    ring = _one_row_ring(h)
    blocks = []
    for d in sorted(set(ring.d1) | set(ring.d3)):
        rows = ring.d1.get(d, []) + ring.d2.get(d, [])
        cols = ring.d1.get(d, []) + ring.d3.get(d, [])
        index = _basis_index(rows)
        columns = [_coordinates_in(ring.reduced(e), index, len(rows)) for e in cols]
        blocks.append(TransitionBlock(2 * d, tuple(zip(*columns)), tuple(rows), tuple(cols)))
    return blocks


def transpose_transition_blocks(h: HessenbergFunction) -> list[TransitionBlock]:
    """Blocks for a transpose-form h via the x_i <-> x_{n+1-i} relabeling."""
    _transpose_m(h)
    blocks = transition_blocks(transpose(h))
    return [
        TransitionBlock(
            b.degree,
            b.matrix,
            tuple(mirror_element(e) for e in b.row_elements),
            tuple(mirror_element(e) for e in b.col_elements),
        )
        for b in blocks
    ]


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
    pure-x monomials making the union linearly independent."""
    n = h.n
    if _one_row_h1(h) == n:
        raise DegenerateForm("no y-sector orbits when h(1) = n")
    ring = _one_row_ring(h)
    index = ring.index
    ech = IntEchelon()
    orbits = []
    for exps in _y_sector_xparts(h):
        orbit = [XYElement.monomial(XYMonomial(exps, k)) for k in range(1, n + 1)]
        for e in orbit:
            terms = ring.reduced(e).terms
            if not terms.keys() <= index.keys():
                raise NotInBasis(f"normal form of {e.pretty()} leaves the basis list")
            ech.insert({index[m]: c for m, c in terms.items()})
        orbits.append(tuple(orbit))
    fixed = []
    for e in ring.b1:
        (mono,) = e.terms.keys()
        if ech.insert({index[mono]: 1}):
            fixed.append(e)
    return OrbitPartition(tuple(orbits), tuple(fixed))


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
