"""Moment graphs on S_n, equivariant classes, and graded ranks.

Vertices are permutations in one-line notation, edges join w to w*(ji) for
j < i <= h(j), and a class assigns an integer polynomial in t_1..t_n to every
vertex subject to the divisibility condition along edges.  Ranks of the
quotient by the positive-degree t-ideal are computed with exact integer
elimination, one q-degree at a time: the t-ideal in degree d is
t_1, ..., t_n times the span in degree d - 1, and the span adds the x^b and
x^b y_k rows to it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import prod
from operator import add

from .errors import FormMismatch, KOutOfRange, OddDegree, OutOfRange, ShapeMismatch
from .hessenberg import (
    HessenbergFunction,
    YForm,
    box_counts,
    classify_form,
    incomparable_pairs,
    y_form,
    y_forms,
)
from .intpoly import IntPoly, product
from .linalg import IntEchelon

Perm = tuple[int, ...]


@cache
def all_permutations(n: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


def inverse_perm(w: Perm) -> Perm:
    out = [0] * len(w)
    for pos, val in enumerate(w):
        out[val - 1] = pos + 1
    return tuple(out)


def compose(u: Perm, w: Perm) -> Perm:
    """(u o w)(i) = u(w(i))."""
    return tuple(u[w[i] - 1] for i in range(len(w)))


def swap_positions(w: Perm, j: int, i: int) -> Perm:
    out = list(w)
    out[j - 1], out[i - 1] = out[i - 1], out[j - 1]
    return tuple(out)


def one_line_str(w: Perm) -> str:
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ".".join(str(v) for v in w)


@dataclass(frozen=True)
class GkmEdge:
    """Edge {w, v} with v = w*(ji); the label is t_{w(i)} - t_{w(j)}."""

    w: Perm
    v: Perm
    j: int
    i: int

    def label(self) -> IntPoly:
        n = len(self.w)
        return IntPoly.var(n, self.w[self.i - 1]) - IntPoly.var(n, self.w[self.j - 1])

    def label_str(self) -> str:
        return f"t{self.w[self.i - 1]}-t{self.w[self.j - 1]}"


@dataclass(frozen=True)
class GkmGraph:
    h: HessenbergFunction
    vertices: tuple[Perm, ...]
    edges: tuple[GkmEdge, ...]

    @property
    def n(self) -> int:
        return self.h.n

    def to_dot(self) -> str:
        lines = ["graph gkm {", "  node [shape=plaintext];"]
        for w in self.vertices:
            lines.append(f'  "{one_line_str(w)}";')
        for e in self.edges:
            lines.append(
                f'  "{one_line_str(e.w)}" -- "{one_line_str(e.v)}" '
                f'[label="{e.label_str()}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "h": list(self.h.values),
                "vertices": [one_line_str(w) for w in self.vertices],
                "edges": [
                    {
                        "u": one_line_str(e.w),
                        "v": one_line_str(e.v),
                        "positions": [e.j, e.i],
                        "label": e.label_str(),
                    }
                    for e in self.edges
                ],
            },
            sort_keys=True,
        )


def build_gkm_graph(h: HessenbergFunction) -> GkmGraph:
    """One vertex per permutation; one edge per unordered pair {w, w*(ji)}."""
    n = h.n
    verts = all_permutations(n)
    edges = []
    pairs = list(incomparable_pairs(h))
    for w in verts:
        for j, i in pairs:
            v = swap_positions(w, j, i)
            if w < v:
                edges.append(GkmEdge(w, v, j, i))
    edges.sort(key=lambda e: (e.w, e.v, e.j, e.i))
    return GkmGraph(h, verts, tuple(edges))


@dataclass(frozen=True, eq=False)
class GkmClass:
    """A polynomial value at every vertex of S_n."""

    n: int
    values: dict[Perm, IntPoly] = field(repr=False)

    def __post_init__(self):
        perms = all_permutations(self.n)
        if set(self.values) != set(perms):
            raise ShapeMismatch("class must assign a value to every permutation")

    @classmethod
    def constant(cls, n: int, value: IntPoly | int) -> "GkmClass":
        if isinstance(value, int):
            value = IntPoly.const(n, value)
        return cls(n, {w: value for w in all_permutations(n)})

    @classmethod
    def zero(cls, n: int) -> "GkmClass":
        return cls.constant(n, 0)

    def __getitem__(self, w: Perm) -> IntPoly:
        return self.values[w]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.values.values())

    def _coerce(self, other) -> "GkmClass":
        if isinstance(other, GkmClass):
            if other.n != self.n:
                raise ShapeMismatch("mismatched n")
            return other
        if isinstance(other, (int, IntPoly)):
            return GkmClass.constant(self.n, other)
        return NotImplemented

    def __add__(self, other) -> "GkmClass":
        o = self._coerce(other)
        return GkmClass(self.n, {w: self.values[w] + o.values[w] for w in self.values})

    def __sub__(self, other) -> "GkmClass":
        o = self._coerce(other)
        return GkmClass(self.n, {w: self.values[w] - o.values[w] for w in self.values})

    def __neg__(self) -> "GkmClass":
        return GkmClass(self.n, {w: -p for w, p in self.values.items()})

    def __mul__(self, other) -> "GkmClass":
        o = self._coerce(other)
        return GkmClass(self.n, {w: self.values[w] * o.values[w] for w in self.values})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GkmClass):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "values": {
                    one_line_str(w): [
                        [list(exps), c] for exps, c in self.values[w].sorted_terms()
                    ]
                    for w in all_permutations(self.n)
                },
            },
            sort_keys=True,
        )


def class_t(n: int, k: int) -> GkmClass:
    """The constant class w -> t_k."""
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return GkmClass.constant(n, IntPoly.var(n, k))


def class_x(n: int, k: int) -> GkmClass:
    """The class w -> t_{w(k)}."""
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return GkmClass(n, {w: IntPoly.var(n, w[k - 1]) for w in all_permutations(n)})


def _class_y(h: HessenbergFunction, k: int, form: YForm) -> GkmClass:
    """Supported on w(pin) = k with value prod_{l in factors} (t_k - t_{w(l)})."""
    n = h.n
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    tk, zero = IntPoly.var(n, k), IntPoly.zero(n)
    return GkmClass(n, {
        w: product(n, (tk - IntPoly.var(n, w[l - 1]) for l in form.factors))
        if w[form.pin - 1] == k else zero
        for w in all_permutations(n)
    })


def _generator_form(h: HessenbergFunction) -> YForm:
    """The y-classes that generate the class ring with the x-classes; the
    one-row ones when h has both forms."""
    tag = classify_form(h)
    if tag.is_general:
        raise FormMismatch(f"h={h} matches neither special form; generators unknown")
    return y_form(h, "one-row" if tag.is_one_row else "transpose")


def class_y_one_row(h: HessenbergFunction, k: int) -> GkmClass:
    """Supported on w(1) = k with value prod_{l=2}^{h(1)} (t_k - t_{w(l)})."""
    return _class_y(h, k, y_form(h, "one-row"))


def class_y_transpose(h: HessenbergFunction, k: int) -> GkmClass:
    """Supported on w(n) = k with value prod_{l=n-m+1}^{n-1} (t_k - t_{w(l)})."""
    return _class_y(h, k, y_form(h, "transpose"))


def class_y(h: HessenbergFunction, k: int) -> GkmClass:
    """Dispatch on the form of h; the one-row constructor wins when both apply."""
    return _class_y(h, k, _generator_form(h))


def check_gkm_condition(g: GkmGraph, c: GkmClass) -> tuple[bool, GkmEdge | None]:
    """Divisibility of value differences by edge labels; first failure returned."""
    if g.n != c.n:
        raise ShapeMismatch("graph and class sizes differ")
    for e in g.edges:
        diff = c.values[e.w] - c.values[e.v]
        a = e.w[e.i - 1]
        b = e.w[e.j - 1]
        if not diff.substitute_equal(a, b).is_zero():
            return False, e
    return True, None


def dot_action(v: Perm, c: GkmClass) -> GkmClass:
    """(v . c)(w) = c(v^{-1} w) with variables renamed t_i -> t_{v(i)}."""
    if sorted(v) != list(range(1, c.n + 1)):
        raise ShapeMismatch(f"{v} is not a permutation of 1..{c.n}")
    vinv = inverse_perm(v)
    return GkmClass(
        c.n, {w: c.values[compose(vinv, w)].permute_vars(v) for w in c.values}
    )


def verify_relations(h: HessenbergFunction) -> dict[str, bool]:
    """Exact tuple checks of the four ideal relations, per applicable form."""
    forms = y_forms(h)
    if not forms:
        raise FormMismatch(f"h={h} matches neither special form")
    n = h.n
    one = GkmClass.constant(n, 1)
    xs = {k: class_x(n, k) for k in range(1, n + 1)}
    ts = {k: class_t(n, k) for k in range(1, n + 1)}
    report: dict[str, bool] = {}
    for form in forms:
        ys = {k: _class_y(h, k, form) for k in range(1, n + 1)}
        pin = form.pin
        full = [l for l in range(1, n + 1) if l != pin]
        outside = [l for l in full if l not in form.factors]
        report[f"{form.name}:y-products-vanish"] = all(
            (ys[k] * ys[kk]).is_zero()
            for k in range(1, n + 1)
            for kk in range(k + 1, n + 1)
        )
        report[f"{form.name}:pin-variable"] = all(
            ((xs[pin] - ts[k]) * ys[k]).is_zero() for k in range(1, n + 1)
        )
        report[f"{form.name}:complementary-factors"] = all(
            ys[k] * prod((ts[k] - xs[l] for l in outside), start=one)
            == prod((ts[k] - xs[l] for l in full), start=one)
            for k in range(1, n + 1)
        )
        report[f"{form.name}:sum-identity"] = sum(
            ys.values(), GkmClass.zero(n)
        ) == prod((xs[pin] - xs[l] for l in form.factors), start=one)
    return report


# --- graded ranks modulo the torus ideal -------------------------------------


@cache
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class _Degree:
    """One q-degree d: the index of the degree-d t-monomials, the echelonized
    t-ideal, and the quotient and fixed-subspace ranks."""

    midx: dict[tuple[int, ...], int]
    tideal: IntEchelon
    rank: int
    fixed: int


class _RankChain:
    """The q-degrees of one special-form h, built in order.  A row is a class
    over the columns (degree-d t-monomial, vertex), t-monomial-major, so t_i
    times a row moves each column to the monomial with one more t_i."""

    def __init__(self, h: HessenbergFunction):
        form = _generator_form(h)
        self.n = h.n
        self.ydeg = len(form.factors)
        self.vidx = {w: i for i, w in enumerate(all_permutations(h.n))}
        # The support of each y_k, with the terms of its value at each vertex.
        self.yterms = [
            [(w, p.terms.items()) for w, p in _class_y(h, k, form).values.items() if p]
            for k in range(1, h.n + 1)
        ]
        self.ones = [(w, [((0,) * h.n, 1)]) for w in self.vidx]
        self.degrees: list[_Degree] = []
        self.span = IntEchelon()  # the span in the last degree built

    def degree(self, d: int) -> _Degree:
        while len(self.degrees) <= d:
            self._grow()
        return self.degrees[d]

    def _grow(self) -> None:
        d, n, nverts = len(self.degrees), self.n, len(self.vidx)
        midx = {mon: i for i, mon in enumerate(_compositions(d, n))}
        tideal = IntEchelon()
        if d:
            below = _compositions(d - 1, n)
            for i in range(n):
                # The column offset from each monomial below to t_i times it.
                shift = [(midx[a[:i] + (a[i] + 1,) + a[i + 1:]] - j) * nverts
                         for j, a in enumerate(below)]
                for row in self.span.pivots.values():
                    tideal.insert({c + shift[c // nverts]: v for c, v in row.items()})

        # The fixed part is spanned by the t-ideal and the x^b rows alone: the
        # sum of the y_k is prod (x_pin - x_l), a polynomial in the x classes.
        # The quotient adds one y row per k on top of them.
        span = tideal.clone()
        rank = fixed = sum(span.insert(self._row(midx, self.ones, b))
                           for b in _compositions(d, n))
        if d >= self.ydeg:
            for b in _compositions(d - self.ydeg, n):
                for supp in self.yterms:
                    rank += span.insert(self._row(midx, supp, b))
        self.span = span
        self.degrees.append(_Degree(midx, tideal, rank, fixed))

    def _row(self, midx, supp, b: tuple[int, ...]) -> dict[int, int]:
        """x^b times the class whose nonzero values supp lists, as a row."""
        nverts = len(self.vidx)
        row: dict[int, int] = {}
        for w, terms in supp:
            base = [0] * self.n
            for pos, e in enumerate(b):
                base[w[pos] - 1] += e
            v = self.vidx[w]
            for exps, coeff in terms:
                col = midx[tuple(map(add, base, exps))] * nverts + v
                row[col] = row.get(col, 0) + coeff
        return row


# One chain per h, for the few most recent h: a long-lived process asking
# about many h keeps only these.
_CHAIN_CACHE_SIZE = 4
_rank_chain = lru_cache(maxsize=_CHAIN_CACHE_SIZE)(_RankChain)


def in_t_ideal(c: GkmClass, h: HessenbergFunction) -> bool:
    """Whether a homogeneous class lies in (t_1, ..., t_n) times the subring
    generated by the x and y classes.  Requires a special-form h."""
    chain = _rank_chain(h)
    if c.n != h.n:
        raise ShapeMismatch(f"class on {c.n} variables, but h = {h} has n = {h.n}")
    degrees = {sum(exps) for p in c.values.values() for exps in p.terms}
    if not degrees:
        return True
    if len(degrees) > 1:
        raise ShapeMismatch("t-ideal test needs a homogeneous class")
    level = chain.degree(degrees.pop())
    nverts = len(chain.vidx)
    return level.tideal.contains({
        level.midx[exps] * nverts + chain.vidx[w]: coeff
        for w, p in c.values.items()
        for exps, coeff in p.terms.items()
    })


def _checked_half_degree(degree_2d: int) -> int:
    if degree_2d < 0:
        raise OutOfRange(f"negative degree {degree_2d}")
    if degree_2d % 2:
        raise OddDegree(f"cohomological degree {degree_2d} is odd")
    return degree_2d // 2


def graded_quotient_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the degree-2d part of the class algebra modulo (t_1, ..., t_n)."""
    d = _checked_half_degree(degree_2d)
    return _rank_chain(h).degree(d).rank


def sn_fixed_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the dot-action-invariant subspace of the same quotient."""
    d = _checked_half_degree(degree_2d)
    return _rank_chain(h).degree(d).fixed


def betti_numbers(h: HessenbergFunction) -> tuple[int, ...]:
    """Quotient ranks for q-degrees 0 through the top (sum of box counts)."""
    top = sum(box_counts(h))
    return tuple(graded_quotient_rank(h, 2 * d) for d in range(top + 1))
