"""Moment graphs on S_n, equivariant classes, and graded ranks.

Vertices are permutations in one-line notation, edges join w to w*(ji) for
j < i <= h(j), and a class assigns an integer polynomial in t_1..t_n to every
vertex subject to the divisibility condition along edges.  Ranks of the
quotient by the positive-degree t-ideal are computed with exact integer
elimination, one q-degree at a time: the t-ideal in degree d is
t_1, ..., t_n times the span in degree d - 1, and the span adds to it the
generators of degree d.  For the special forms the x and y classes generate
the class ring over Z[t], so the generators of degree d are x_k times the
generators of degree d - 1 that raised the rank, plus y_1, ..., y_n in the
degree of the y classes.  A transpose-only h has no chain of its own: the
mirror w -> w0 w w0, t_a -> t_{n+1-a} carries its moment graph onto that of
its one-row transpose, so it reads the ranks and the t-ideal of that chain.
Above the top degree (the complex dimension) the ranks are 0, and a class
lies in the t-ideal exactly when it meets the edge conditions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, lru_cache

from .errors import FormMismatch, KOutOfRange, OddDegree, OutOfRange, ShapeMismatch
from .hessenberg import (
    HessenbergFunction,
    YForm,
    box_counts,
    classify_form,
    incomparable_pairs,
    transpose,
    y_form,
    y_forms,
)
from .intpoly import IntPoly, product
from .linalg import IntEchelon

Perm = tuple[int, ...]


@cache
def all_permutations(n: int) -> tuple[Perm, ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


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
    # The value depends only on the set of w(l), so the vertices with one set
    # share one product.
    products: dict[frozenset[int], IntPoly] = {}
    values = {}
    for w in all_permutations(n):
        if w[form.pin - 1] != k:
            values[w] = zero
            continue
        key = frozenset(w[l - 1] for l in form.factors)
        p = products.get(key)
        if p is None:
            p = products[key] = product(n, (tk - IntPoly.var(n, a) for a in key))
        values[w] = p
    return GkmClass(n, values)


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


def verify_relations(h: HessenbergFunction) -> dict[str, bool]:
    """Exact checks of the four ideal relations, per applicable form, one
    vertex at a time: a relation between classes holds when it holds at every
    vertex.  The y side is read from the y-classes; the other side is built
    from the linear forms t_a - t_b that the t and x classes take at a vertex.

    Two facts keep this cheap and exact.  A product of linear forms
    t_a - t_b depends only on a and the set of b, so each is built once per
    call.  Z[t] is an integral domain, so a product vanishes exactly when
    some factor does, and t_a - t_b vanishes exactly when a = b."""
    forms = y_forms(h)
    if not forms:
        raise FormMismatch(f"h={h} matches neither special form")
    n = h.n
    ts = {k: IntPoly.var(n, k) for k in range(1, n + 1)}
    differences: dict[tuple[int, frozenset[int]], IntPoly] = {}

    def difference_product(a: int, bs: frozenset[int]) -> IntPoly:
        """prod_{b in bs} (t_a - t_b)."""
        p = differences.get((a, bs))
        if p is None:
            p = differences[(a, bs)] = product(n, (ts[a] - ts[b] for b in bs))
        return p

    report: dict[str, bool] = {}
    for form in forms:
        ys = [_class_y(h, k, form).values for k in range(1, n + 1)]
        pin = form.pin
        full = [l for l in range(1, n + 1) if l != pin]
        outside = [l for l in full if l not in form.factors]
        vanish = pin_variable = complementary = sum_identity = True
        # (k, set of w(l) for l outside) -> (y_k(w), whether the relation holds)
        matched: dict[tuple[int, frozenset[int]], tuple[IntPoly, bool]] = {}
        for w in all_permutations(n):
            a = w[pin - 1]
            w_full = frozenset(w[l - 1] for l in full)
            w_outside = frozenset(w[l - 1] for l in outside)
            at_w = {k: yk[w] for k, yk in enumerate(ys, start=1)}
            support = [k for k, y in at_w.items() if y]
            # y_k y_k' at w: one of the two values is 0.
            vanish = vanish and len(support) <= 1
            # (x_pin - t_k) y_k at w: x_pin(w) - t_k = t_a - t_k is 0, or y_k(w) is.
            pin_variable = pin_variable and all(k == a for k in support)
            # y_k prod_{outside} (t_k - x_l) = prod_{full} (t_k - x_l) at w.  The
            # right side is 0 when k is some w(l), l in full; the left side when
            # y_k(w) is 0 or k is some w(l), l outside.
            for k, y in at_w.items():
                if not complementary:
                    break
                rhs_zero = k in w_full
                lhs_zero = not y or k in w_outside
                if rhs_zero or lhs_zero:
                    complementary = rhs_zero and lhs_zero
                    continue
                seen = matched.get((k, w_outside))
                if seen is None or seen[0] != y:
                    seen = matched[(k, w_outside)] = (y, (
                        y * difference_product(k, w_outside)
                        == difference_product(k, w_full)
                    ))
                complementary = seen[1]
            # sum_k y_k = prod_{factors} (x_pin - x_l) at w.
            if sum_identity:
                lhs = (at_w[support[0]] if len(support) == 1
                       else sum((at_w[k] for k in support), IntPoly.zero(n)))
                sum_identity = lhs == difference_product(a, w_full - w_outside)
        report[f"{form.name}:y-products-vanish"] = vanish
        report[f"{form.name}:pin-variable"] = pin_variable
        report[f"{form.name}:complementary-factors"] = complementary
        report[f"{form.name}:sum-identity"] = sum_identity
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
    """One q-degree d: the first column of each degree-d t-monomial, the
    echelonized t-ideal, and the quotient and fixed-subspace ranks."""

    cols: dict[tuple[int, ...], int]
    tideal: IntEchelon
    rank: int
    fixed: int


class _RankChain:
    """The q-degrees of one special-form h, built in order.  A row is a class
    over the columns (degree-d t-monomial, vertex), t-monomial-major, so t_i
    times a row moves each column to the monomial with one more t_i, and x_k
    times a row moves the column at vertex w to the one with one more t_{w(k)}.

    The span in degree d is the t-ideal plus the generator rows of degree d:
    x_k times each generator row of degree d - 1 that raised the rank, and
    y_1, ..., y_n in degree ydeg.  That spans every x^b and x^b y_k row,
    because x_k maps the t-ideal of degree d - 1 into the one of degree d.
    So degree d tries at most n * rank(d - 1) + n generator rows, not one
    per monomial."""

    def __init__(self, h: HessenbergFunction):
        form = _generator_form(h)
        self.n = h.n
        self.top = sum(box_counts(h))
        self.ydeg = len(form.factors)
        perms = all_permutations(h.n)
        self.vidx = {w: i for i, w in enumerate(perms)}
        # Per k, the index i with x_k = t_{i+1} at each vertex.
        self.xvar = [[w[k] - 1 for w in perms] for k in range(h.n)]
        # The support of each y_k, with the terms of its value at each vertex.
        self.yterms = [
            [(w, p.terms.items()) for w, p in _class_y(h, k, form).values.items() if p]
            for k in range(1, h.n + 1)
        ]
        self.degrees: list[_Degree] = []
        self.span = IntEchelon()  # the span in the last degree built
        # The generator rows to multiply by x_1..x_n for the next degree: those
        # that raised the rank in the last degree built, pure x classes and
        # y multiples apart.  Degree 0 starts from the class 1.
        self.xgens = [dict.fromkeys(range(len(perms)), 1)]
        self.ygens: list[dict[int, int]] = []

    def degree(self, d: int) -> _Degree:
        while len(self.degrees) <= d:
            self._grow()
        return self.degrees[d]

    def columns(self, d: int) -> dict[tuple[int, ...], int]:
        """The first column of each degree-d t-monomial."""
        return self.degree(d).cols

    def _grow(self) -> None:
        d, n, nverts = len(self.degrees), self.n, len(self.vidx)
        cols = {mon: i * nverts for i, mon in enumerate(_compositions(d, n))}
        tideal = IntEchelon()
        xcands, ycands = self.xgens, self.ygens
        if d:
            # Per i, the column offset from each monomial below to t_i times it.
            shifts = [[cols[a[:i] + (a[i] + 1,) + a[i + 1:]] - col
                       for a, col in self.degrees[-1].cols.items()] for i in range(n)]
            for shift in shifts:
                for row in self.span.pivots.values():
                    tideal.insert({c + shift[c // nverts]: v for c, v in row.items()})
            xcands = [self._times_x(shifts, k, row) for row in xcands for k in range(n)]
            ycands = [self._times_x(shifts, k, row) for row in ycands for k in range(n)]
        if d == self.ydeg:
            ycands = ycands + [self._row(cols, supp) for supp in self.yterms]

        # The fixed part is spanned by the t-ideal and the x rows alone: the
        # sum of the y_k is prod (x_pin - x_l), a polynomial in the x classes.
        # The quotient adds the y rows on top of them.
        span = tideal.clone()
        self.xgens = [row for row in xcands if span.insert(row)]
        self.ygens = [row for row in ycands if span.insert(row)]
        fixed = len(self.xgens)
        self.span = span
        self.degrees.append(_Degree(cols, tideal, fixed + len(self.ygens), fixed))

    def _times_x(self, shifts, k: int, row: dict[int, int]) -> dict[int, int]:
        """x_{k+1} times a row of the degree below."""
        xk, nverts = self.xvar[k], len(self.vidx)
        return {c + shifts[xk[c % nverts]][c // nverts]: v for c, v in row.items()}

    def _row(self, cols, supp) -> dict[int, int]:
        """The class whose nonzero values supp lists, as a row."""
        return {cols[exps] + self.vidx[w]: coeff
                for w, terms in supp for exps, coeff in terms}


def _mirror(w: Perm) -> Perm:
    """w0 w w0: the value n + 1 - w(n + 1 - p) at each position p."""
    n = len(w)
    return tuple(n + 1 - v for v in reversed(w))


class _MirroredChain:
    """A transpose-only h read off the chain of its one-row transpose.

    w -> w0 w w0 with t_a -> t_{n+1-a} maps the moment graph of h onto that
    of transpose(h), each edge label to minus a label, x_k to x_{n+1-k} and
    the transpose-form y_k to the one-row y_{n+1-k}.  So the two class rings,
    their t-ideals and their x-subrings correspond degree by degree, and a
    class of h is a row of the one-row chain once its vertices are mirrored
    and each t-monomial's exponents reversed."""

    def __init__(self, chain: _RankChain):
        self.chain = chain
        self.top = chain.top
        self.vidx = {w: chain.vidx[_mirror(w)] for w in chain.vidx}
        self._cols: dict[int, dict[tuple[int, ...], int]] = {}

    def degree(self, d: int) -> _Degree:
        """The one-row chain's degree d: its ranks and t-ideal are those of
        h, but its columns are indexed by unreversed t-monomials."""
        return self.chain.degree(d)

    def columns(self, d: int) -> dict[tuple[int, ...], int]:
        """The first column of the reversal of each degree-d t-monomial."""
        cols = self._cols.get(d)
        if cols is None:
            cols = self._cols[d] = {
                mon[::-1]: col for mon, col in self.chain.columns(d).items()}
        return cols


def _chain_for(h: HessenbergFunction) -> _RankChain | _MirroredChain:
    """The chain of h, or for a transpose-only h the mirror over the chain of
    transpose(h); an h of both forms keeps its own one-row chain."""
    tag = classify_form(h)
    if tag.is_transpose and not tag.is_one_row:
        return _MirroredChain(_rank_chain(transpose(h)))
    return _RankChain(h)


# One chain or mirror per h, for the few most recent h: a long-lived process
# asking about many h keeps only these, and each keeps one chain alive.
_CHAIN_CACHE_SIZE = 4
_rank_chain = lru_cache(maxsize=_CHAIN_CACHE_SIZE)(_chain_for)


def _t_ideal_contains(chain: _RankChain | _MirroredChain, c: GkmClass, d: int) -> bool:
    """Membership of a class of degree d in the chain's t-ideal; a term of any
    other degree has no column there."""
    cols, vidx = chain.columns(d), chain.vidx
    try:
        row = {cols[exps] + vidx[w]: coeff
               for w, p in c.values.items() for exps, coeff in p.terms.items()}
    except KeyError:
        raise ShapeMismatch("t-ideal test needs a homogeneous class") from None
    return chain.degree(d).tideal.contains(row)


def in_t_ideal(c: GkmClass, h: HessenbergFunction) -> bool:
    """Whether a homogeneous class lies in (t_1, ..., t_n) times the subring
    generated by the x and y classes.  Requires a special-form h.

    For a special form the x, y and t classes generate the class ring, which
    is free over Q[t] on generators of degree at most the top.  So above the
    top a class lies in the t-ideal exactly when it meets the edge
    conditions, and the chain is not grown there."""
    if c.n != h.n:
        raise ShapeMismatch(f"class on {c.n} variables, but h = {h} has n = {h.n}")
    chain = _rank_chain(h)
    # The degree is read from the first term.
    d = next((sum(exps) for p in c.values.values() for exps in p.terms), None)
    if d is None:
        return True
    if d > chain.top:
        if any(sum(exps) != d for p in c.values.values() for exps in p.terms):
            raise ShapeMismatch("t-ideal test needs a homogeneous class")
        return check_gkm_condition(build_gkm_graph(h), c)[0]
    return _t_ideal_contains(chain, c, d)


def _checked_half_degree(degree_2d: int) -> int:
    if degree_2d < 0:
        raise OutOfRange(f"negative degree {degree_2d}")
    if degree_2d % 2:
        raise OddDegree(f"cohomological degree {degree_2d} is odd")
    return degree_2d // 2


def _level(h: HessenbergFunction, degree_2d: int) -> _Degree | None:
    """The chain's q-degree d = degree_2d / 2, or None above the top degree
    (the complex dimension), where H^{2d} vanishes."""
    d = _checked_half_degree(degree_2d)
    chain = _rank_chain(h)
    return chain.degree(d) if d <= chain.top else None


def graded_quotient_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the degree-2d part of the class algebra modulo (t_1, ..., t_n)."""
    level = _level(h, degree_2d)
    return level.rank if level else 0


def sn_fixed_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the dot-action-invariant subspace of the same quotient."""
    level = _level(h, degree_2d)
    return level.fixed if level else 0


def betti_numbers(h: HessenbergFunction) -> tuple[int, ...]:
    """Quotient ranks for q-degrees 0 through the top (sum of box counts)."""
    chain = _rank_chain(h)
    return tuple(chain.degree(d).rank for d in range(chain.top + 1))
