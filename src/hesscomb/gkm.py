"""Moment graphs on S_n, equivariant classes, and graded ranks.

Vertices are permutations in one-line notation, edges join w to w*(ji) for
j < i <= h(j), and a class assigns an integer polynomial in t_1..t_n to every
vertex subject to the divisibility condition along edges.  Graded ranks and
t-ideal membership are read from the classes evaluated at the regular point
lambda = (0, 1, ..., n - 1), filtered by degree (_Filtration).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

from .errors import (
    FormMismatch,
    HesscombError,
    KOutOfRange,
    OddDegree,
    OutOfRange,
    ShapeMismatch,
    checked_int,
)
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


def all_permutations(n: int) -> tuple[Perm, ...]:
    return _all_permutations(checked_int(n, "n"))


@cache
def _all_permutations(n: int) -> tuple[Perm, ...]:
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
        # The values are kept in vertex order, so readers can walk them in it.
        perms = all_permutations(self.n)
        if tuple(self.values) != perms:
            if set(self.values) != set(perms):
                raise ShapeMismatch("class must assign a value to every permutation")
            object.__setattr__(self, "values", {w: self.values[w] for w in perms})

    @classmethod
    def constant(cls, n: int, value: IntPoly | int) -> "GkmClass":
        checked_int(n, "n")
        if type(value) is not IntPoly:
            value = IntPoly.const(n, checked_int(value, "a constant value"))
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
    checked_int(n, "n")
    if not 1 <= checked_int(k, "k") <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return GkmClass.constant(n, IntPoly.var(n, k))


def class_x(n: int, k: int) -> GkmClass:
    """The class w -> t_{w(k)}."""
    checked_int(n, "n")
    if not 1 <= checked_int(k, "k") <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return GkmClass(n, {w: IntPoly.var(n, w[k - 1]) for w in all_permutations(n)})


def _class_y(h: HessenbergFunction, k: int, form: YForm) -> GkmClass:
    """Supported on w(pin) = k with value prod_{l in factors} (t_k - t_{w(l)})."""
    n = h.n
    if not 1 <= checked_int(k, "k") <= n:
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


def _class_by_name(h: HessenbergFunction, name: str, variant: str | None) -> GkmClass:
    """The class named x<k>, y<k> or t<k>; a y class takes the form variant
    names, "one-row" or "transpose", and otherwise the one class_y takes."""
    kind, index = name[:1], name[1:]
    if kind not in ("x", "y", "t") or not (index.isascii() and index.isdigit()):
        raise HesscombError(f"unknown class name {name!r}; use e.g. x2, y2, t1")
    k = int(index)
    if kind == "t":
        return class_t(h.n, k)
    if kind == "x":
        return class_x(h.n, k)
    make = {"one-row": class_y_one_row, "transpose": class_y_transpose}.get(variant, class_y)
    return make(h, k)


class _Merged(dict):
    """Exponent tuples with t_a set equal to t_b (0-based a, b), filled on use."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __missing__(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        f = list(exps)
        f[self.b] += f[self.a]
        f[self.a] = 0
        key = self[exps] = tuple(f)
        return key


def _edge_tests(g: GkmGraph) -> list[tuple[GkmEdge, int, int, int, _Merged]]:
    """Per edge of g, in order: the edge, the indices of its ends among the
    vertices, and the index a of its label t_a - t_b with that label's memo
    of merged exponent tuples."""
    index = {w: i for i, w in enumerate(g.vertices)}
    memos: dict[tuple[int, int], _Merged] = {}
    out = []
    for e in g.edges:
        a, b = e.w[e.i - 1] - 1, e.w[e.j - 1] - 1
        out.append((e, index[e.w], index[e.v], a, memos.setdefault((a, b), _Merged(a, b))))
    return out


def _failing_edge(tests: list, values: list[dict]) -> GkmEdge | None:
    """The first edge whose label t_a - t_b does not divide the difference of
    the values at its ends, given in vertex order: it divides exactly when
    the coefficients cancel on each exponent tuple once t_a is set to t_b."""
    for e, iw, iv, a, merged in tests:
        p, q = values[iw], values[iv]
        if p == q:
            continue
        if len(p) == len(q) == 1:
            # Two different terms cancel only with one coefficient on one tuple.
            ((ep, cp),), ((eq, cq),) = p.items(), q.items()
            if cp != cq or (merged[ep] if ep[a] else ep) != (merged[eq] if eq[a] else eq):
                return e
            continue
        acc: dict[tuple[int, ...], int] = {}
        for terms, sign in ((p, 1), (q, -1)):
            for exps, coeff in terms.items():
                key = merged[exps] if exps[a] else exps  # no t_a: merged already
                acc[key] = acc.get(key, 0) + sign * coeff
        if any(acc.values()):
            return e
    return None


def check_gkm_condition(g: GkmGraph, c: GkmClass) -> tuple[bool, GkmEdge | None]:
    """Divisibility of value differences by edge labels; first failure returned."""
    if g.n != c.n:
        raise ShapeMismatch("graph and class sizes differ")
    bad = _failing_edge(_edge_tests(g), [p.terms for p in c.values.values()])
    return bad is None, bad


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


class _Filtration:
    """The class ring of one special-form h at lambda = (0, 1, ..., n - 1),
    filtered by degree: below[d] spans the values at lambda of the classes of
    degree less than d, as rows over the n! vertices.

    The class ring is free over Q[t], and restriction to the vertices becomes
    onto once the edge labels, nonzero at any lambda with distinct entries,
    are inverted.  So the values of a homogeneous basis form a basis of
    Q^{n!}, and degree d adds b_d to the rank.  A class of degree d lies in
    the t-ideal exactly when it meets the edge conditions and its value lies
    in below[d], where the basis elements of degree d have no part.  The x
    and y classes generate the class ring, so degree d adds x_k (w(k) - 1 at
    w; the 0 keeps rows sparse) times each row that raised the rank in
    degree d - 1, and y_1..y_n in the degree of the y classes."""

    def __init__(self, h: HessenbergFunction):
        form = _generator_form(h)
        n, perms = h.n, all_permutations(h.n)
        self.top = sum(box_counts(h))
        self.edge_tests = _edge_tests(build_gkm_graph(h))
        # Per degree d, lambda^e for the exponent tuples e of degree d seen.
        self.powers: dict[int, dict[tuple[int, ...], int]] = {}
        xs = [[w[k] - 1 for w in perms] for k in range(n)]
        span = IntEchelon()
        self.below = [span.clone()]
        self.ranks, self.fixed = [], []  # per degree: b_d, and the x rows' part
        xrows, yrows = [dict.fromkeys(range(len(perms)), 1)], []
        for d in range(self.top + 1):
            if d:
                xrows = [{i: v * x[i] for i, v in row.items() if x[i]} for row in xrows for x in xs]
                yrows = [{i: v * x[i] for i, v in row.items() if x[i]} for row in yrows for x in xs]
            if d == len(form.factors):
                ys = (_class_y(h, k, form).values.values() for k in range(1, n + 1))
                yrows += [self.evaluate([p.terms for p in y])[1] for y in ys]
            # The x rows alone span the fixed part, as the sum of the y_k is a
            # polynomial in the x classes; the y rows go in on top of them.
            xrows = [row for row in xrows if span.insert(row)]
            yrows = [row for row in yrows if span.insert(row)]
            self.fixed.append(len(xrows))
            self.ranks.append(len(xrows) + len(yrows))
            self.below.append(span.clone())

    def evaluate(self, values: list[dict]) -> tuple[int | None, dict[int, int]]:
        """The degree d of the first term of the vertex values, given in vertex
        order, and their values at lambda as a row; (None, {}) when all are
        0, and ShapeMismatch when a term has a degree other than d."""
        d = powers = None
        row = {}
        for i, terms in enumerate(values):
            if terms:
                if powers is None:
                    d = sum(next(iter(terms)))
                    powers = self.powers.setdefault(d, {})
                value = 0
                for exps, coeff in terms.items():
                    power = powers.get(exps)
                    if power is None:
                        if sum(exps) != d:
                            raise ShapeMismatch("t-ideal test needs a homogeneous class")
                        power = powers[exps] = math.prod(a**e for a, e in enumerate(exps))
                    value += coeff * power
                if value:
                    row[i] = value
        return d, row


# One filtration per h, for the few most recent h: a long-lived process asking
# about many h keeps only these.
_FILTRATION_CACHE_SIZE = 4
_filtration = lru_cache(maxsize=_FILTRATION_CACHE_SIZE)(_Filtration)


def in_t_ideal(c: GkmClass, h: HessenbergFunction) -> bool:
    """Whether a homogeneous class lies in (t_1, ..., t_n) times the subring
    generated by the x and y classes.  Requires a special-form h.  Above the
    top degree below[d] is all of Q^{n!}: the edge conditions alone decide."""
    if c.n != h.n:
        raise ShapeMismatch(f"class on {c.n} variables, but h = {h} has n = {h.n}")
    f = _filtration(h)
    values = [p.terms for p in c.values.values()]
    d, row = f.evaluate(values)
    if d is None:
        return True
    return f.below[min(d, f.top + 1)].contains(row) and _failing_edge(f.edge_tests, values) is None


def _checked_half_degree(degree_2d: int) -> int:
    if checked_int(degree_2d, "the degree") < 0:
        raise OutOfRange(f"negative degree {degree_2d}")
    if degree_2d % 2:
        raise OddDegree(f"cohomological degree {degree_2d} is odd")
    return degree_2d // 2


def _level(h: HessenbergFunction, degree_2d: int) -> tuple[int, int]:
    """The quotient and fixed ranks in q-degree d = degree_2d / 2; both 0 above
    the top degree (the complex dimension), where H^{2d} vanishes."""
    d = _checked_half_degree(degree_2d)
    f = _filtration(h)
    return (f.ranks[d], f.fixed[d]) if d <= f.top else (0, 0)


def graded_quotient_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the degree-2d part of the class algebra modulo (t_1, ..., t_n)."""
    return _level(h, degree_2d)[0]


def sn_fixed_rank(h: HessenbergFunction, degree_2d: int) -> int:
    """Rank of the dot-action-invariant subspace of the same quotient."""
    return _level(h, degree_2d)[1]


def betti_numbers(h: HessenbergFunction) -> tuple[int, ...]:
    """Quotient ranks for q-degrees 0 through the top (sum of box counts)."""
    return tuple(_filtration(h).ranks)
