"""Oracles for ``hesscomb.gkm``.

- ``DegreeOracle``: the graded ranks and t-ideal membership of one q-degree,
  built from every t-monomial.  It is the exact oracle for the class-ring
  filtration at lambda = (0, 1, ..., n - 1) behind ``betti_numbers``,
  ``sn_fixed_rank`` and ``in_t_ideal``.
- ``check_gkm_condition``: the edge conditions one edge at a time, by
  polynomial subtraction and substitution, the oracle for the table-driven
  ``gkm.check_gkm_condition``.
- ``verify_relations``: the four ideal relations checked in the class
  algebra, the oracle for the vertex-by-vertex ``gkm.verify_relations``.
- ``dot_action`` and ``mirror``: S_n acting on classes, and the map that
  carries the classes of transpose(h) onto those of h.

In q-degree d the t-ideal is spanned directly by the rows t^a x^b and
t^a x^b y_k for every t-monomial a of positive degree, so it shares nothing
with the filtration, which works at one point.  Columns are (t-monomial,
vertex) pairs, t-monomial-major.  The full product x_1...x_n equals the
constant t_1...t_n, so x-exponent vectors with no zero entry are left out.
"""

import itertools
from math import prod

from hesscomb import gkm
from hesscomb.gkm import (
    GkmClass,
    _class_y,
    _generator_form,
    all_permutations,
    class_t,
    class_x,
)
from hesscomb.hessenberg import y_forms
from hesscomb.intpoly import IntPoly
from hesscomb.linalg import IntEchelon


def compositions(total, parts):
    return [a for a in itertools.product(range(total + 1), repeat=parts) if sum(a) == total]


class DegreeOracle:
    """Quotient rank, fixed-subspace rank and t-ideal membership in one
    q-degree d for a special-form h."""

    def __init__(self, h, d):
        n = h.n
        form = _generator_form(h)
        self.n = n
        self.d = d
        self.ydeg = len(form.factors)
        self.perms = all_permutations(n)
        self.vidx = {w: i for i, w in enumerate(self.perms)}
        self.midx = {mon: i for i, mon in enumerate(compositions(d, n))}
        self.yterms = {
            k: [(w, p.sorted_terms()) for w, p in _class_y(h, k, form).values.items() if p]
            for k in range(1, n + 1)
        }
        self.const_terms = [(w, [((0,) * n, 1)]) for w in self.perms]

        tideal = IntEchelon()
        for j in range(1, d + 1):
            rest = d - j
            for a in compositions(j, n):
                for b in self.x_parts(rest):
                    tideal.insert(self.make_row(self.const_terms, a, b))
                if rest >= self.ydeg:
                    for b in self.x_parts(rest - self.ydeg):
                        for k in range(1, n + 1):
                            tideal.insert(self.make_row(self.yterms[k], a, b))
        self.tideal = tideal

    def make_row(self, supp, a, b):
        entries = {}
        for w, terms in supp:
            base = list(a)
            for pos, e in enumerate(b):
                if e:
                    base[w[pos] - 1] += e
            for exps, coeff in terms:
                key = tuple(x + y for x, y in zip(base, exps))
                col = self.midx[key] * len(self.perms) + self.vidx[w]
                entries[col] = entries.get(col, 0) + coeff
        return entries

    def x_parts(self, total):
        for b in compositions(total, self.n):
            if total < self.n or min(b) == 0:
                yield b

    def ranks(self):
        """(quotient rank, fixed-subspace rank)."""
        n, d, zero_a = self.n, self.d, (0,) * self.n
        base = self.tideal.clone()
        shared = sum(base.insert(self.make_row(self.const_terms, zero_a, b))
                     for b in self.x_parts(d))
        rank = fixed = shared
        if d >= self.ydeg:
            parts = list(self.x_parts(d - self.ydeg))
            quo = base.clone()
            for b in parts:
                for k in range(1, n + 1):
                    rank += quo.insert(self.make_row(self.yterms[k], zero_a, b))
            all_y = [pair for k in range(1, n + 1) for pair in self.yterms[k]]
            for b in parts:
                fixed += base.insert(self.make_row(all_y, zero_a, b))
        return rank, fixed

    def in_t_ideal(self, c):
        """Membership of a class homogeneous of degree d."""
        entries = {}
        for w, poly in c.values.items():
            for exps, coeff in poly.sorted_terms():
                col = self.midx[exps] * len(self.perms) + self.vidx[w]
                entries[col] = entries.get(col, 0) + coeff
        return self.tideal.contains(entries)


def substitute_equal(p, a, b):
    """p with the variable t_a set equal to t_b (1-based a and b)."""
    acc = {}
    for e, c in p.terms.items():
        f = list(e)
        f[b - 1] += f[a - 1]
        f[a - 1] = 0
        acc[tuple(f)] = acc.get(tuple(f), 0) + c
    return IntPoly(p.nvars, acc)


def check_gkm_condition(g, c):
    """(whether c meets the edge conditions, the first edge of g.edges that
    fails): t_a - t_b divides a difference exactly when the difference
    vanishes with t_a set equal to t_b."""
    for e in g.edges:
        diff = c.values[e.w] - c.values[e.v]
        if not substitute_equal(diff, e.w[e.i - 1], e.w[e.j - 1]).is_zero():
            return False, e
    return True, None


def verify_relations(h):
    """The four ideal relations, per applicable form, as identities between
    whole classes built with class arithmetic.  The y-classes are read through
    the module attribute ``gkm._class_y``, so a test that replaces it changes
    them here as well."""
    forms = y_forms(h)
    assert forms, h
    n = h.n
    one = GkmClass.constant(n, 1)
    xs = {k: class_x(n, k) for k in range(1, n + 1)}
    ts = {k: class_t(n, k) for k in range(1, n + 1)}
    report = {}
    for form in forms:
        ys = {k: gkm._class_y(h, k, form) for k in range(1, n + 1)}
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


def compose(u, w):
    """(u o w)(i) = u(w(i)), permutations in one-line notation."""
    return tuple(u[w[i] - 1] for i in range(len(w)))


def inverse(v):
    return tuple(sorted(range(1, len(v) + 1), key=lambda i: v[i - 1]))


def permute_vars(p, v):
    """The substitution t_i -> t_{v(i)} applied to an IntPoly."""
    vinv = inverse(v)
    return IntPoly(p.nvars, {tuple(e[a - 1] for a in vinv): c for e, c in p.terms.items()})


def dot_action(v, c):
    """(v . c)(w) = c(v^{-1} w) with t_i -> t_{v(i)}: the dot action of S_n."""
    vinv = inverse(v)
    return GkmClass(c.n, {w: permute_vars(c.values[compose(vinv, w)], v) for w in c.values})


def mirror(c):
    """w -> w0 w w0 with t_a -> t_{n+1-a}: a class of transpose(h) as one of
    h.  The map sends each edge of one moment graph onto an edge of the
    other and its label to minus a label, so it carries the class ring and
    the t-ideal of transpose(h) onto those of h, degree by degree."""
    w0 = tuple(range(c.n, 0, -1))
    return GkmClass(c.n, {w: permute_vars(c.values[compose(w0, compose(w, w0))], w0)
                          for w in c.values})
