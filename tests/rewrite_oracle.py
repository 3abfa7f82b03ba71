"""The LIFO oracle for normal_form: its own rule picker and worklist.

A monomial is the pair (exps, y): its exponent tuple and its y index, with
y = 0 for no y factor.  find_rewrite picks the rule for a monomial from the
library's rule tables (the only thing shared with ``hesscomb.cohomology``),
and lifo_normal_form pops the pending dict last-in-first-out, rewrites a
monomial again whenever more coefficient reaches it, and stops at a step
limit.  It keeps no order and drops no term above the top degree, so
wherever it finishes its answer is an independent check on the packed
rewriter's.  rewrite_key is the order the rules descend in, read on tuples.
"""

from operator import add, neg

from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    _difference_product,
    _exclusion_rule,
    _straighten_rule,
)
from hesscomb.errors import NonTerminating

LIFO_STEP_LIMIT = 5_000_000


def shifted(exps, y, table):
    """The terms of a rule table applied to x^exps, each with the y index y."""
    return [((tuple(map(add, exps, delta)), y), c) for delta, c in table]


def find_rewrite(exps, y, n, h1):
    """One rewriting step for the monomial (exps, y), as ((exps, y), coefficient)
    pairs, or None when it is normal."""
    if y:
        if y == n:
            # y_n = prod_{l=2}^{h(1)} (x_1 - x_l) - sum_{k<n} y_k
            out = shifted(exps, 0, _difference_product(h1, n))
            return out + [((exps, k), -1) for k in range(1, n)]
        if exps[0] > 0:
            return []
        if 0 not in exps[h1:]:
            # y_k x_{h(1)+1}...x_n = prod_{l=2}^{h(1)} (-x_l) * x_{h(1)+1}...x_n
            return shifted(exps, 0, _difference_product(h1, n)[-1:])
        for v in range(2, n + 1):
            if exps[v - 1] >= v - 1:
                return shifted(exps, y, _straighten_rule(v, v - 1, v, n, n))
        return None
    for v in range(n, 0, -1):
        if exps[v - 1] >= n + 1 - v:
            return shifted(exps, 0, _straighten_rule(v, n + 1 - v, 1, v, n))
    if 0 not in exps[:h1]:
        return shifted(exps, 0, _exclusion_rule(h1, n))
    return None


def rewrite_key(exps, y, n):
    """Position of the monomial (exps, y) in the rewrite order as a min-heap
    key (smallest key = highest monomial).  y_n monomials come first; then
    y_k (k < n), by the x-exponents read from x_1 upward, ties broken by k;
    then pure-x monomials, by the x-exponents read from x_n down.  Distinct
    monomials get distinct keys, and every rule of find_rewrite replaces a
    monomial by strictly lower ones."""
    if not y:
        return (2, *map(neg, reversed(exps)))
    if y == n:
        return (0, *map(neg, exps))
    return (1, *map(neg, exps), y)


def lifo_normal_form(e, h):
    """Reference normal form: the LIFO worklist with a step limit."""
    n = h.n
    h1 = h(1)
    pending = dict(e.terms)
    out = {}
    steps = 0
    while pending:
        m, c = pending.popitem()
        if c == 0:
            continue
        steps += 1
        if steps > LIFO_STEP_LIMIT:
            raise NonTerminating("rewrite step limit exceeded")
        replacement = find_rewrite(m.xexp, m.y or 0, n, h1)
        if replacement is None:
            out[m] = out.get(m, 0) + c
        else:
            for (exps2, y2), c2 in replacement:
                m2 = XYMonomial(exps2, y2 or None)
                pending[m2] = pending.get(m2, 0) + c * c2
    return XYElement(n, out)
