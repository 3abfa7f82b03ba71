"""The rewrite order behind normal_form, checked against the LIFO oracle.

normal_form takes monomials highest first in the order of _rewrite_key and
rewrites each one once.  lifo_normal_form below is the earlier loop: it pops
the pending dict last-in-first-out, rewrites a monomial again whenever more
coefficient reaches it, and stops at a step limit.  It stays here as the
reference the ordered loop must reproduce wherever the old loop finishes.
"""

import itertools
import random

import blocks_oracle
import pytest

import hesscomb.cohomology as cohomology
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    _find_rewrite,
    _rewrite_key,
    basis_B1,
    basis_B2,
    basis_B3,
    coordinates,
    multiply,
    normal_form,
    permutation_orbits,
    transition_blocks,
)
from hesscomb.errors import NonTerminating
from hesscomb.hessenberg import new_hessenberg

LIFO_STEP_LIMIT = 5_000_000


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
        replacement = _find_rewrite(m.xexp, m.y or 0, n, h1)
        if replacement is None:
            out[m] = out.get(m, 0) + c
        else:
            for (exps2, y2), c2 in replacement:
                m2 = XYMonomial(exps2, y2 or None)
                pending[m2] = pending.get(m2, 0) + c * c2
    return XYElement(n, out)


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def top_degree(n, h1):
    return (h1 - 1) + (n - 1) * (n - 2) // 2


def exponent_vectors(n, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=n):
        if sum(exps) <= max_degree:
            yield exps


def random_element(rng, n):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        y = rng.choice([None] + list(range(1, n + 1)))
        exps = [0] * n
        for _ in range(rng.randrange(8 if y is None else 6)):
            exps[rng.randrange(n)] += 1
        terms[XYMonomial(tuple(exps), y)] = rng.choice([-3, -2, -1, 1, 2, 5])
    return XYElement(n, terms)


def b3_element(exps, k):
    """The B3 element x^exps * (y_{k+1} - y_1)."""
    return XYElement(len(exps), {XYMonomial(exps, k + 1): 1, XYMonomial(exps, 1): -1})


def orbit_data(op):
    return (op.orbits, op.fixed)


# --- the order ---------------------------------------------------------------------


def test_every_rule_descends_in_the_rewrite_order():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            top = top_degree(n, h1)
            monos = [XYMonomial(exps) for exps in exponent_vectors(n, top)]
            for exps in exponent_vectors(n, top - (h1 - 1)):
                monos += [XYMonomial(exps, k) for k in range(1, n + 1)]
            keys = {}
            for m in monos:
                key = _rewrite_key(m.xexp, m.y or 0, n)
                assert keys.setdefault(key, m) == m, "two monomials share a key"
                for m2, _ in _find_rewrite(m.xexp, m.y or 0, n, h1) or ():
                    assert _rewrite_key(*m2, n) > key, (n, h1, m, m2)


def test_each_monomial_is_rewritten_once(monkeypatch):
    seen = []

    def counting(exps, y, n, h1):
        seen.append((exps, y))
        return _find_rewrite(exps, y, n, h1)

    monkeypatch.setattr(cohomology, "_find_rewrite", counting)
    h = one_row(5, 3)
    for e in basis_B3(h).elements:
        seen.clear()
        normal_form(e, h)
        assert len(seen) == len(set(seen))


def test_non_descending_rule_raises(monkeypatch):
    # a rule that maps x2 back onto itself would loop forever; the order catches it
    def cyclic(exps, y, n, h1):
        return [((exps, y), 1)] if exps == (0, 1, 0) else _find_rewrite(exps, y, n, h1)

    monkeypatch.setattr(cohomology, "_find_rewrite", cyclic)
    with pytest.raises(NonTerminating):
        normal_form(XYElement.monomial(XYMonomial((0, 1, 0))), one_row(3, 2))


# --- the ordered loop against the LIFO oracle --------------------------------------


def test_random_elements_match_lifo_oracle():
    rng = random.Random(20241011)
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            for _ in range(20):
                e = random_element(rng, n)
                assert normal_form(e, h) == lifo_normal_form(e, h), (n, h1, e.pretty())


@pytest.mark.parametrize(
    "values",
    [[h1, 5, 5, 5, 5] for h1 in range(1, 6)] + [[5] + [6] * 5, [6] * 6],
    ids=lambda v: "".join(map(str, v[:2])),
)
def test_blocks_and_orbits_match_lifo_oracle(values, monkeypatch):
    # the reports read the y_n normal forms from the ring's packed chain; the
    # per-column oracle takes the normal form of every column and orbit
    # element, here through the LIFO loop
    h = new_hessenberg(values)
    cohomology._one_row_ring.cache_clear()
    blocks = transition_blocks(h)
    orbits = orbit_data(permutation_orbits(h)) if h(1) < h.n else None
    lifo_calls = []

    def counting_lifo(e, h):
        lifo_calls.append(e)
        return lifo_normal_form(e, h)

    monkeypatch.setattr(blocks_oracle, "normal_form", counting_lifo)
    assert blocks_oracle.oracle_transition_blocks(h) == blocks
    assert lifo_calls
    if orbits is not None:
        lifo_calls.clear()
        assert orbit_data(blocks_oracle.oracle_permutation_orbits(h)) == orbits
        assert lifo_calls


# --- products the LIFO loop could not finish ---------------------------------------


def test_product_beyond_the_lifo_step_limit():
    # At (5,6,6,6,6,6) the LIFO loop exceeds 5,000,000 steps on this product
    # of two B3 elements (about 100 s) and raises NonTerminating; the ordered
    # loop finishes in well under a second.
    h = new_hessenberg([5, 6, 6, 6, 6, 6])
    a = b3_element((0, 0, 1, 2, 2, 0), 2)
    b = b3_element((0, 0, 1, 0, 2, 0), 3)
    assert a in basis_B3(h).elements and b in basis_B3(h).elements
    nf = normal_form(multiply(h, a, b), h)
    union = list(basis_B1(h).elements) + list(basis_B2(h).elements)
    coordinates(nf, union)
    assert nf == normal_form(multiply(h, b, a), h)


# --- monomial objects -------------------------------------------------------------


def test_normal_form_builds_one_monomial_per_output_term(monkeypatch):
    # the rules run on exponent tuples; an XYMonomial is built only for the output
    h = one_row(5, 3)
    cases = [(e, h) for e in basis_B3(h).elements]
    h6 = new_hessenberg([5, 6, 6, 6, 6, 6])
    a = b3_element((0, 0, 1, 2, 2, 0), 2)
    b = b3_element((0, 0, 1, 0, 2, 0), 3)
    cases.append((multiply(h6, a, b), h6))
    made = []

    def counting(*args):
        made.append(args)
        return XYMonomial(*args)

    monkeypatch.setattr(cohomology, "XYMonomial", counting)
    for e, h in cases:
        made.clear()
        nf = normal_form(e, h)
        assert len(made) == len(nf.terms), e.pretty()
