"""The packed rewriter behind normal_form, checked against the LIFO oracle.

normal_form takes packed monomials highest first and rewrites each one once.
The LIFO oracle in rewrite_oracle.py picks its rules itself and rewrites a
monomial again whenever more coefficient reaches it, up to a step limit; it
shares only the rule tables with the library, and the ordered loop must
reproduce it wherever it finishes.
"""

import heapq
import itertools
import random

import blocks_oracle
import pytest
from rewrite_oracle import find_rewrite, lifo_normal_form, rewrite_key

import hesscomb.cohomology as cohomology
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
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


def fresh_rewriters():
    """Drop every rewriter, with the contexts that hold one."""
    cohomology._rewriter.cache_clear()
    cohomology._one_row_ring.cache_clear()


@pytest.fixture
def pops(monkeypatch):
    """The packed monomials the rewriter pops from its heap, in order."""
    seen = []
    real = heapq.heappop

    def recording(heap):
        item = real(heap)
        seen.append(-item)
        return item

    monkeypatch.setattr(heapq, "heappop", recording)
    return seen


# --- the order ---------------------------------------------------------------------


def test_every_rule_descends_in_the_rewrite_order(pops):
    # Packing is one-to-one, and it puts the y sector above the pure-x one.
    # Reducing any monomial up to the top degree pops strictly falling ints,
    # so every rule the rewriter applies lowers the int or leaves the y
    # sector.  The oracle's rules descend in its own order too.
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            rw = cohomology._rewriter(h1, n)
            top = top_degree(n, h1)
            monos = [XYMonomial(exps) for exps in exponent_vectors(n, top)]
            for exps in exponent_vectors(n, top - (h1 - 1)):
                monos += [XYMonomial(exps, k) for k in range(1, n + 1)]
            packed, keys = {}, {}
            for m in monos:
                if m.y != n:
                    (p,) = rw.pack(XYElement.monomial(m))
                    assert packed.setdefault(p, m) == m, "two monomials share an int"
                pops.clear()
                normal_form(XYElement.monomial(m), h)
                assert all(a > b for a, b in zip(pops, pops[1:])), (n, h1, m)
                key = rewrite_key(m.xexp, m.y or 0, n)
                assert keys.setdefault(key, m) == m, "two monomials share a key"
                for m2, _ in find_rewrite(m.xexp, m.y or 0, n, h1) or ():
                    assert rewrite_key(*m2, n) > key, (n, h1, m, m2)
            pure = [p for p, m in packed.items() if m.y is None]
            assert max(pure) < min(p for p, m in packed.items() if m.y), (n, h1)


def test_each_monomial_is_rewritten_once(pops):
    h = one_row(5, 3)
    for e in basis_B3(h).elements:
        pops.clear()
        normal_form(e, h)
        assert pops and len(pops) == len(set(pops))


def test_non_descending_rule_raises(monkeypatch):
    # A straightening rule that maps a monomial back onto itself would loop
    # forever; the descent check catches it in either sector: x3 by the
    # pure-x rule for x_3, x2*y1 by the y-sector rule for x_2.
    real = cohomology._straighten_rule
    h = one_row(3, 2)
    for lo, m in [(1, XYMonomial((0, 0, 1))), (2, XYMonomial((0, 1, 0), 1))]:
        def cyclic(v, k, lo_, hi, n, lo=lo):
            table = real(v, k, lo_, hi, n)
            return table + (((0,) * n, 1),) if lo_ == lo else table

        fresh_rewriters()
        monkeypatch.setattr(cohomology, "_straighten_rule", cyclic)
        try:
            with pytest.raises(NonTerminating, match="which is not lower"):
                normal_form(XYElement.monomial(m), h)
        finally:
            monkeypatch.setattr(cohomology, "_straighten_rule", real)
            fresh_rewriters()
        e = XYElement.monomial(m)
        assert normal_form(e, h) == lifo_normal_form(e, h)


# --- terms above the top degree ----------------------------------------------------


def test_terms_above_the_top_degree_vanish_at_once(pops):
    # the rules keep the degree and B1, B2 have nothing above the top, so
    # such terms are dropped before the heap; rewriting the first element
    # rule by rule takes about 52 s to reach 0
    h = one_row(5, 2)
    top = top_degree(5, 2)
    for terms in ({XYMonomial((0, 100, 0, 0, 0)): 1, XYMonomial((0, 0, 100, 0, 0), 3): 1},
                  {XYMonomial((0, 0, 0, 0, top + 1)): 2},
                  {XYMonomial((0, 0, 0, 1, top - 1), 4): 1},
                  {XYMonomial((0, 0, 0, 0, top), 5): -1}):
        pops.clear()
        assert normal_form(XYElement(5, terms), h).is_zero()
        assert not pops


def test_terms_above_the_top_degree_match_lifo_oracle():
    rng = random.Random(3)
    for n in range(2, 5):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            top = top_degree(n, h1)
            for degree, y in itertools.product(range(top + 1, top + 4), [None, *range(1, n + 1)]):
                xdegree = degree - (h1 - 1 if y else 0)
                exps = [0] * n
                for _ in range(xdegree):
                    exps[rng.randrange(n)] += 1
                e = XYElement.monomial(XYMonomial(tuple(exps), y))
                assert normal_form(e, h) == lifo_normal_form(e, h), (h, e.pretty())


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
    [[h1] + [n] * (n - 1) for n in range(1, 6) for h1 in range(1, n + 1)]
    + [[5] + [6] * 5, [6] * 6],
    ids=lambda v: "".join(map(str, v[:2])),
)
def test_blocks_and_orbits_match_lifo_oracle(values, monkeypatch):
    # the reports read the y_n normal forms from the ring's packed chain; the
    # per-column oracle takes the normal form of every column and orbit
    # element, here through the LIFO loop
    h = new_hessenberg(values)
    fresh_rewriters()
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
    # of two B3 elements (about 100 s) and raises NonTerminating.  Its degree,
    # 9 + 7, lies above the top degree 14, so it is 0, and normal_form drops
    # it before any rewriting.
    h = new_hessenberg([5, 6, 6, 6, 6, 6])
    a = b3_element((0, 0, 1, 2, 2, 0), 2)
    b = b3_element((0, 0, 1, 0, 2, 0), 3)
    assert a in basis_B3(h).elements and b in basis_B3(h).elements
    nf = normal_form(multiply(h, a, b), h)
    union = list(basis_B1(h).elements) + list(basis_B2(h).elements)
    coordinates(nf, union)
    assert nf.is_zero() and normal_form(multiply(h, b, a), h).is_zero()


# --- monomial objects -------------------------------------------------------------


def test_normal_form_builds_one_monomial_per_output_term(monkeypatch):
    # the rules run on packed ints; a fresh rewriter builds an XYMonomial
    # only for each output term, and keeps it for the next call
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
    try:
        for e, h in cases:
            fresh_rewriters()
            made.clear()
            nf = normal_form(e, h)
            assert len(made) == len(nf.terms), e.pretty()
            made.clear()
            assert normal_form(e, h) == nf and not made, e.pretty()
    finally:
        fresh_rewriters()


def test_normal_form_builds_no_monomial_once_the_ring_exists(monkeypatch):
    # the ring hands its B1 and B2 monomials to the rewriter, so a product
    # reduced after a block or orbit report builds no XYMonomial at all
    made = []

    def counting(*args):
        made.append(args)
        return XYMonomial(*args)

    h = new_hessenberg([5, 6, 6, 6, 6, 6])
    cases = [multiply(h, b3_element((0, 0, 1, 2, 2, 0), 2), b3_element((0, 0, 1, 0, 2, 0), 3))]
    cases += list(basis_B3(h).elements)
    fresh_rewriters()
    try:
        ring = cohomology._one_row_ring(h)
        basis = {m: m for e in ring.b1 + ring.b2 for m in e.terms}
        monkeypatch.setattr(cohomology, "XYMonomial", counting)
        for e in cases:
            nf = normal_form(e, h)
            assert not made, e.pretty()
            assert all(basis[m] is m for m in nf.terms), e.pretty()
    finally:
        fresh_rewriters()
