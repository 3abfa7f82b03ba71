"""The shared quotient-ring context behind transition_blocks and
permutation_orbits, and the exponent-tuple census of decomposition_counts,
against the per-column oracle in blocks_oracle.py.

The context builds the bases of h once, reads B1 and B2 monomials as their own
normal forms, and chains the pure-x parts P_e of the normal forms of x^e y_n
one variable at a time, on packed monomials through the rewriter that
normal_form uses.
"""

import gc
import heapq
import itertools
import random
import weakref

import pytest
from blocks_oracle import (
    dense_blocks,
    oracle_decomposition_counts,
    oracle_permutation_orbits,
    oracle_transition_blocks,
)
from rewrite_oracle import lifo_normal_form

import hesscomb.cohomology as cohomology
import hesscomb.gkm as gkm
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    _b1_exponents,
    _y_sector_xparts,
    basis_B1,
    basis_B2,
    basis_B3,
    decomposition_counts,
    normal_form,
    permutation_orbits,
    transition_blocks,
)
from hesscomb.errors import NonTerminating, NotInBasis
from hesscomb.hessenberg import new_hessenberg


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def one_row_forms(lo, hi):
    return [one_row(n, h1) for n in range(lo, hi + 1) for h1 in range(1, n + 1)]


def top_degree(h):
    return max(basis_B1(h).degrees() + basis_B3(h).degrees())


def fresh_rewriters():
    """Drop every context, with the rewriters they hold."""
    cohomology._one_row_ring.cache_clear()
    cohomology._rewriter.cache_clear()


def block_report(blocks):
    """Everything a dense block holds, in order, as text."""
    return [
        (degree, matrix, [e.to_json() for e in rows], [e.to_json() for e in cols])
        for degree, matrix, rows, cols in blocks
    ]


def sparse_columns(matrix):
    """The columns of a dense matrix as maps row -> nonzero entry."""
    width = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(width)]


def orbit_report(op):
    return ([[e.to_json() for e in orbit] for orbit in op.orbits],
            [e.to_json() for e in op.fixed])


def assert_reports_match_oracle(h):
    cohomology._one_row_ring.cache_clear()
    blocks = transition_blocks(h)
    expected = oracle_transition_blocks(h)
    assert dense_blocks(blocks) == expected
    assert block_report(dense_blocks(blocks)) == block_report(expected)
    # the sparse columns hold exactly the nonzero entries, B1 columns as {j: 1}
    for b, (_, matrix, rows, _) in zip(blocks, expected, strict=True):
        assert list(b.columns) == sparse_columns(matrix)
        b1 = sum(not next(iter(e.terms)).y for e in rows)
        assert b.columns[:b1] == tuple({j: 1} for j in range(b1))
    if h(1) < h.n:
        assert orbit_report(permutation_orbits(h)) == orbit_report(oracle_permutation_orbits(h))
    assert decomposition_counts(h) == oracle_decomposition_counts(h)


@pytest.mark.parametrize("h", one_row_forms(1, 6), ids=str)
def test_reports_match_per_column_oracle(h):
    assert_reports_match_oracle(h)


@pytest.mark.long
@pytest.mark.parametrize("h1", range(1, 8))
def test_reports_match_per_column_oracle_n7(h1):
    assert_reports_match_oracle(one_row(7, h1))


class RuleApplied(Exception):
    pass


def is_normal(m, h):
    """Whether the rewriter leaves m alone, read from its first step: m packs
    to one int (y_n is replaced on the way in) that the reducer gives back
    without a rule, which would drop it or raise RuleApplied as it pushes a
    lower monomial."""
    rw = cohomology._rewriter(h(1), h.n)
    packed = rw.pack(XYElement.monomial(m))
    if len(packed) != 1:
        return False
    try:
        return rw.reduce(dict(packed)) == packed
    except RuleApplied:
        return False


def test_basis_monomials_are_normal(monkeypatch):
    # why a B1 column of a block is a unit column, and only x^e y_n needs reducing
    for h in one_row_forms(2, 7):
        for basis in (basis_B1(h), basis_B2(h)):
            for e in basis.elements:
                assert normal_form(e, h) == e, (h, e.pretty())
    # and the converse: the rewriter leaves x^e alone only on B1, x^e y_k only
    # on B2 (k < n), and never x^e y_n.  Each box reaches one step past its
    # sector's bounds: e_j <= n - j for B1, e_1 = 0 and e_j <= j - 2 for B2.
    def refused(heap, item):
        raise RuleApplied

    monkeypatch.setattr(heapq, "heappush", refused)
    for h in one_row_forms(2, 6):
        n = h.n
        b1, xparts = set(_b1_exponents(h)), set(_y_sector_xparts(h))
        for exps in itertools.product(*(range(n - j + 2) for j in range(1, n + 1))):
            assert is_normal(XYMonomial(exps), h) == (exps in b1), (h, exps)
        for exps in itertools.product(range(2), *(range(j) for j in range(2, n + 1))):
            for y in range(1, n + 1):
                normal = is_normal(XYMonomial(exps, y), h)
                assert normal == (y < n and exps in xparts), (h, exps, y)


def test_blocks_and_orbits_share_one_y_n_chain(monkeypatch):
    # one packed-chain build per y-sector x-part, whichever report asks first,
    # and none of them through normal_form
    h = one_row(5, 3)
    calls = []
    real = cohomology._Rewriter.reduce

    def counting(rw, pending):
        calls.append(len(pending))
        return real(rw, pending)

    def refused(e, h):
        raise AssertionError("the y_n chain called normal_form")

    cohomology._one_row_ring.cache_clear()
    monkeypatch.setattr(cohomology._Rewriter, "reduce", counting)
    monkeypatch.setattr(cohomology, "normal_form", refused)
    try:
        permutation_orbits(h)
        transition_blocks(h)
        decomposition_counts(h)
    finally:
        cohomology._one_row_ring.cache_clear()
    assert len(calls) == len(_y_sector_xparts(h))


@pytest.mark.parametrize("bases_first", [False, True], ids=["cold", "bases-first"])
def test_one_construction_per_basis_element(bases_first, monkeypatch):
    # The ring builds each element of B1, B2 and B3 once and keeps nothing
    # outside itself, so building the bases just before saves it nothing;
    # the orbits then build only their x^e y_n.
    h = one_row(5, 3)
    sizes = [len(b) for b in (basis_B1(h), basis_B2(h), basis_B3(h))]
    cohomology._one_row_ring.cache_clear()
    if bases_first:
        basis_B1(h), basis_B2(h), basis_B3(h)
    # every build is counted, whether through the public constructor or
    # through the private path that skips its checks
    built = []
    real_check, real_build = XYElement.__post_init__, cohomology._element

    def counting_check(e):
        built.append(1)
        real_check(e)

    def counting_build(n, terms):
        built.append(1)
        return real_build(n, terms)

    monkeypatch.setattr(XYElement, "__post_init__", counting_check)
    monkeypatch.setattr(cohomology, "_element", counting_build)
    try:
        transition_blocks(h)
        assert len(built) == sum(sizes)
        built.clear()
        permutation_orbits(h)
        assert len(built) == len(_y_sector_xparts(h))
    finally:
        cohomology._one_row_ring.cache_clear()


def test_block_column_that_leaves_its_degree_raises(monkeypatch):
    # a pure-x part on a B1 monomial of another degree is refused, not
    # written into a row of the block; the packed monomial 0 is 1, of degree 0
    h = one_row(4, 2)
    cohomology._one_row_ring.cache_clear()
    monkeypatch.setattr(cohomology._OneRowRing, "part", lambda ring, exps: {0: 1})
    try:
        with pytest.raises(NotInBasis, match="leaves its degree"):
            transition_blocks(h)
    finally:
        cohomology._one_row_ring.cache_clear()


# --- the packed pure-x parts ----------------------------------------------------


def part_element(ring, exps):
    """P_exps - sum_{k<n} x^exps y_k, the normal form the ring gives x^exps y_n."""
    n = ring.n
    terms = {ring.rw.monomial(m): c for m, c in ring.part(exps).items()}
    terms.update({XYMonomial(exps, k): -1 for k in range(1, n)})
    return XYElement(n, terms)


def assert_parts_match_normal_form(h):
    cohomology._one_row_ring.cache_clear()
    ring = cohomology._one_row_ring(h)
    for exps in _y_sector_xparts(h):
        expected = normal_form(XYElement.monomial(XYMonomial(exps, h.n)), h)
        assert part_element(ring, exps) == expected, (h, exps)


@pytest.mark.parametrize("h", one_row_forms(2, 6), ids=str)
def test_packed_parts_match_normal_form(h):
    assert_parts_match_normal_form(h)


@pytest.mark.long
@pytest.mark.parametrize("h1", range(1, 8))
def test_packed_parts_match_normal_form_n7(h1):
    assert_parts_match_normal_form(one_row(7, h1))


def test_packed_reducer_matches_lifo_oracle():
    # any polynomial of degree up to the top, pure-x and y-sector terms with
    # every y index, not only the chain's; at n = 6 the LIFO loop can take
    # minutes above degree 6
    rng = random.Random(2017)
    for h in one_row_forms(2, 6):
        n, top, ydeg = h.n, top_degree(h), h(1) - 1
        for _ in range(6):
            degree = rng.randint(0, top if n < 6 else min(top, 6))
            terms = {}
            for _ in range(rng.randint(1, 6)):
                y = rng.choice([None, *range(1, n + 1)]) if degree >= ydeg else None
                exps = [0] * n
                for _ in range(degree - (ydeg if y else 0)):
                    exps[rng.randrange(n)] += 1
                terms[XYMonomial(tuple(exps), y)] = rng.choice([-3, -1, 1, 2])
            e = XYElement(n, terms)
            assert normal_form(e, h) == lifo_normal_form(e, h), (h, e.pretty())


def top_degree_inputs(h, rng):
    """Monomials of exactly the top degree: x_v^top for each v, and three
    random ones with no y and with each y index."""
    n, top = h.n, top_degree(h)
    out = [XYMonomial(tuple(top if j == v else 0 for j in range(n))) for v in range(n)]
    for y in (None, *range(1, n + 1)):
        for _ in range(3):
            exps = [0] * n
            for _ in range(top - (h(1) - 1 if y else 0)):
                exps[rng.randrange(n)] += 1
            out.append(XYMonomial(tuple(exps), y))
    return [XYElement.monomial(m) for m in out]


@pytest.mark.parametrize("values", [(2, 7, 7, 7, 7, 7, 7), (5, 7, 7, 7, 7, 7, 7)],
                         ids=lambda v: "".join(map(str, v[:2])))
def test_field_width_holds_every_exponent_reached(values, monkeypatch):
    # Every monomial the rewriter holds enters its heap through heapify or
    # heappush (negated), from the y_n chain or from normal_form inputs at
    # exactly the top degree.  Read here from the layout (n + 1 fields of
    # `width` bits, the y-sector flag above them, y index in field 0), its
    # exponents must stay at or below the top degree, under the guard bit.
    reached = []
    heapify, heappush = heapq.heapify, heapq.heappush

    def recording_heapify(heap):
        reached.extend(-m for m in heap if isinstance(m, int))
        heapify(heap)

    def recording_heappush(heap, item):
        if isinstance(item, int):
            reached.append(-item)
        heappush(heap, item)

    h = new_hessenberg(values)
    n, top = h.n, top_degree(h)
    inputs = top_degree_inputs(h, random.Random(7))
    fresh_rewriters()
    ring = cohomology._one_row_ring(h)
    monkeypatch.setattr(heapq, "heapify", recording_heapify)
    monkeypatch.setattr(heapq, "heappush", recording_heappush)
    try:
        for exps in _y_sector_xparts(h):
            ring.part(exps)
        chain = len(reached)
        for e in inputs:
            normal_form(e, h)
    finally:
        fresh_rewriters()
    w = ring.rw.width
    mask = (1 << w) - 1
    exponents, sectors = [], set()
    for m in reached:
        flag = m >> (w * (n + 1))
        assert flag in (0, 1) and (flag or m >> (w * n) == 0), m
        sectors.add(flag)
        exponents += [(m >> (w * i)) & mask for i in range(flag, n + flag)]
    assert chain < len(reached) and sectors == {0, 1}
    assert 0 < max(exponents) <= top < 2 ** (w - 1)


def test_packed_rule_that_does_not_descend_raises(monkeypatch):
    # a straightening rule that maps x_n x^e back onto itself would loop
    # forever; the packed reducer's descent check catches it
    real = cohomology._straighten_rule

    def cyclic(v, k, lo, hi, n):
        table = real(v, k, lo, hi, n)
        return table + (((0,) * n, 1),) if v == n else table

    h = one_row(4, 2)
    fresh_rewriters()
    monkeypatch.setattr(cohomology, "_straighten_rule", cyclic)
    try:
        with pytest.raises(NonTerminating):
            transition_blocks(h)
    finally:
        fresh_rewriters()


def test_caches_stay_within_their_bounds():
    fresh_rewriters()
    gkm._filtration.cache_clear()
    forms = one_row_forms(2, 5)
    assert len(forms) > cohomology._RING_CACHE_SIZE
    # The pure-x parts live on the ring and the packed rule tables and
    # output monomials on its rewriter, so they go when both are evicted:
    # live rings and rewriters never outnumber the entries.
    rings, rewriters = weakref.WeakSet(), weakref.WeakSet()
    for h in forms:
        transition_blocks(h)
        if h(1) < h.n:
            permutation_orbits(h)
        normal_form(basis_B3(h).elements[-1] if h(1) < h.n else XYElement.one(h.n), h)
        ring = cohomology._one_row_ring(h)
        assert len(ring._parts) == len(_y_sector_xparts(h))
        assert ring.rw is cohomology._rewriter(h(1), h.n)
        assert len(ring.rw.monomials) == len(basis_B1(h)) + len(basis_B2(h))
        rings.add(ring)
        rewriters.add(ring.rw)
        del ring
        gc.collect()
        for cached, live in ((cohomology._one_row_ring, rings), (cohomology._rewriter, rewriters)):
            assert len(live) <= cached.cache_info().currsize <= cohomology._RING_CACHE_SIZE
    assert cohomology._one_row_ring.cache_info().currsize == cohomology._RING_CACHE_SIZE
    assert cohomology._rewriter.cache_info().currsize == cohomology._RING_CACHE_SIZE
    fresh_rewriters()
    gc.collect()
    assert not rings and not rewriters
    forms = one_row_forms(2, 4)
    assert len(forms) > gkm._FILTRATION_CACHE_SIZE
    for h in forms:
        gkm.graded_quotient_rank(h, 0)
        assert gkm._filtration.cache_info().currsize <= gkm._FILTRATION_CACHE_SIZE
    assert gkm._filtration.cache_info().currsize == gkm._FILTRATION_CACHE_SIZE

    # Every h, a transpose-only one included, builds its own filtration once
    # while it stays cached, and an evicted filtration is freed, so live
    # filtrations never outnumber the entries.
    gkm._filtration.cache_clear()
    live = weakref.WeakSet()
    forms = [new_hessenberg(values) for values in (
        (1, 3, 3), (2, 2, 3), (1, 4, 4, 4), (3, 3, 3, 4), (2, 4, 4, 4), (3, 3, 4, 4),
    )]
    for h in forms:
        gkm.betti_numbers(h)
        gkm.in_t_ideal(gkm.class_x(h.n, 1), h)
        live.add(gkm._filtration(h))
        gc.collect()
        assert len(live) <= gkm._filtration.cache_info().currsize <= gkm._FILTRATION_CACHE_SIZE
    assert gkm._filtration.cache_info().misses == len(forms)
    gkm._filtration.cache_clear()
    gc.collect()
    assert not live
