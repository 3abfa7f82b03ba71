"""The shared quotient-ring context behind transition_blocks and
permutation_orbits, and the exponent-tuple census of decomposition_counts,
against the per-column oracle in blocks_oracle.py.

The context builds the bases of h once, reads B1 and B2 monomials as their own
normal forms, and chains the pure-x parts P_e of the normal forms of x^e y_n
one variable at a time, on packed monomials through its own reducer.
"""

import gc
import heapq
import itertools
import random
import weakref

import pytest
from blocks_oracle import (
    oracle_decomposition_counts,
    oracle_permutation_orbits,
    oracle_transition_blocks,
)

import hesscomb.cohomology as cohomology
import hesscomb.gkm as gkm
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    _b1_exponents,
    _find_rewrite,
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


def block_report(blocks):
    """Everything a block holds, in order, as text."""
    return [
        (b.degree, b.matrix, [e.to_json() for e in b.row_elements],
         [e.to_json() for e in b.col_elements])
        for b in blocks
    ]


def orbit_report(op):
    return ([[e.to_json() for e in orbit] for orbit in op.orbits],
            [e.to_json() for e in op.fixed])


def assert_reports_match_oracle(h):
    cohomology._one_row_ring.cache_clear()
    blocks = transition_blocks(h)
    expected = oracle_transition_blocks(h)
    assert blocks == expected
    assert block_report(blocks) == block_report(expected)
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


def test_basis_monomials_are_normal():
    # why a B1 column of a block is a unit column, and only x^e y_n needs reducing
    for h in one_row_forms(2, 7):
        for basis in (basis_B1(h), basis_B2(h)):
            for e in basis.elements:
                (m,) = e.terms
                assert _find_rewrite(m.xexp, m.y or 0, h.n, h(1)) is None, (h, m)
    # and the converse: the engine leaves x^e alone only on B1, x^e y_k only
    # on B2 (k < n), and never x^e y_n.  Each box reaches one step past its
    # sector's bounds: e_j <= n - j for B1, e_1 = 0 and e_j <= j - 2 for B2.
    for h in one_row_forms(2, 6):
        n, h1 = h.n, h(1)
        b1, xparts = set(_b1_exponents(h)), set(_y_sector_xparts(h))
        for exps in itertools.product(*(range(n - j + 2) for j in range(1, n + 1))):
            assert (_find_rewrite(exps, 0, n, h1) is None) == (exps in b1), (h, exps)
        for exps in itertools.product(range(2), *(range(j) for j in range(2, n + 1))):
            for y in range(1, n + 1):
                normal = _find_rewrite(exps, y, n, h1) is None
                assert normal == (y < n and exps in xparts), (h, exps, y)


def test_blocks_and_orbits_share_one_y_n_chain(monkeypatch):
    # one packed-chain build per y-sector x-part, whichever report asks first,
    # and none of them through normal_form
    h = one_row(5, 3)
    calls = []
    real = cohomology._OneRowRing._reduce

    def counting(ring, pending):
        calls.append(len(pending))
        return real(ring, pending)

    def refused(e, h):
        raise AssertionError("the y_n chain called normal_form")

    cohomology._one_row_ring.cache_clear()
    monkeypatch.setattr(cohomology._OneRowRing, "_reduce", counting)
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
    built = []
    real = XYElement.__post_init__

    def counting(e):
        built.append(1)
        real(e)

    monkeypatch.setattr(XYElement, "__post_init__", counting)
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
    terms = {XYMonomial(ring._unpack(m)): c for m, c in ring.part(exps).items()}
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


def test_packed_reducer_matches_normal_form_on_pure_x_polynomials():
    # any pure-x polynomial of degree up to the top, not only the chain's
    rng = random.Random(2017)
    for h in one_row_forms(2, 6):
        ring = cohomology._one_row_ring(h)
        n, top = h.n, top_degree(h)
        for _ in range(6):
            degree = rng.randint(0, top)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exps = [0] * n
                for _ in range(degree):
                    exps[rng.randrange(n)] += 1
                terms[tuple(exps)] = rng.choice([-3, -1, 1, 2])
            e = XYElement(n, {XYMonomial(exps): c for exps, c in terms.items()})
            packed = ring._reduce({ring._pack(exps): c for exps, c in terms.items()})
            got = XYElement(n, {XYMonomial(ring._unpack(m)): c for m, c in packed.items()})
            assert got == normal_form(e, h), (h, e.pretty())


@pytest.mark.parametrize("values", [(2, 7, 7, 7, 7, 7, 7), (5, 7, 7, 7, 7, 7, 7)],
                         ids=lambda v: "".join(map(str, v[:2])))
def test_field_width_holds_every_exponent_reached(values, monkeypatch):
    # every monomial the reducer holds enters its heap through heapify or
    # heappush (negated); its exponents must stay below the guard bit
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
    cohomology._one_row_ring.cache_clear()
    ring = cohomology._one_row_ring(h)
    monkeypatch.setattr(heapq, "heapify", recording_heapify)
    monkeypatch.setattr(heapq, "heappush", recording_heappush)
    try:
        for exps in _y_sector_xparts(h):
            ring.part(exps)
    finally:
        cohomology._one_row_ring.cache_clear()
    largest = max(max(ring._unpack(m)) for m in reached)
    top = top_degree(h)
    assert 0 < largest <= top < 2 ** (ring.width - 1)
    # packing is exact on every monomial reached
    assert all(ring._pack(ring._unpack(m)) == m for m in reached)


def test_packed_rule_that_does_not_descend_raises(monkeypatch):
    # a straightening rule that maps x_n x^e back onto itself would loop
    # forever; the packed reducer's descent check catches it
    real = cohomology._straighten_rule

    def cyclic(v, k, lo, hi, n):
        table = real(v, k, lo, hi, n)
        return table + (((0,) * n, 1),) if v == n else table

    h = one_row(4, 2)
    cohomology._one_row_ring.cache_clear()
    monkeypatch.setattr(cohomology, "_straighten_rule", cyclic)
    try:
        with pytest.raises(NonTerminating):
            transition_blocks(h)
    finally:
        cohomology._one_row_ring.cache_clear()


def test_caches_stay_within_their_bounds():
    cohomology._one_row_ring.cache_clear()
    gkm._filtration.cache_clear()
    forms = one_row_forms(2, 5)
    assert len(forms) > cohomology._RING_CACHE_SIZE
    # The packed rule tables and pure-x parts live on the ring, so they go
    # when the ring is evicted: live rings never outnumber the entries.
    rings = weakref.WeakSet()
    for h in forms:
        transition_blocks(h)
        if h(1) < h.n:
            permutation_orbits(h)
        ring = cohomology._one_row_ring(h)
        assert len(ring._parts) == len(_y_sector_xparts(h))
        assert len(ring._straighten) == h.n + 1
        rings.add(ring)
        del ring
        gc.collect()
        assert len(rings) <= cohomology._one_row_ring.cache_info().currsize
        assert cohomology._one_row_ring.cache_info().currsize <= cohomology._RING_CACHE_SIZE
    assert cohomology._one_row_ring.cache_info().currsize == cohomology._RING_CACHE_SIZE
    cohomology._one_row_ring.cache_clear()
    gc.collect()
    assert not rings
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
