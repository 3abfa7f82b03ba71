"""The shared quotient-ring context behind transition_blocks, permutation_orbits
and decomposition_counts, against the per-column oracle in blocks_oracle.py.

The context builds the bases of h once, reads B1 and B2 monomials as their own
normal forms, and chains the normal forms of x^e y_n one variable at a time.
"""

import pytest
from blocks_oracle import (
    oracle_decomposition_counts,
    oracle_permutation_orbits,
    oracle_transition_blocks,
)

import hesscomb.cohomology as cohomology
import hesscomb.gkm as gkm
from hesscomb.cohomology import (
    _find_rewrite,
    _y_sector_xparts,
    basis_B1,
    basis_B2,
    decomposition_counts,
    permutation_orbits,
    transition_blocks,
)
from hesscomb.hessenberg import new_hessenberg


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def one_row_forms(lo, hi):
    return [one_row(n, h1) for n in range(lo, hi + 1) for h1 in range(1, n + 1)]


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


@pytest.mark.parametrize("h", one_row_forms(2, 6), ids=str)
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


def test_blocks_and_orbits_share_one_y_n_chain(monkeypatch):
    # one normal form per y-sector x-part, whichever report asks first
    h = one_row(5, 3)
    calls = []
    real = cohomology.normal_form

    def counting(e, h):
        calls.append(e)
        return real(e, h)

    cohomology._one_row_ring.cache_clear()
    monkeypatch.setattr(cohomology, "normal_form", counting)
    try:
        permutation_orbits(h)
        transition_blocks(h)
        decomposition_counts(h)
    finally:
        cohomology._one_row_ring.cache_clear()
    assert len(calls) == len(_y_sector_xparts(h))


def test_caches_stay_within_their_bounds():
    cohomology._one_row_ring.cache_clear()
    gkm._rank_chain.cache_clear()
    forms = one_row_forms(2, 5)
    assert len(forms) > cohomology._RING_CACHE_SIZE
    for h in forms:
        decomposition_counts(h)
        assert cohomology._one_row_ring.cache_info().currsize <= cohomology._RING_CACHE_SIZE
    assert cohomology._one_row_ring.cache_info().currsize == cohomology._RING_CACHE_SIZE
    forms = one_row_forms(2, 4)
    assert len(forms) > gkm._CHAIN_CACHE_SIZE
    for h in forms:
        gkm.graded_quotient_rank(h, 0)
        assert gkm._rank_chain.cache_info().currsize <= gkm._CHAIN_CACHE_SIZE
    assert gkm._rank_chain.cache_info().currsize == gkm._CHAIN_CACHE_SIZE
