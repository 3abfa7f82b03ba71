"""The per-column reports: the oracle for the shared quotient-ring context.

Each function rebuilds the bases it needs, takes ``normal_form`` of every
block column and every orbit element, and chooses the orbits' fixed set by
inserting every orbit element and then every B1 monomial into one echelon.
It shares nothing with the context in ``hesscomb.cohomology``, which builds
the bases once per h, keeps the pure-x part P_e of each x^e y_n normal form
on packed monomials, chained through its own reducer, and reads the fixed
set from the trailing pivots of span{P_e}.  The answers must be equal.
"""

from hesscomb.cohomology import (
    OrbitPartition,
    TransitionBlock,
    XYElement,
    XYMonomial,
    _basis_index,
    _by_degree,
    _coordinates_in,
    _y_sector_xparts,
    basis_B1,
    basis_B2,
    basis_B3,
    normal_form,
)
from hesscomb.linalg import IntEchelon
from hesscomb.symfunc import DecompositionCounts


def oracle_transition_blocks(h):
    d1, d2, d3 = _by_degree(basis_B1(h)), _by_degree(basis_B2(h)), _by_degree(basis_B3(h))
    blocks = []
    for d in sorted(set(d1) | set(d3)):
        rows = d1.get(d, []) + d2.get(d, [])
        cols = d1.get(d, []) + d3.get(d, [])
        index = _basis_index(rows)
        columns = [_coordinates_in(normal_form(e, h), index, len(rows)) for e in cols]
        matrix = tuple(
            tuple(columns[j][i] for j in range(len(cols))) for i in range(len(rows))
        )
        blocks.append(TransitionBlock(2 * d, matrix, tuple(rows), tuple(cols)))
    return blocks


def oracle_permutation_orbits(h):
    n = h.n
    b1, b2 = basis_B1(h), basis_B2(h)
    index = _basis_index(list(b1.elements) + list(b2.elements))
    ech = IntEchelon()
    orbits = []
    for exps in _y_sector_xparts(h):
        orbit = [XYElement.monomial(XYMonomial(exps, k)) for k in range(1, n + 1)]
        for e in orbit:
            ech.insert({index[m]: c for m, c in normal_form(e, h).terms.items()})
        orbits.append(tuple(orbit))
    fixed = []
    for e in b1.elements:
        (mono,) = e.terms.keys()
        if ech.insert({index[mono]: 1}):
            fixed.append(e)
    return OrbitPartition(tuple(orbits), tuple(fixed))


def oracle_decomposition_counts(h):
    n = h.n
    counts1 = _by_degree(basis_B1(h))
    counts3 = _by_degree(basis_B3(h))
    by_degree = {}
    for d in sorted(set(counts1) | set(counts3)):
        m2 = len(counts3.get(d, [])) // (n - 1) if n > 1 else 0
        by_degree[d] = (len(counts1.get(d, [])), m2)
    return DecompositionCounts(n, by_degree)
