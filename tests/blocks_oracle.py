"""The per-column reports: the oracle for the shared quotient-ring context.

Each function takes the bases from ``basis_B1``/``basis_B2``/``basis_B3``,
groups them by degree and indexes their monomials itself, takes
``normal_form`` of every block column and every orbit element, and chooses
the orbits' fixed set by inserting every orbit element and then every B1
monomial into one echelon.  The orbits come in the order of their x-parts
read as exponent tuples from x_n down, enumerated here.  The context in
``hesscomb.cohomology`` slices its bases by degree and finds rows by
position, keeps the pure-x part P_e of each x^e y_n normal form on packed
monomials, and reads the fixed set from the trailing pivots of span{P_e}.
The answers must be equal.  The two share the packed reducer behind
``normal_form``, which chains P_e, unless a test patches ``normal_form``
here to the LIFO oracle of ``rewrite_oracle.py``.
"""

import itertools

from hesscomb.cohomology import (
    OrbitPartition,
    TransitionBlock,
    XYElement,
    XYMonomial,
    basis_B1,
    basis_B2,
    basis_B3,
    normal_form,
)
from hesscomb.linalg import IntEchelon
from hesscomb.symfunc import DecompositionCounts


def degree(e, h):
    """The degree of a homogeneous element: x-degree plus h(1) - 1 for a y."""
    (d,) = {sum(m.xexp) + (h(1) - 1 if m.y else 0) for m in e.terms}
    return d


def by_degree(basis, h):
    out = {}
    for e in basis.elements:
        out.setdefault(degree(e, h), []).append(e)
    return out


def monomial_index(elements):
    index = {}
    for pos, e in enumerate(elements):
        (m,) = e.terms
        index[m] = pos
    return index


def y_sector_xparts(h):
    """e_1 = 0, e_v <= v - 2, not divisible by x_{h(1)+1}...x_n; ordered by
    e_n first, then e_{n-1}, and so on."""
    n = h.n
    box = itertools.product(*(range(max(v - 1, 1)) for v in range(1, n + 1)))
    return sorted((e for e in box if any(v == 0 for v in e[h(1):])), key=lambda e: e[::-1])


def oracle_transition_blocks(h):
    d1, d2, d3 = (by_degree(b, h) for b in (basis_B1(h), basis_B2(h), basis_B3(h)))
    blocks = []
    for d in sorted(set(d1) | set(d3)):
        rows = d1.get(d, []) + d2.get(d, [])
        cols = d1.get(d, []) + d3.get(d, [])
        index = monomial_index(rows)
        matrix = [[0] * len(cols) for _ in rows]
        for j, e in enumerate(cols):
            for m, c in normal_form(e, h).terms.items():
                matrix[index[m]][j] = c
        blocks.append(TransitionBlock(2 * d, tuple(map(tuple, matrix)), tuple(rows), tuple(cols)))
    return blocks


def oracle_permutation_orbits(h):
    n = h.n
    b1, b2 = basis_B1(h), basis_B2(h)
    index = monomial_index(list(b1.elements) + list(b2.elements))
    ech = IntEchelon()
    orbits = []
    for exps in y_sector_xparts(h):
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
    counts1 = by_degree(basis_B1(h), h)
    counts3 = by_degree(basis_B3(h), h)
    by_deg = {}
    for d in sorted(set(counts1) | set(counts3)):
        m2 = len(counts3.get(d, [])) // (n - 1) if n > 1 else 0
        by_deg[d] = (len(counts1.get(d, [])), m2)
    return DecompositionCounts(n, by_deg)
