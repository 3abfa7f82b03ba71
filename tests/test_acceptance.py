"""End-to-end acceptance suite.

Each test below exercises one headline guarantee of the package and prints
one pass/fail line under ``pytest -v``.  Two guarantees are stated in a
stronger form than the underlying mathematics supports; those two are kept
as strict xfail tests next to a passing test of the corrected statement,
so the suite stays honest about what holds and what does not.
"""

import json
import math
from collections import Counter

import pytest
from fracspan import FracSpan

from hesscomb import goldens, poincare
from hesscomb.bijections import (
    phi_b1,
    phi_b3,
    phi_nilpotent,
    psi_b1,
    psi_b3,
    psi_nilpotent,
    trace_phi_b1,
    trace_phi_b3,
    trace_phi_nilpotent,
)
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    basis_B1,
    basis_B2,
    basis_B3,
    basis_nilpotent,
    check_unimodular,
    coordinates,
    decomposition_counts,
    normal_form,
    permutation_orbits,
    transition_blocks,
)
from hesscomb.errors import DegenerateForm, FormMismatch
from hesscomb.gkm import (
    all_permutations,
    build_gkm_graph,
    check_gkm_condition,
    class_x,
    class_y_one_row,
    class_y_transpose,
    sn_fixed_rank,
    verify_relations,
)
from hesscomb.hessenberg import (
    all_hessenberg_functions,
    classify_form,
    inc_graph,
    new_hessenberg,
)
from hesscomb.qpoly import QPolynomial
from hesscomb.symfunc import SymFn, change_basis, csf_by_coloring, csf_schur_by_ptableaux
from hesscomb.tableaux import Partition, enumerate_p_tableaux, inversions


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def special_forms(max_n):
    for n in range(1, max_n + 1):
        for h in all_hessenberg_functions(n):
            if not classify_form(h).is_general:
                yield h


def test_acceptance_schur_coefficient_and_inversion_multiset():
    """h=(4,5,5,5,5): the hook-shape Schur coefficient and the tableau census
    behind it."""
    h = new_hessenberg([4, 5, 5, 5, 5])
    shape = Partition((2, 1, 1, 1))

    schur = change_basis(csf_by_coloring(inc_graph(h)), "schur")
    assert schur.coefficient(shape) == QPolynomial({3: 1, 4: 2, 5: 2, 6: 1})

    tabs = enumerate_p_tableaux(h, shape)
    assert len(tabs) == 6
    assert sorted(inversions(h, t).count for t in tabs) == [3, 4, 4, 5, 5, 6]


def test_acceptance_golden_classes_entrywise_and_gkm_condition():
    """The stored x2 and y2 classes for h=(2,3,3), in both forms, are
    reproduced entry for entry and satisfy the edge divisibility condition."""
    h = new_hessenberg([2, 3, 3])
    graph = build_gkm_graph(h)
    built = {
        "fig2a": class_x(3, 2),
        "fig2b": class_y_one_row(h, 2),
        "fig3a": class_x(3, 2),
        "fig3b": class_y_transpose(h, 2),
    }
    for key, cls in built.items():
        expected = goldens.lookup(key)["values"]
        actual = {
            "".join(str(v) for v in w): cls[w].pretty() for w in all_permutations(3)
        }
        assert actual == expected, key
        holds, bad_edge = check_gkm_condition(graph, cls)
        assert holds, (key, bad_edge)

    by_key = {r.key: r for r in goldens.verify_all()}
    for key in built:
        assert by_key[key].ok, by_key[key].detail


def test_acceptance_relation_identities_special_forms_n5():
    """All four ideal relations hold as exact vertex-tuple identities, for
    each form a given h matches, for every special-form h with n <= 5."""
    checked = 0
    for h in special_forms(5):
        tag = classify_form(h)
        report = verify_relations(h)
        expected_forms = (tag.one_row_h1 is not None) + (tag.transpose_m is not None)
        assert len(report) == 4 * expected_forms, h.values
        assert all(report.values()), (h.values, report)
        checked += 1
    assert checked == 21


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="transition blocks are not unimodular in general: whenever the "
    "difference basis has elements in degree 2d the block determinant is "
    "+-n^g with g >= 1 (already the stored degree-0 example for h=(1,3,3) "
    "has determinant -3); the companion test pins down the determinant law",
)
def test_acceptance_all_transition_blocks_unimodular():
    """Stated guarantee: every transition block (and transpose analogue) for
    n <= 5 is unimodular.  Kept verbatim; fails on the first mixed block."""
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            for b in transition_blocks(one_row(n, h1)):
                assert check_unimodular(b), (n, h1, b.degree, b.determinant())


def test_acceptance_transition_block_determinant_law():
    """What actually holds for n <= 5: every block determinant is +-n^g where
    g counts the distinct x-parts of the difference basis in that degree,
    unimodularity is exactly g = 0, and the h(1)=1 degree-0 block reproduces
    the stored 3x3 pattern."""
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            b3 = basis_B3(h)
            ydeg = b3.y_degree()
            groups = {}
            for e in b3.elements:
                m = next(iter(e.terms))
                groups.setdefault(m.qdegree(ydeg), set()).add(m.xexp)
            for b in transition_blocks(h):
                g = len(groups.get(b.degree // 2, ()))
                assert abs(b.determinant()) == n**g, (n, h1, b.degree)
                assert check_unimodular(b) == (g == 0)

    block0 = next(b for b in transition_blocks(one_row(3, 1)) if b.degree == 0)
    assert block0.matrix == ((1, 0, 1), (0, 1, -1), (0, -1, -2))
    assert block0.matrix == tuple(
        tuple(row) for row in goldens.lookup("fig4")["matrix"]
    )


def test_acceptance_poincare_routes_agree_n6():
    """closed_form == via_ptableaux == via_basis_degrees for every one-row h
    with n <= 6, all equal to the graded quotient rank for n <= 4, with
    Poin(1) = n! throughout and the documented sample value for h=(2,3,3)."""
    for n in range(2, 7):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            a = poincare.closed_form(h)
            assert a == poincare.via_ptableaux(h) == poincare.via_basis_degrees(h)
            assert a(1) == math.factorial(n), h.values
            if n <= 4:
                assert a == poincare.via_gkm(h), h.values
    assert poincare.closed_form(new_hessenberg([2, 3, 3])) == QPolynomial(
        {0: 1, 1: 4, 2: 1}
    )


def test_acceptance_bijection_round_trips_n6_and_worked_traces():
    """Both tableau correspondences and the pair correspondence are mutually
    inverse on their whole domains for n <= 6, and the three stored worked
    examples are reproduced step for step."""
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            for e in basis_nilpotent(h).elements:
                m = next(iter(e.terms))
                assert psi_nilpotent(h, phi_nilpotent(h, m)) == m

    for n in range(2, 7):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            for e in basis_B1(h).elements:
                m = next(iter(e.terms))
                assert psi_b1(h, phi_b1(h, m)) == m
            for e in basis_B3(h).elements:
                assert psi_b3(h, phi_b3(h, e)) == e

    nil = goldens.lookup("ex-nilpotent-insertion")
    h = new_hessenberg(nil["h"])
    assert trace_phi_nilpotent(h, XYMonomial(tuple(nil["input"]["x"]))) == nil

    b1 = goldens.lookup("ex-b1-insertion")
    h = new_hessenberg(b1["h"])
    assert trace_phi_b1(h, XYMonomial(tuple(b1["input"]["x"]))) == b1

    b3 = goldens.lookup("ex-b3-insertion")
    h = new_hessenberg(b3["h"])
    element = XYElement.from_json(json.dumps(b3["input"]))
    assert trace_phi_b3(h, element) == b3


def test_acceptance_decomposition_orbit_counts_and_e_positivity():
    """Multiplicity formulas for the two constituent types, orbit and fixed
    counts with a full-rank check at n <= 4, and the elementary-basis
    evaluation of the coloring series at q=1, for every one-row h, n <= 6."""
    for n in range(2, 7):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            triv = h1 * math.factorial(n - 1)
            std = (n - h1) * math.factorial(n - 2)
            fixed_count = n * (h1 - 1) * math.factorial(n - 2)

            dc = decomposition_counts(h)
            assert dc.totals() == (triv, std)
            assert dc.total_dimension() == math.factorial(n)

            if h1 < n:
                op = permutation_orbits(h)
                assert len(op.orbits) == std
                assert len(op.fixed) == fixed_count
            else:
                with pytest.raises(DegenerateForm):
                    permutation_orbits(h)

            elem = change_basis(csf_by_coloring(inc_graph(h)), "elementary").at_q(1)
            terms = {}
            if std:
                terms[Partition((n - 1, 1))] = QPolynomial.from_int(std)
            if fixed_count:
                terms[Partition((n,))] = QPolynomial.from_int(fixed_count)
            assert elem == SymFn(n, "elementary", terms), h.values

    for n, h1 in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        h = one_row(n, h1)
        op = permutation_orbits(h)
        union = list(basis_B1(h).elements) + list(basis_B2(h).elements)
        span = FracSpan()
        inserted = 0
        for orbit in op.orbits:
            assert len(orbit) == n
            for e in orbit:
                vec = coordinates(normal_form(e, h), union)
                inserted += span.insert(dict(enumerate(vec)))
        for e in op.fixed:
            inserted += span.insert(dict(enumerate(coordinates(e, union))))
        assert span.rank == inserted == math.factorial(n)


def test_acceptance_schur_expansion_consistency_n5():
    """The coloring series re-expanded in the Schur basis agrees with the
    tableau-generated expansion for every h with n <= 5, and for one-row h
    only the column shape and the one-box-wider hook carry coefficients."""
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            from_colorings = change_basis(csf_by_coloring(inc_graph(h)), "schur")
            assert from_colorings == csf_schur_by_ptableaux(h), h.values

            if classify_form(h).one_row_h1 is not None and n >= 2:
                allowed = {Partition((1,) * n), Partition((2,) + (1,) * (n - 2))}
                assert set(from_colorings.terms) <= allowed, h.values


@pytest.mark.xfail(
    strict=True,
    raises=FormMismatch,
    reason="the fixed-subring rank is only defined for the two special "
    "shapes of h: no generating set for the equivariant ring is available "
    "for general h, so sn_fixed_rank rejects e.g. the staircase h=(1,2,3); "
    "the companion test covers every h where the rank is defined",
)
def test_acceptance_rank_matches_census_for_every_h_n4():
    """Stated guarantee: the per-degree census of the nilpotent basis equals
    sn_fixed_rank for n <= 4 and all h.  Kept verbatim; general h raises."""
    for n in range(1, 5):
        for h in all_hessenberg_functions(n):
            census = Counter(
                2 * sum(next(iter(e.terms)).xexp) for e in basis_nilpotent(h).elements
            )
            for degree, count in census.items():
                assert sn_fixed_rank(h, degree) == count, (h.values, degree)


def test_acceptance_rank_census_special_forms_and_product_formula():
    """What actually holds: the per-degree nilpotent census equals
    sn_fixed_rank for every special-form h with n <= 4, and the census total
    matches the box-count product for every h with n <= 7."""
    for h in special_forms(4):
        census = Counter(
            2 * sum(next(iter(e.terms)).xexp) for e in basis_nilpotent(h).elements
        )
        top = max(census) if census else 0
        for degree in range(0, top + 2, 2):
            assert sn_fixed_rank(h, degree) == census.get(degree, 0), (
                h.values,
                degree,
            )

    for n in range(1, 8):
        for h in all_hessenberg_functions(n):
            expected = math.prod(h(k) - k + 1 for k in range(1, n + 1))
            assert len(basis_nilpotent(h)) == expected, h.values
