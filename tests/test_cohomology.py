"""Tests for the quotient-ring model: monomials, bases, normal forms, blocks.

The heavy checks are oracle-backed: straightening rules are certified by exact
ideal-membership over the rationals (Macaulay-style elimination built here,
independent of the library's integer echelon), and the rewrite engine is
cross-checked against the GKM model through the t-ideal membership test.
"""

import itertools
import json
import math
import random

import pytest
from fracspan import FracSpan
from smith import smith_invariants

from hesscomb.cohomology import (
    TransitionBlock,
    XYElement,
    XYMonomial,
    _element_key,
    basis_B1,
    basis_B2,
    basis_B3,
    basis_nilpotent,
    basis_transpose,
    check_unimodular,
    coordinates,
    decomposition_counts,
    degree_gf,
    element_to_gkm,
    mirror_element,
    multiply,
    normal_form,
    permutation_orbits,
    transition_blocks,
)
from hesscomb.errors import (
    DegenerateForm,
    FormMismatch,
    NotInBasis,
    NotSquare,
    ShapeMismatch,
)
from hesscomb.gkm import in_t_ideal
from hesscomb.hessenberg import (
    all_hessenberg_functions,
    classify_form,
    new_hessenberg,
    transpose,
)
from hesscomb.poincare import closed_form
from hesscomb.qpoly import QPolynomial, q_int


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def mono(exps, y=None):
    return XYElement.monomial(XYMonomial(tuple(exps), y))


def xvar(n, i):
    exps = [0] * n
    exps[i - 1] = 1
    return mono(exps)


def yvar(n, k):
    return mono((0,) * n, k)


# --- polynomial dictionaries for the Macaulay membership oracle ----------------


def poly_mul(a, b, n):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def elementary_sym(j, variables, n):
    out = {}
    for combo in itertools.combinations(variables, j):
        exps = [0] * n
        for v in combo:
            exps[v - 1] = 1
        out[tuple(exps)] = 1
    return out


def complete_sym(k, variables, n):
    out = {}
    for combo in itertools.combinations_with_replacement(variables, k):
        exps = [0] * n
        for v in combo:
            exps[v - 1] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + 1
    return out


def monomials_of_degree(d, variables, n):
    if d == 0:
        yield (0,) * n
        return
    for combo in itertools.combinations_with_replacement(variables, d):
        exps = [0] * n
        for v in combo:
            exps[v - 1] += 1
        yield tuple(exps)


def ideal_contains(target, generators, degree, variables, n):
    """Exact membership of a homogeneous polynomial in a homogeneous ideal,
    tested degree by degree with a dense Macaulay span."""
    cols = {m: i for i, m in enumerate(sorted(set(monomials_of_degree(degree, variables, n))))}
    span = FracSpan()
    for gen, gdeg in generators:
        if gdeg > degree:
            continue
        for m in set(monomials_of_degree(degree - gdeg, variables, n)):
            shifted = poly_mul(gen, {m: 1}, n)
            span.insert({cols[e]: c for e, c in shifted.items()})
    return span.contains({cols[e]: c for e, c in target.items()})


# --- monomials and elements ----------------------------------------------------


def test_monomial_validation_and_pretty():
    with pytest.raises(ShapeMismatch):
        XYMonomial(())
    with pytest.raises(ShapeMismatch):
        XYMonomial((1, -1, 0))
    with pytest.raises(ShapeMismatch):
        XYMonomial((0, 0), 3)
    assert XYMonomial((0, 0, 0)).pretty() == "1"
    assert XYMonomial((1, 0, 2), 2).pretty() == "x1*x3^2*y2"
    m = XYMonomial((1, 2, 0), 1)
    assert m.n == 3
    assert m.xdegree() == 3
    assert m.qdegree(2) == 5
    assert XYMonomial((1, 2, 0)).qdegree(2) == 3


def test_element_arithmetic():
    n = 3
    a = xvar(n, 1) + xvar(n, 2).scale(2)
    b = xvar(n, 1).scale(-1) + yvar(n, 1)
    s = a + b
    assert s.coefficient(XYMonomial((1, 0, 0))) == 0
    assert s.coefficient(XYMonomial((0, 1, 0))) == 2
    assert s.coefficient(XYMonomial((0, 0, 0), 1)) == 1
    assert (a - a).is_zero()
    assert (-a) + a == XYElement.zero(n)
    assert XYElement.one(n).coefficient(XYMonomial((0, 0, 0))) == 1
    with pytest.raises(ShapeMismatch):
        a + XYElement.one(2)


def test_multiply_x_by_y_adds_exponents():
    h = one_row(3, 2)
    assert multiply(h, xvar(3, 1), yvar(3, 2)) == mono((1, 0, 0), 2)


def test_element_json_round_trip():
    e = xvar(2, 1).scale(2) - yvar(2, 2)
    text = e.to_json()
    data = json.loads(text)
    assert {"c": 2, "x": [1, 0], "y": None} in data["terms"]
    assert {"c": -1, "x": [0, 0], "y": 2} in data["terms"]
    assert XYElement.from_json(text) == e
    with pytest.raises(ShapeMismatch):
        XYElement.from_json('{"terms": []}')


def test_multiply_reduces_y_squares():
    h = one_row(3, 2)
    y2 = yvar(3, 2)
    assert multiply(h, y2, y2) == mono((0, 1, 0), 2).scale(-1)
    assert multiply(h, yvar(3, 1), y2).is_zero()
    full = one_row(3, 3)
    assert multiply(full, y2, y2) == mono((0, 1, 1), 2)


def test_multiply_matches_gkm_up_to_t_ideal():
    h = one_row(3, 2)
    rng = random.Random(3)
    pool = [xvar(3, 1), xvar(3, 2), yvar(3, 1), yvar(3, 2), yvar(3, 3)]
    for _ in range(8):
        a = pool[rng.randrange(len(pool))] + pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        prod = multiply(h, a, b)
        diff = element_to_gkm(prod, h) - element_to_gkm(a, h) * element_to_gkm(b, h)
        assert in_t_ideal(diff, h)


def test_multiply_commutes_and_associates_up_to_normal_form():
    h = one_row(3, 2)
    a = xvar(3, 1) + yvar(3, 2)
    b = xvar(3, 2) - yvar(3, 1)
    c = yvar(3, 3) + XYElement.one(3)
    ab = multiply(h, a, b)
    ba = multiply(h, b, a)
    assert normal_form(ab, h) == normal_form(ba, h)
    left = multiply(h, ab, c)
    right = multiply(h, a, multiply(h, b, c))
    assert normal_form(left, h) == normal_form(right, h)


# --- the four bases -------------------------------------------------------------


def test_bases_for_n3_one_row():
    h = one_row(3, 2)
    assert [e.pretty() for e in basis_B1(h).elements] == ["1", "x1", "x2", "x1^2"]
    assert [e.pretty() for e in basis_B2(h).elements] == ["y2", "y1"]
    assert [e.pretty() for e in basis_B3(h).elements] == ["y2 - y1", "y3 - y1"]
    assert [e.pretty() for e in basis_nilpotent(h).elements] == [
        "1",
        "x1",
        "x2",
        "x1*x2",
    ]
    tb1, tb2, tb3 = basis_transpose(h)
    assert [e.pretty() for e in tb1.elements] == ["1", "x2", "x3", "x3^2"]
    assert [e.pretty() for e in tb2.elements] == ["y2", "y1"]
    assert [e.pretty() for e in tb3.elements] == ["y2 - y1", "y3 - y1"]


def test_full_flag_has_empty_y_sector():
    h = one_row(3, 3)
    assert len(basis_B1(h)) == 6
    assert len(basis_B2(h)) == 0
    assert len(basis_B3(h)) == 0
    tb1, tb2, tb3 = basis_transpose(h)
    assert len(tb1) == 6 and len(tb2) == 0 and len(tb3) == 0


def test_basis_census_one_row():
    for n in range(2, 7):
        fact = math.factorial(n - 1)
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            b1, b2, b3 = basis_B1(h), basis_B2(h), basis_B3(h)
            assert len(b1) == h1 * fact
            assert len(b2) == (n - h1) * fact
            assert len(b3) == len(b2)
            names = {e.pretty() for e in b1.elements} | {e.pretty() for e in b2.elements}
            assert len(names) == math.factorial(n)


def test_basis_census_transpose():
    for n in range(2, 7):
        fact = math.factorial(n - 1)
        for m in range(1, n + 1):
            h = new_hessenberg([n - 1] * (n - m) + [n] * m)
            tb1, tb2, tb3 = basis_transpose(h)
            assert len(tb1) == m * fact
            assert len(tb2) == (n - m) * fact
            assert len(tb3) == len(tb2)


def test_nilpotent_basis_census_all_h():
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            expected = math.prod(h(k) - k + 1 for k in range(1, n + 1))
            assert len(basis_nilpotent(h)) == expected


def test_degree_generating_functions():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            gf = degree_gf(basis_B1(h)) + degree_gf(basis_B2(h))
            assert gf == closed_form(h)
            assert degree_gf(basis_B2(h)) == degree_gf(basis_B3(h))
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            expected = QPolynomial.one()
            for k in range(1, n + 1):
                expected = expected * q_int(h(k) - k + 1)
            assert degree_gf(basis_nilpotent(h)) == expected


def explicit_basis_transpose(h):
    """Reference construction of the transpose bases from their own staircase
    bounds: x_i up to i-1 avoiding x_{n-m+1}...x_n for TransposeB1; x-parts
    with x_i up to n-1-i (none on x_n) avoiding x_1...x_{n-m}, times y_k or
    y_{k+1} - y_1, for TransposeB2 and TransposeB3."""
    n = h.n
    m = classify_form(h).transpose_m

    def staircase(bounds):
        ranges = [range(b + 1) for b in reversed(bounds)]
        return [tuple(reversed(exps)) for exps in itertools.product(*ranges)]

    def divisible(exps, positions):
        return all(exps[p - 1] >= 1 for p in positions)

    b1 = [
        mono(exps)
        for exps in staircase([j - 1 for j in range(1, n + 1)])
        if not divisible(exps, range(n - m + 1, n + 1))
    ]
    xparts = [
        exps
        for exps in staircase([n - 1 - u for u in range(1, n)] + [0])
        if not divisible(exps, range(1, n - m + 1))
    ]
    b2 = [mono(exps, k) for exps in xparts for k in range(1, n)]
    b3 = [
        XYElement(n, {XYMonomial(exps, k + 1): 1, XYMonomial(exps, 1): -1})
        for exps in xparts
        for k in range(1, n)
    ]
    out = []
    for label, elems in (("TransposeB1", b1), ("TransposeB2", b2), ("TransposeB3", b3)):
        elems = sorted(elems, key=lambda e: _element_key(e, m - 1))
        out.append((label, h, tuple(elems)))
    return out


def test_bases_come_in_element_key_order():
    """The bases sort their exponent tuples by degree alone, relying on the
    staircase's reversed-lex order for the rest of _element_key."""
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            elems = list(basis_nilpotent(h).elements)
            assert elems == sorted(elems, key=lambda e: _element_key(e, 0)), h
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            for b in (basis_B1(h), basis_B2(h), basis_B3(h)):
                elems = list(b.elements)
                assert elems == sorted(elems, key=lambda e: _element_key(e, h1 - 1)), (h, b.label)


def test_basis_transpose_matches_explicit_construction():
    """The mirrored one-row bases equal the explicit construction: labels,
    elements and order, for every transpose-form h with n <= 6."""
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            if not classify_form(h).is_transpose:
                continue
            got = [(b.label, b.h, b.elements) for b in basis_transpose(h)]
            assert got == explicit_basis_transpose(h), h


def test_transpose_degree_gf_matches_one_row_poincare():
    for n in range(2, 6):
        for m in range(1, n + 1):
            h = new_hessenberg([n - 1] * (n - m) + [n] * m)
            tb1, tb2, _ = basis_transpose(h)
            assert degree_gf(tb1) + degree_gf(tb2) == closed_form(transpose(h))


def test_basis_requires_matching_form():
    general = new_hessenberg([2, 3, 4, 4])
    with pytest.raises(FormMismatch):
        basis_B1(general)
    with pytest.raises(FormMismatch):
        basis_transpose(one_row(4, 2))
    assert len(basis_nilpotent(general)) == 2 * 2 * 2 * 1


# --- normal form ---------------------------------------------------------------


def test_normal_form_anchor_values():
    h = one_row(3, 2)
    one = XYElement.one(3)
    assert normal_form(one, h) == one
    expected = (
        xvar(3, 1) - xvar(3, 2) - yvar(3, 1) - yvar(3, 2)
    )
    assert normal_form(yvar(3, 3), h) == expected
    assert normal_form(mono((0, 2, 0)), h) == mono((2, 0, 0)).scale(-2)
    assert normal_form(multiply(h, xvar(3, 1), yvar(3, 1)), h).is_zero()


def test_normal_form_idempotent_and_in_basis_span():
    rng = random.Random(11)
    for n, h1 in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        h = one_row(n, h1)
        allowed = set()
        for b in (basis_B1(h), basis_B2(h)):
            for e in b.elements:
                allowed.update(e.terms)
        for _ in range(12):
            terms = {}
            for _ in range(3):
                exps = tuple(rng.randrange(3) for _ in range(n))
                y = rng.choice([None] + list(range(1, n + 1)))
                terms[XYMonomial(exps, y)] = rng.randrange(-4, 5) or 1
            e = XYElement(n, terms)
            nf = normal_form(e, h)
            assert normal_form(nf, h) == nf
            assert set(nf.terms) <= allowed


def test_elementary_symmetric_polynomials_vanish():
    for n in range(2, 6):
        for h1 in (1, 2, n):
            h = one_row(n, h1)
            for j in range(1, n + 1):
                e = XYElement(
                    n,
                    {
                        XYMonomial(exps): c
                        for exps, c in elementary_sym(j, range(1, n + 1), n).items()
                    },
                )
                assert normal_form(e, h).is_zero()


def test_defining_relations_vanish():
    for n, h1 in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 3)]:
        h = one_row(n, h1)
        for k in range(1, n + 1):
            assert normal_form(multiply(h, xvar(n, 1), yvar(n, k)), h).is_zero()
        total = XYElement.zero(n)
        for k in range(1, n + 1):
            total = total + yvar(n, k)
        product = XYElement.one(n)
        for l in range(2, h1 + 1):
            product = multiply(h, product, xvar(n, 1) - xvar(n, l))
        assert normal_form(total - product, h).is_zero()


def test_y_squares_against_sum_relation():
    # multiplying the sum relation by y_k isolates y_k^2 since cross terms die
    for n, h1 in [(3, 1), (3, 2), (4, 2)]:
        h = one_row(n, h1)
        for k in range(1, n + 1):
            yk = yvar(n, k)
            product = yk
            for l in range(2, h1 + 1):
                product = multiply(h, product, xvar(n, 1) - xvar(n, l))
            assert normal_form(multiply(h, yk, yk) - product, h) == XYElement.zero(n)


# --- rewrite soundness against the GKM model ------------------------------------


def test_rewrite_soundness_via_t_ideal_n3():
    for h1 in (1, 2, 3):
        h = one_row(3, h1)
        for exps in itertools.product(range(4), range(3), range(3)):
            for y in (None, 1, 2, 3):
                m = XYMonomial(exps, y)
                e = XYElement.monomial(m)
                diff = e - normal_form(e, h)
                assert in_t_ideal(element_to_gkm(diff, h), h)


def test_rewrite_soundness_via_t_ideal_n4_sampled():
    h = one_row(4, 2)
    rng = random.Random(17)
    for _ in range(20):
        y = rng.choice([None, 1, 2, 3, 4])
        budget = 5 if y is None else 3
        exps = [0, 0, 0, 0]
        for _ in range(rng.randrange(budget + 1)):
            exps[rng.randrange(4)] += 1
        e = XYElement.monomial(XYMonomial(tuple(exps), y))
        diff = e - normal_form(e, h)
        assert in_t_ideal(element_to_gkm(diff, h), h)


def test_basis_elements_nonzero_in_quotient():
    cases = [one_row(3, 1), one_row(3, 2), one_row(3, 3), one_row(4, 2)]
    for h in cases:
        for b in (basis_B1(h), basis_B2(h)):
            for e in b.elements:
                if h.n == 4 and max(m.qdegree(b.y_degree()) for m in e.terms) > 4:
                    continue
                assert normal_form(e, h) == e
                assert not in_t_ideal(element_to_gkm(e, h), h)


# --- straightening rules certified by exact ideal membership --------------------


def test_x_straightening_members_of_full_ideal():
    for n in range(2, 6):
        all_vars = range(1, n + 1)
        gens = [(elementary_sym(j, all_vars, n), j) for j in range(1, n + 1)]
        for v in range(1, n + 1):
            k = n + 1 - v
            target = complete_sym(k, range(1, v + 1), n)
            assert ideal_contains(target, gens, k, all_vars, n)


def test_y_straightening_members_of_reduced_ideal():
    # y-sector reductions work modulo x_1 = 0, leaving the coinvariant ideal
    # of the last n-1 variables
    for n in range(2, 6):
        tail = range(2, n + 1)
        gens = [(elementary_sym(j, tail, n), j) for j in range(1, n)]
        for v in range(2, n + 1):
            k = v - 1
            target = complete_sym(k, range(v, n + 1), n)
            assert ideal_contains(target, gens, k, tail, n)


def test_exclusion_rule_member_of_one_row_ideal():
    # x_1 (x_1 - x_2) ... (x_1 - x_{h1}) generates the rewrite for x_1...x_{h1}
    for n, h1 in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        h = one_row(n, h1)
        product = xvar(n, 1)
        for l in range(2, h1 + 1):
            product = multiply(h, product, xvar(n, 1) - xvar(n, l))
        assert normal_form(product, h).is_zero()
        if n <= 4:
            assert in_t_ideal(element_to_gkm(product, h), h)


# --- transition blocks -----------------------------------------------------------


def test_transition_blocks_n3():
    h = one_row(3, 2)
    blocks = transition_blocks(h)
    assert [b.degree for b in blocks] == [0, 2, 4]
    assert [b.size for b in blocks] == [1, 4, 1]
    assert [b.determinant() for b in blocks] == [1, -3, 1]
    mid = blocks[1]
    assert [e.pretty() for e in mid.row_elements] == ["x1", "x2", "y2", "y1"]
    assert [e.pretty() for e in mid.col_elements] == ["x1", "x2", "y2 - y1", "y3 - y1"]
    assert mid.matrix == ((1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, -1), (0, 0, -1, -2))
    assert blocks[0].to_csv() == "degree,0\n1\n"
    assert not check_unimodular(mid)
    assert check_unimodular(blocks[0]) and check_unimodular(blocks[2])


def test_transition_block_first_degree_h1_equals_one():
    h = one_row(3, 1)
    blocks = transition_blocks(h)
    assert blocks[0].degree == 0
    assert blocks[0].matrix == ((1, 0, 1), (0, 1, -1), (0, -1, -2))
    assert blocks[0].determinant() == -3
    assert blocks[1].determinant() == -3


def b3_group_counts(h):
    b3 = basis_B3(h)
    ydeg = b3.y_degree()
    seen = {}
    for e in b3.elements:
        m = next(iter(e.terms))
        seen.setdefault(m.qdegree(ydeg), set()).add(m.xexp)
    return {d: len(parts) for d, parts in seen.items()}


def test_transition_determinant_law():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            groups = b3_group_counts(h)
            for b in transition_blocks(h):
                g = groups.get(b.degree // 2, 0)
                assert abs(b.determinant()) == n**g
                assert check_unimodular(b) == (g == 0)


def test_smith_invariants_example():
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert smith_invariants([[0, 0], [0, 3]]) == [3]


def test_transition_block_cokernels():
    # Finer than |det| = n^g: each block's cokernel is (Z/n)^g.
    for n in range(2, 7):
        for h1 in range(1, n):
            h = one_row(n, h1)
            groups = b3_group_counts(h)
            for b in transition_blocks(h):
                g = groups.get(b.degree // 2, 0)
                assert smith_invariants(b.matrix) == [1] * (b.size - g) + [n] * g, (
                    n, h1, b.degree)


def test_mirror_element_involution():
    e = mono((2, 0, 1), 2) - mono((0, 1, 0))
    assert mirror_element(mirror_element(e)) == e
    assert mirror_element(mono((2, 0, 1))) == mono((1, 0, 2))


def test_block_determinant_requires_square():
    b = TransitionBlock(0, ((1, 0),), (), ())
    with pytest.raises(NotSquare):
        b.determinant()


def test_coordinates_rejects_foreign_monomials():
    h = one_row(3, 2)
    rows = list(basis_B1(h).elements)
    with pytest.raises(NotInBasis):
        coordinates(yvar(3, 1), rows)


# --- module decomposition and orbits ---------------------------------------------


def test_decomposition_counts_examples():
    h = one_row(3, 2)
    dc = decomposition_counts(h)
    assert dc.by_degree == {0: (1, 0), 1: (2, 1), 2: (1, 0)}
    assert dc.totals() == (4, 1)
    assert dc.total_dimension() == 6
    dc4 = decomposition_counts(one_row(4, 2))
    assert dc4.totals() == (12, 4)
    full = decomposition_counts(one_row(4, 4))
    assert full.totals()[1] == 0


def test_decomposition_dimension_identity():
    for n in range(2, 7):
        for h1 in range(1, n + 1):
            dc = decomposition_counts(one_row(n, h1))
            assert dc.total_dimension() == math.factorial(n)
            m1, m2 = dc.totals()
            assert m1 == h1 * math.factorial(n - 1)
            assert m2 == (n - h1) * math.factorial(n - 2)


def test_orbit_partition_n3():
    h = one_row(3, 2)
    op = permutation_orbits(h)
    assert len(op.orbits) == 1
    assert [e.pretty() for e in op.orbits[0]] == ["y1", "y2", "y3"]
    assert [e.pretty() for e in op.fixed] == ["1", "x1", "x1^2"]


def test_orbit_counts():
    op = permutation_orbits(one_row(4, 3))
    assert len(op.orbits) == 2
    assert len(op.fixed) == 16
    op13 = permutation_orbits(one_row(3, 1))
    assert len(op13.orbits) == 2
    assert len(op13.fixed) == 0
    with pytest.raises(DegenerateForm):
        permutation_orbits(one_row(3, 3))


def test_orbits_and_fixed_set_span_everything():
    for n, h1 in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        h = one_row(n, h1)
        op = permutation_orbits(h)
        union = list(basis_B1(h).elements) + list(basis_B2(h).elements)
        span = FracSpan()
        count = 0
        for orbit in op.orbits:
            assert len(orbit) == n
            for e in orbit:
                vec = coordinates(normal_form(e, h), union)
                span.insert({i: v for i, v in enumerate(vec) if v})
                count += 1
        for e in op.fixed:
            vec = coordinates(e, union)
            span.insert({i: v for i, v in enumerate(vec) if v})
            count += 1
        assert count == n * len(op.orbits) + len(op.fixed) == math.factorial(n)
        assert span.rank == math.factorial(n)
