import dataclasses
import json
import math
import random

import pytest
from gkm_oracle import DegreeOracle, compose, dot_action, mirror, permute_vars
from gkm_oracle import check_gkm_condition as per_edge_condition
from gkm_oracle import verify_relations as class_algebra_relations

from hesscomb import (
    FormMismatch,
    GkmClass,
    IntPoly,
    KOutOfRange,
    OddDegree,
    ShapeMismatch,
    XYMonomial,
    all_hessenberg_functions,
    all_permutations,
    basis_nilpotent,
    basis_transpose,
    betti_numbers,
    box_counts,
    build_gkm_graph,
    check_gkm_condition,
    class_t,
    class_x,
    class_y,
    class_y_one_row,
    class_y_transpose,
    classify_form,
    element_to_gkm,
    graded_quotient_rank,
    in_t_ideal,
    monomial_to_gkm,
    new_hessenberg,
    sn_fixed_rank,
    transpose,
    verify_relations,
    via_ptableaux,
)
from hesscomb import gkm
from hesscomb.hessenberg import y_forms
from hesscomb.intpoly import product
from hesscomb.linalg import IntEchelon


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def special_forms(max_n):
    seen = set()
    for n in range(1, max_n + 1):
        for h in all_hessenberg_functions(n):
            if not classify_form(h).is_general and h.values not in seen:
                seen.add(h.values)
                yield h


H233 = new_hessenberg([2, 3, 3])


def test_graph_shapes():
    g = build_gkm_graph(H233)
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    assert all(sum(w in (e.w, e.v) for e in g.edges) == 2 for w in g.vertices)
    g_full = build_gkm_graph(new_hessenberg([3, 3, 3]))
    assert len(g_full.edges) == 9
    assert all(sum(w in (e.w, e.v) for e in g_full.edges) == 3 for w in g_full.vertices)
    assert not build_gkm_graph(new_hessenberg([1, 2, 3])).edges


def test_graph_edge_count_formula():
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            g = build_gkm_graph(h)
            pairs = sum(box_counts(h))
            assert len(g.edges) == math.factorial(n) * pairs // 2


def test_class_x_fig2a():
    c = class_x(3, 2)
    expected = {
        (1, 2, 3): "t2",
        (1, 3, 2): "t3",
        (2, 1, 3): "t1",
        (2, 3, 1): "t3",
        (3, 1, 2): "t1",
        (3, 2, 1): "t2",
    }
    for w, val in expected.items():
        assert c[w].pretty() == val


def test_class_y_fig2b():
    c = class_y_one_row(H233, 2)
    assert c[(2, 1, 3)].pretty() == "-t1 + t2"
    assert c[(2, 3, 1)].pretty() == "t2 - t3"
    for w in ((1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)):
        assert c[w].is_zero()


def test_class_y_transpose_fig3b():
    c = class_y_transpose(H233, 2)
    assert c[(1, 3, 2)].pretty() == "t2 - t3"
    assert c[(3, 1, 2)].pretty() == "-t1 + t2"
    for w in ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)):
        assert c[w].is_zero()


def test_class_t_is_constant():
    c = class_t(3, 1)
    for w in all_permutations(3):
        assert c[w] == IntPoly.var(3, 1)


def test_class_errors():
    with pytest.raises(KOutOfRange):
        class_x(3, 4)
    with pytest.raises(KOutOfRange):
        class_y_one_row(H233, 0)
    with pytest.raises(FormMismatch):
        class_y_one_row(new_hessenberg([2, 3, 4, 4]), 1)
    with pytest.raises(FormMismatch):
        class_y_transpose(new_hessenberg([2, 3, 4, 4]), 1)


def test_class_y_dispatch():
    assert class_y(H233, 2) == class_y_one_row(H233, 2)
    h = new_hessenberg([2, 2, 3])
    assert class_y(h, 2) == class_y_transpose(h, 2)


def test_constructed_classes_satisfy_gkm_condition():
    for h in special_forms(4):
        g = build_gkm_graph(h)
        n = h.n
        tag = classify_form(h)
        for k in range(1, n + 1):
            assert check_gkm_condition(g, class_t(n, k))[0]
            assert check_gkm_condition(g, class_x(n, k))[0]
            if tag.is_one_row:
                assert check_gkm_condition(g, class_y_one_row(h, k))[0]
            if tag.is_transpose:
                assert check_gkm_condition(g, class_y_transpose(h, k))[0]


@pytest.mark.long
def test_constructed_classes_satisfy_gkm_condition_n5():
    for h in special_forms(5):
        if h.n != 5:
            continue
        g = build_gkm_graph(h)
        tag = classify_form(h)
        for k in range(1, 6):
            assert check_gkm_condition(g, class_x(5, k))[0]
            if tag.is_one_row:
                assert check_gkm_condition(g, class_y_one_row(h, k))[0]
            if tag.is_transpose:
                assert check_gkm_condition(g, class_y_transpose(h, k))[0]


def test_perturbed_class_fails_with_witness():
    c = class_y_one_row(H233, 2)
    values = dict(c.values)
    values[(2, 1, 3)] = IntPoly.var(3, 1)
    bad = GkmClass(3, values)
    ok, edge = check_gkm_condition(build_gkm_graph(H233), bad)
    assert not ok
    assert edge is not None
    assert (2, 1, 3) in (edge.w, edge.v)


def _perturbed(c, rng):
    """c with one vertex value replaced by a random one of the same degree."""
    n = c.n
    d = next((sum(e) for p in c.values.values() for e in p.terms), 1)
    spot = rng.choice(all_permutations(n))
    values = dict(c.values)
    values[spot] = IntPoly(n, {tuple(_random_exps(rng, n, d)): rng.choice([-1, 1, 2])})
    return GkmClass(n, values)


@pytest.mark.parametrize("h", [h for h in special_forms(4) if build_gkm_graph(h).edges],
                         ids=str)
def test_check_gkm_condition_matches_the_per_edge_oracle(h):
    # The same verdict and the same first failing edge, on classes that meet
    # the edge conditions, perturbed ones, and ones given in another vertex
    # order.
    rng = random.Random(hash(h.values) % 10007)
    n, g = h.n, build_gkm_graph(h)
    verdicts = []
    for d in range(sum(box_counts(h)) + 2):
        for c in _degree_classes(h, d, len(gkm._generator_form(h).factors), rng):
            for cls in (c, _perturbed(c, rng)):
                verdicts.append(per_edge_condition(g, cls))
                assert check_gkm_condition(g, cls) == verdicts[-1], (h.values, d)
                shuffled = list(cls.values.items())
                rng.shuffle(shuffled)
                assert check_gkm_condition(g, GkmClass(n, dict(shuffled))) == verdicts[-1]
    assert any(ok for ok, _ in verdicts) and not all(ok for ok, _ in verdicts)


def test_dot_action_permutes_y():
    for v in all_permutations(3):
        for k in range(1, 4):
            assert dot_action(v, class_y_one_row(H233, k)) == class_y_one_row(
                H233, v[k - 1]
            )


def test_gkm_condition_dot_equivariant():
    rng = random.Random(11)
    h = one_row(4, 3)
    g = build_gkm_graph(h)
    perms = all_permutations(4)
    c = class_y_one_row(h, 2) * class_x(4, 3)
    for _ in range(8):
        v = rng.choice(perms)
        assert check_gkm_condition(g, dot_action(v, c))[0]


def test_verify_relations_one_row_and_transpose():
    rel = verify_relations(H233)
    assert rel and all(rel.values())
    assert any(key.startswith("one-row:") for key in rel)
    assert any(key.startswith("transpose:") for key in rel)


def test_verify_relations_full_flag_conventions():
    rel = verify_relations(new_hessenberg([3, 3, 3]))
    assert rel and all(rel.values())


def test_verify_relations_all_special_forms_small():
    for h in special_forms(4):
        rel = verify_relations(h)
        assert rel and all(rel.values()), (h.values, rel)


def test_verify_relations_form_mismatch():
    with pytest.raises(FormMismatch):
        verify_relations(new_hessenberg([2, 3, 4, 4]))


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.long)]
)
def test_verify_relations_matches_class_algebra(n):
    for h in special_forms(n):
        if h.n == n:
            report = verify_relations(h)
            assert list(report.items()) == list(class_algebra_relations(h).items())


def _factor_dropped(real):
    def wrong(h, k, form):
        return real(h, k, dataclasses.replace(form, factors=form.factors[1:]))
    return wrong


def _support_moved(real):
    """prod_{l in factors} (t_k - t_{w(l)}) on w(pin) = k + 1 (n + 1 read as 1)."""
    def wrong(h, k, form):
        n = h.n
        return GkmClass(n, {
            w: product(n, (IntPoly.var(n, k) - IntPoly.var(n, w[l - 1])
                           for l in form.factors))
            if w[form.pin - 1] == k % n + 1 else IntPoly.zero(n)
            for w in all_permutations(n)
        })
    return wrong


def _support_widened(real):
    """y_k kept, and also put on w(pin) = k + 1 (n + 1 read as 1), where its
    value is y_k at w with the values k and k + 1 swapped."""
    def wrong(h, k, form):
        n, kk = h.n, k % h.n + 1
        right = real(h, k, form)
        return GkmClass(n, {
            w: right[tuple(kk if v == k else k if v == kk else v for v in w)]
            if w[form.pin - 1] == kk else right[w]
            for w in all_permutations(n)
        })
    return wrong


@pytest.mark.parametrize("breakage", [_factor_dropped, _support_moved, _support_widened])
def test_verify_relations_reports_a_wrong_class(monkeypatch, breakage):
    # Both routes read the y-classes through gkm._class_y, so a wrong class
    # there must make both report False, on the same keys.
    monkeypatch.setattr(gkm, "_class_y", breakage(gkm._class_y))
    for h in special_forms(4):
        if h.n < 2 or not all(form.factors for form in y_forms(h)):
            continue
        report = verify_relations(h)
        assert list(report.items()) == list(class_algebra_relations(h).items())
        assert not all(report.values()), h.values


def test_graded_quotient_rank_examples():
    assert graded_quotient_rank(H233, 0) == 1
    assert graded_quotient_rank(H233, 2) == 4
    assert graded_quotient_rank(H233, 4) == 1
    with pytest.raises(OddDegree):
        graded_quotient_rank(H233, 3)


def _check_betti_numbers(h):
    betti = betti_numbers(h)
    assert betti == tuple(via_ptableaux(h).coefficient(d) for d in range(len(betti)))
    assert sum(betti) == math.factorial(h.n), h.values


def _check_sn_fixed_ranks(h):
    """sn_fixed_rank against the per-degree census of basis_nilpotent."""
    census = {}
    for e in basis_nilpotent(h).elements:
        (m,) = e.terms.keys()
        census[2 * m.qdegree(0)] = census.get(2 * m.qdegree(0), 0) + 1
    top = 2 * sum(box_counts(h))
    for d in range(0, top + 2, 2):
        assert sn_fixed_rank(h, d) == census.get(d, 0), (h.values, d)


def test_betti_numbers_match_ptableau_route():
    for h in special_forms(4):
        _check_betti_numbers(h)


def test_sn_fixed_rank_examples():
    assert sn_fixed_rank(H233, 0) == 1
    assert sn_fixed_rank(H233, 2) == 2
    assert sn_fixed_rank(H233, 4) == 1


def test_sn_fixed_rank_matches_nilpotent_census():
    for h in special_forms(4):
        _check_sn_fixed_ranks(h)


@pytest.mark.parametrize("h", [new_hessenberg(list(values)) for values in (
    (1, 5, 5, 5, 5), (2, 5, 5, 5, 5), (3, 5, 5, 5, 5),
    (4, 4, 4, 4, 5), (4, 4, 4, 5, 5), (4, 4, 5, 5, 5),
    (4, 5, 5, 5, 5), (5, 5, 5, 5, 5),
)], ids=str)
def test_ranks_n5_match_ptableaux_and_nilpotent_census(h):
    _check_betti_numbers(h)
    _check_sn_fixed_ranks(h)


@pytest.mark.parametrize("h", [new_hessenberg([2, 4, 4, 4]), new_hessenberg([4, 4, 4, 4]),
                               new_hessenberg([3, 3, 4, 4])], ids=str)
def test_generator_rows_tried_follow_from_the_rank_below(monkeypatch, h):
    # Degree d tries x_1..x_n times each row that raised the rank in degree
    # d - 1, and y_1..y_n once: at most n * b_{d-1} + n rows, all into one
    # span, which is copied once per degree.  A row per monomial x^b and
    # x^b y_k would try C(d + n - 1, n - 1) (n + 1).
    spans, tried = [], []
    real_insert, real_clone = IntEchelon.insert, IntEchelon.clone

    def counting_insert(self, entries):
        spans.append(self)
        return real_insert(self, entries)

    def marking_clone(self):
        tried.append(len(spans))
        return real_clone(self)

    monkeypatch.setattr(IntEchelon, "insert", counting_insert)
    monkeypatch.setattr(IntEchelon, "clone", marking_clone)
    f = gkm._Filtration(h)
    top = sum(box_counts(h))
    # One copy of the empty span, F_{-1}, then one per degree 0..top.
    assert len(tried) == top + 2 and tried[0] == 0
    assert len(set(map(id, spans))) == 1
    below = 0
    for d in range(top + 1):
        rows = tried[d + 1] - tried[d]
        assert rows <= h.n * below + h.n, (d, rows, below)
        below = f.ranks[d]
    assert f.below[-1].rank == math.factorial(h.n)


def test_ranks_above_the_top_degree_grow_no_chain():
    # H^{2d} vanishes above the complex dimension, so the ranks there are 0
    # and the filtration stops at the top degree, where it is all of Q^{n!}.
    # A transpose-only h builds its own from its transpose-form y classes.
    one_row, transpose_only = new_hessenberg([2, 4, 4, 4]), new_hessenberg([3, 3, 4, 4])
    top = sum(box_counts(one_row))
    gkm._filtration.cache_clear()
    for h in (one_row, transpose_only):
        betti_numbers(h)
        assert graded_quotient_rank(h, 2 * (top + 5)) == 0
        assert sn_fixed_rank(h, 2 * (top + 5)) == 0
        f = gkm._filtration(h)
        assert len(f.ranks) == top + 1 and len(f.below) == top + 2
        assert f.below[-1].rank == math.factorial(4)
    assert gkm._filtration.cache_info().misses == 2


def test_in_t_ideal_rejects_an_inhomogeneous_class():
    for h in (new_hessenberg([2, 4, 4, 4]), new_hessenberg([3, 3, 4, 4])):
        c = class_x(4, 1) + class_x(4, 2) * class_x(4, 3)
        with pytest.raises(ShapeMismatch):
            in_t_ideal(c, h)


def test_in_t_ideal_symmetric_functions():
    h = H233
    e1 = element_to_gkm_e1(h)
    assert in_t_ideal(e1, h)


def test_in_t_ideal_rejects_transpose_basis_monomials():
    shapes = [h for h in special_forms(4) if not classify_form(h).is_one_row]
    assert [h.values for h in shapes] == [(2, 2, 3), (3, 3, 3, 4), (3, 3, 4, 4)]
    for h in shapes:
        b1, b2, _ = basis_transpose(h)
        for e in b1.elements + b2.elements:
            c = element_to_gkm(e, h)
            assert not c.is_zero()
            assert not in_t_ideal(c, h), (h.values, e.pretty())


def test_in_t_ideal_above_the_top_degree():
    # The quotient vanishes above the top degree, so every class of the
    # subring there lies in the t-ideal, and a class off the GKM conditions
    # never does.
    h = H233
    d = sum(box_counts(h)) + 1
    assert graded_quotient_rank(h, 2 * d) == 0
    assert in_t_ideal(class_x(3, 1) * class_x(3, 2) * class_x(3, 2), h)
    assert in_t_ideal(class_y(h, 2) * class_x(3, 3) * class_x(3, 1), h)
    spike = GkmClass(3, {w: IntPoly.var(3, 1) * IntPoly.var(3, 1) * IntPoly.var(3, 2)
                         if w == (1, 2, 3) else IntPoly.zero(3)
                         for w in all_permutations(3)})
    assert not check_gkm_condition(build_gkm_graph(h), spike)[0]
    assert not in_t_ideal(spike, h)


@pytest.mark.parametrize("h", [h for h in special_forms(4) if h.n > 1], ids=str)
def test_in_t_ideal_above_the_top_agrees_with_the_chain(h):
    # Above the top the filtration is all of Q^{n!}, so the edge conditions
    # alone decide; the per-edge oracle answers the same.  A spike at one
    # vertex breaks the edge conditions unless the graph has no edges.
    n, top = h.n, sum(box_counts(h))
    g = build_gkm_graph(h)
    ydeg = len(gkm._generator_form(h).factors)
    rng = random.Random(hash(h.values) % 10007)
    for d in (top + 1, top + 2):
        xs = [class_x(n, rng.randint(1, n)) for _ in range(d)]
        c = math.prod(xs, start=GkmClass.constant(n, 1))
        c = c + math.prod(xs[ydeg:], start=class_y(h, rng.randint(1, n)))
        spot = rng.choice(all_permutations(n))
        spike = GkmClass(n, {w: IntPoly(n, {(d,) + (0,) * (n - 1): 1}) if w == spot
                             else IntPoly.zero(n) for w in all_permutations(n)})
        for cls, member in ((c, True), (c + spike, not g.edges)):
            assert in_t_ideal(cls, h) == per_edge_condition(g, cls)[0] == member, d


def test_in_t_ideal_far_above_the_top_degree_grows_no_chain():
    h = new_hessenberg([2, 4, 4, 4])
    top = sum(box_counts(h))
    gkm._filtration.cache_clear()
    x1 = class_x(4, 1)
    assert in_t_ideal(math.prod([x1] * 12, start=GkmClass.constant(4, 1)), h)
    assert len(gkm._filtration(h).below) == top + 2
    # the checks keep their order above the top: size, form, homogeneity
    high = math.prod([x1] * (top + 2), start=GkmClass.constant(4, 1))
    with pytest.raises(ShapeMismatch):
        in_t_ideal(high, H233)
    with pytest.raises(FormMismatch):
        in_t_ideal(high + x1, new_hessenberg([2, 3, 4, 4]))
    with pytest.raises(ShapeMismatch):
        in_t_ideal(high + x1, h)


def test_in_t_ideal_in_degree_0_holds_only_0():
    for h in (H233, new_hessenberg([3, 3, 4, 4])):
        n = h.n
        assert in_t_ideal(GkmClass.zero(n), h)
        assert not in_t_ideal(GkmClass.constant(n, 1), h)
        assert not in_t_ideal(GkmClass.constant(n, -3), h)


def test_form_mismatch_names_neither_form_on_general_h():
    h = new_hessenberg([2, 3, 4, 4])
    message = "h=(2,3,4,4) matches neither special form; generators unknown"
    calls = [
        lambda: class_y(h, 1),
        lambda: monomial_to_gkm(XYMonomial((1, 0, 0, 0), 1), h),
        lambda: monomial_to_gkm(XYMonomial((1, 0, 0, 0)), h),
        lambda: in_t_ideal(class_x(4, 1), h),
        lambda: betti_numbers(h),
        lambda: sn_fixed_rank(h, 2),
        lambda: graded_quotient_rank(h, 2 * (sum(box_counts(h)) + 5)),
    ]
    for call in calls:
        with pytest.raises(FormMismatch) as err:
            call()
        assert str(err.value) == message


# --- the degree chain against the t-monomial oracle ---------------------------


def _power(n, factors, exps):
    c = GkmClass.constant(n, 1)
    for k, e in enumerate(exps, start=1):
        for _ in range(e):
            c = c * factors(n, k)
    return c


def _random_exps(rng, n, total):
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return exps


def _degree_classes(h, d, ydeg, rng):
    """Classes homogeneous of degree d: products of generators, t-multiples of
    them, integer combinations of those, and random values off the GKM
    conditions."""
    n = h.n
    out = []
    for _ in range(3):
        out.append(_power(n, class_x, _random_exps(rng, n, d)))
        if d >= ydeg:
            y = class_y(h, rng.randrange(1, n + 1))
            out.append(y * _power(n, class_x, _random_exps(rng, n, d - ydeg)))
        if d >= 1:
            j = rng.randrange(1, d + 1)
            base = _power(n, class_x, _random_exps(rng, n, d - j))
            out.append(_power(n, class_t, _random_exps(rng, n, j)) * base)
    out.append(sum((c * rng.randint(-3, 3) for c in out), GkmClass.zero(n)))
    for _ in range(2):
        out.append(GkmClass(n, {
            w: IntPoly(n, {tuple(_random_exps(rng, n, d)): rng.randint(-2, 2)
                           for _ in range(2)})
            for w in all_permutations(n)
        }))
    return [c for c in out if not c.is_zero()]


LARGEST = ((3, 4, 4, 4), (4, 4, 4, 4))


@pytest.mark.parametrize("h", [
    pytest.param(h, id=str(h), marks=[pytest.mark.long] if h.values in LARGEST else [])
    for h in special_forms(4)
])
def test_degree_chain_matches_t_monomial_oracle(h):
    # The filtration is built on h itself, transpose-only h included; its
    # ranks and t-ideal answers are compared degree by degree, up to top + 1,
    # with an oracle built from every t-monomial.
    rng = random.Random(hash(h.values) % 10007)
    answers = []
    for d in range(sum(box_counts(h)) + 2):
        oracle = DegreeOracle(h, d)
        assert (graded_quotient_rank(h, 2 * d), sn_fixed_rank(h, 2 * d)) == oracle.ranks()
        for c in _degree_classes(h, d, oracle.ydeg, rng):
            answers.append(oracle.in_t_ideal(c))
            assert in_t_ideal(c, h) == answers[-1], (h.values, d)
    assert any(answers) and not all(answers)


# --- transpose-only h against its one-row transpose, through the mirror -------


def transpose_only(max_n):
    return [h for h in special_forms(max_n) if not classify_form(h).is_one_row]


def test_transpose_only_forms():
    assert [h.values for h in transpose_only(5)] == [
        (2, 2, 3), (3, 3, 3, 4), (3, 3, 4, 4),
        (4, 4, 4, 4, 5), (4, 4, 4, 5, 5), (4, 4, 5, 5, 5),
    ]


@pytest.mark.parametrize("h", transpose_only(5), ids=str)
def test_mirror_maps_edges_onto_the_transpose_graph(h):
    # w -> w0 w w0 sends each edge of h to an edge of transpose(h), and its
    # label under t_a -> t_{n+1-a} to the label there up to sign.
    n = h.n
    w0 = tuple(range(n, 0, -1))
    target = {frozenset((e.w, e.v)): e.label() for e in build_gkm_graph(transpose(h)).edges}
    edges = build_gkm_graph(h).edges
    assert len(edges) == len(target)
    images = set()
    for e in edges:
        key = frozenset((compose(w0, compose(e.w, w0)), compose(w0, compose(e.v, w0))))
        label = permute_vars(e.label(), w0)
        assert target[key] in (label, -label), (h.values, e)
        images.add(key)
    assert images == set(target)


@pytest.mark.parametrize("h", [
    *transpose_only(4),
    pytest.param(new_hessenberg([4, 4, 4, 4, 5]), marks=pytest.mark.long),
], ids=str)
def test_mirrored_answers_match_the_direct_chain(h):
    # A transpose-only h builds its own filtration from its own y classes.
    # The mirror carries the classes of its one-row transpose onto classes
    # of h, so both give the same ranks, and a class of transpose(h) lies in
    # its t-ideal exactly when its mirror lies in that of h.
    rng = random.Random(hash(h.values) % 10007)
    t = transpose(h)
    top = sum(box_counts(h))
    ydeg = len(gkm._generator_form(t).factors)
    assert betti_numbers(h) == betti_numbers(t)
    answers = []
    for d in range(top + 2):
        assert sn_fixed_rank(h, 2 * d) == sn_fixed_rank(t, 2 * d), (h.values, d)
        for c in _degree_classes(t, d, ydeg, rng):
            answers.append(in_t_ideal(c, t))
            assert in_t_ideal(mirror(c), h) == answers[-1], (h.values, d)
    assert any(answers) and not all(answers)


@pytest.mark.long
def test_in_t_ideal_n5_transpose_only_matches_t_monomial_oracle():
    # The t-monomial oracle at n = 5, in the degrees it finishes in seconds.
    h = new_hessenberg([4, 4, 4, 4, 5])
    rng = random.Random(5)
    answers = []
    for d in range(3):
        oracle = DegreeOracle(h, d)
        assert (graded_quotient_rank(h, 2 * d), sn_fixed_rank(h, 2 * d)) == oracle.ranks()
        for c in _degree_classes(h, d, oracle.ydeg, rng):
            answers.append(oracle.in_t_ideal(c))
            assert in_t_ideal(c, h) == answers[-1], d
    assert any(answers) and not all(answers)


def element_to_gkm_e1(h):
    n = h.n
    c = class_x(n, 1)
    for k in range(2, n + 1):
        c = c + class_x(n, k)
    return c


def test_graph_serialization():
    g = build_gkm_graph(H233)
    data = json.loads(g.to_json())
    assert data["h"] == [2, 3, 3]
    assert len(data["edges"]) == 6
    assert all(set(e) == {"u", "v", "positions", "label"} for e in data["edges"])
    dot = g.to_dot()
    assert dot.startswith("graph gkm {")
    assert '"123" -- ' in dot


def test_class_serialization():
    c = class_y_one_row(H233, 2)
    data = json.loads(c.to_json())
    assert data["n"] == 3
    assert data["values"]["213"] == [[[0, 1, 0], 1], [[1, 0, 0], -1]]
    assert data["values"]["123"] == []
