import json
from itertools import combinations

import pytest

from hesscomb import (
    BelowDiagonal,
    EmptyInput,
    FormMismatch,
    FormTag,
    IncGraph,
    NotWeaklyIncreasing,
    OutOfRange,
    all_hessenberg_functions,
    box_counts,
    build_gkm_graph,
    classify_form,
    enumerate_p_tableaux,
    inc_graph,
    inversions,
    new_hessenberg,
    partitions_of,
    transpose,
)
from hesscomb.hessenberg import (
    YForm,
    _one_row_h1,
    _transpose_m,
    incomparable_pairs,
    y_form,
    y_forms,
)


def test_new_hessenberg_accepts_valid():
    assert new_hessenberg([2, 3, 3]).values == (2, 3, 3)
    assert new_hessenberg([1, 2, 3]).values == (1, 2, 3)


def test_new_hessenberg_rejects_bad_input():
    with pytest.raises(NotWeaklyIncreasing):
        new_hessenberg([2, 1, 3])
    with pytest.raises(BelowDiagonal):
        new_hessenberg([1, 1, 3])
    with pytest.raises(OutOfRange):
        new_hessenberg([2, 3, 4])
    with pytest.raises(EmptyInput):
        new_hessenberg([])


def test_hessenberg_is_callable_and_json():
    h = new_hessenberg([2, 3, 3])
    assert h(1) == 2 and h(3) == 3
    assert json.loads(h.to_json()) == {"n": 3, "h": [2, 3, 3]}


def test_transpose_examples():
    assert transpose(new_hessenberg([3, 3, 3])).values == (3, 3, 3)
    assert transpose(new_hessenberg([2, 3, 3])).values == (2, 3, 3)
    assert transpose(new_hessenberg([2, 4, 4, 4])).values == (3, 3, 4, 4)


def test_transpose_involution_exhaustive():
    for n in range(1, 8):
        for h in all_hessenberg_functions(n):
            assert transpose(transpose(h)) == h


def test_classify_form_examples():
    tag = classify_form(new_hessenberg([2, 3, 3]))
    assert tag.is_one_row and tag.is_transpose and not tag.is_general
    full = classify_form(new_hessenberg([3, 3, 3]))
    assert full.is_one_row and full.is_transpose and full.one_row_h1 == full.transpose_m
    gen = classify_form(new_hessenberg([2, 3, 4, 4]))
    assert gen.is_general and not gen.is_one_row and not gen.is_transpose


def test_classify_form_matches_definitions():
    """The O(1) reading of h's form against the literal definitions: one-row
    when h(i) = n for every i >= 2, transpose form when every h(i) >= n - 1
    with m the number of values equal to n."""
    for n in range(1, 9):
        for h in all_hessenberg_functions(n):
            v = h.values
            h1 = v[0] if all(x == n for x in v[1:]) else None
            m = v.count(n) if all(x >= n - 1 for x in v) else None
            assert classify_form(h) == FormTag(h1, m), v
            for read, want in ((_one_row_h1, h1), (_transpose_m, m)):
                if want is None:
                    with pytest.raises(FormMismatch):
                        read(h)
                else:
                    assert read(h) == want


def test_classify_transpose_of_one_row():
    for n in range(2, 8):
        for h in all_hessenberg_functions(n):
            tag = classify_form(h)
            if tag.is_one_row:
                flipped = classify_form(transpose(h))
                assert flipped.is_transpose
                assert flipped.transpose_m == tag.one_row_h1


def relations(h):
    """The relation set of P_h as incomparable_pairs gives it: every i < j it
    leaves out (i <_P j needs i < j, since h(i) >= i)."""
    return frozenset(combinations(range(1, h.n + 1), 2)) - set(incomparable_pairs(h))


def oracle_relations(h):
    """The order of P_h as a relation set: i < j exactly when h(i) < j."""
    return frozenset(
        (i, j)
        for i in range(1, h.n + 1)
        for j in range(h(i) + 1, h.n + 1)
    )


def oracle_inc_edges(h):
    rels = oracle_relations(h)
    return frozenset(
        (i, j)
        for i in range(1, h.n + 1)
        for j in range(i + 1, h.n + 1)
        if (i, j) not in rels and (j, i) not in rels
    )


def test_y_form_descriptors():
    assert y_forms(new_hessenberg([3, 3, 3])) == (
        YForm("one-row", 1, (2, 3)),
        YForm("transpose", 3, (1, 2)),
    )
    assert y_forms(new_hessenberg([2, 4, 4, 4])) == (YForm("one-row", 1, (2,)),)
    assert y_forms(new_hessenberg([3, 3, 4, 4])) == (YForm("transpose", 4, (3,)),)
    assert y_forms(new_hessenberg([2, 3, 4, 4])) == ()
    with pytest.raises(FormMismatch):
        y_form(new_hessenberg([2, 3, 4, 4]), "one-row")
    with pytest.raises(FormMismatch):
        y_form(new_hessenberg([2, 3, 4, 4]), "transpose")


def test_poset_examples():
    assert relations(new_hessenberg([2, 3, 3])) == frozenset({(1, 3)})
    assert relations(new_hessenberg([3, 3, 3])) == frozenset()
    assert relations(new_hessenberg([4, 5, 5, 5, 5])) == frozenset({(1, 5)})


def test_order_matches_relation_set_oracle():
    for n in range(1, 8):
        for h in all_hessenberg_functions(n):
            assert relations(h) == oracle_relations(h)
            edges = oracle_inc_edges(h)
            assert list(incomparable_pairs(h)) == sorted(edges)
            assert inc_graph(h) == IncGraph(n, edges)


def test_inversions_match_relation_set_oracle():
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            rels = oracle_relations(h)
            for shape in partitions_of(n):
                for t in enumerate_p_tableaux(h, shape):
                    level = {v: r for r, row in enumerate(t.rows) for v in row}
                    expected = frozenset(
                        (i, j)
                        for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)
                        if level[i] > level[j]
                        and (i, j) not in rels
                        and (j, i) not in rels
                    )
                    assert inversions(h, t).pairs == expected


def test_poset_is_transitively_closed_and_irreflexive():
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            rel = relations(h)
            for i, j in rel:
                assert i != j
                for k, l in rel:
                    if j == k:
                        assert (i, l) in rel


def test_poset_empty_iff_full_function():
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            empty = not relations(h)
            assert empty == (h.values == tuple([n] * n))


def test_inc_graph_examples():
    g = inc_graph(new_hessenberg([4, 5, 5, 5, 5]))
    expected = set(combinations(range(1, 6), 2)) - {(1, 5)}
    assert set(g.edges) == expected
    assert set(inc_graph(new_hessenberg([3, 3, 3])).edges) == set(
        combinations(range(1, 4), 2)
    )
    assert not inc_graph(new_hessenberg([1, 2, 3])).edges


def test_inc_graph_edge_count_complements_poset():
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            assert len(inc_graph(h).edges) == n * (n - 1) // 2 - len(oracle_relations(h))


def test_box_counts_examples():
    assert box_counts(new_hessenberg([2, 3, 3])) == (1, 1, 0)
    assert box_counts(new_hessenberg([1, 2, 3])) == (0, 0, 0)
    assert box_counts(new_hessenberg([3, 3, 3])) == (2, 1, 0)


def test_box_count_sum_matches_gkm_edge_density():
    for n in range(1, 5):
        import math

        for h in all_hessenberg_functions(n):
            pairs = sum(box_counts(h))
            g = build_gkm_graph(h)
            assert len(g.edges) == math.factorial(n) * pairs // 2


def test_all_hessenberg_functions_catalan_counts():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert len(list(all_hessenberg_functions(n))) == catalan[n]
