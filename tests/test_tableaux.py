import json
import math
from collections import Counter
from itertools import permutations

import pytest

from hesscomb import (
    QPolynomial,
    KOutOfRange,
    Partition,
    PTableau,
    ShapeMismatch,
    all_hessenberg_functions,
    conjugate,
    count_syt,
    enumerate_p_tableaux,
    inversion_counts,
    inversions,
    is_p_tableau,
    new_hessenberg,
    p_tableaux_with_inversions,
    partitions_of,
    q_factorial,
    q_int,
    syt_with_bottom_pair,
)

ONE_ROW_H5 = new_hessenberg([4, 5, 5, 5, 5])


def fill_shape(shape: Partition, word) -> PTableau:
    rows = []
    idx = 0
    for length in shape.parts:
        rows.append(tuple(word[idx:idx + length]))
        idx += length
    return PTableau(shape, tuple(rows))


def all_fillings(shape: Partition):
    for word in permutations(range(1, shape.size + 1)):
        yield fill_shape(shape, word)


def test_partition_validation():
    with pytest.raises(ShapeMismatch):
        Partition((1, 2))
    with pytest.raises(ShapeMismatch):
        Partition((2, 0))
    assert Partition((2, 1, 1, 1)).size == 5


def test_conjugate_examples():
    assert conjugate(Partition((4,))) == Partition((1, 1, 1, 1))
    assert conjugate(Partition((2, 1, 1, 1))) == Partition((4, 1))
    assert conjugate(Partition((1,))) == Partition((1,))


def test_conjugate_involution():
    for n in range(1, 9):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_ptableau_shape_check_and_json():
    with pytest.raises(ShapeMismatch):
        PTableau(Partition((2, 1)), ((1, 2, 3),))
    t = PTableau(Partition((2, 1, 1, 1)), ((1, 5), (4,), (3,), (2,)))
    data = json.loads(t.to_json())
    assert data == {
        "shape": [2, 1, 1, 1],
        "rows": [[1, 5], [4], [3], [2]],
        "orientation": "bottom-up",
    }
    assert PTableau.from_json(t.to_json()) == t


def test_is_p_tableau_examples():
    h = new_hessenberg([2, 3, 3])
    col = Partition((1, 1, 1))
    assert not is_p_tableau(h, fill_shape(col, (3, 1, 2)))
    assert is_p_tableau(h, fill_shape(col, (1, 2, 3)))
    t = PTableau(Partition((2, 1, 1, 1)), ((1, 5), (2,), (3,), (4,)))
    assert is_p_tableau(ONE_ROW_H5, t)


def test_enumerate_p_tableaux_counts():
    assert len(enumerate_p_tableaux(ONE_ROW_H5, Partition((2, 1, 1, 1)))) == 6
    assert len(enumerate_p_tableaux(new_hessenberg([1, 2, 3]), Partition((1, 1, 1)))) == 1
    assert len(enumerate_p_tableaux(new_hessenberg([2, 3, 3]), Partition((1, 1, 1)))) == 4


def test_enumeration_matches_brute_force():
    for n in range(1, 5):
        for h in all_hessenberg_functions(n):
            for shape in partitions_of(n):
                listed = set(enumerate_p_tableaux(h, shape))
                brute = {t for t in all_fillings(shape) if is_p_tableau(h, t)}
                assert listed == brute


@pytest.mark.long
def test_enumeration_matches_brute_force_n5():
    for h in all_hessenberg_functions(5):
        for shape in partitions_of(5):
            listed = set(enumerate_p_tableaux(h, shape))
            brute = {t for t in all_fillings(shape) if is_p_tableau(h, t)}
            assert listed == brute


def test_enumeration_order_is_reading_word_lex():
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            for shape in partitions_of(n):
                words = [
                    tuple(v for row in t.rows for v in row)
                    for t in enumerate_p_tableaux(h, shape)
                ]
                assert words == sorted(words)


def test_inversion_examples():
    counts = sorted(
        inversions(ONE_ROW_H5, t).count
        for t in enumerate_p_tableaux(ONE_ROW_H5, Partition((2, 1, 1, 1)))
    )
    assert counts == [3, 4, 4, 5, 5, 6]
    single = PTableau(Partition((1,)), ((1,),))
    assert inversions(new_hessenberg([1]), single).count == 0
    h = new_hessenberg([2, 3, 3])
    t = fill_shape(Partition((1, 1, 1)), (3, 2, 1))
    assert inversions(h, t).count == 2


def test_fill_inversion_counts_match_inversions_oracle():
    # The counts kept during the fill against a recount of each finished
    # tableau by `inversions`, which re-checks it and lists the pairs.
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            for shape in partitions_of(n):
                pairs = p_tableaux_with_inversions(h, shape)
                assert [t for t, _ in pairs] == enumerate_p_tableaux(h, shape)
                assert all(inv == inversions(h, t).count for t, inv in pairs)
                oracle = Counter(inversions(h, t).count for t, _ in pairs)
                assert inversion_counts(h, shape) == dict(oracle)


def test_fill_rejects_shape_of_wrong_size():
    h = new_hessenberg([2, 3, 3])
    for enumerate_ in (enumerate_p_tableaux, p_tableaux_with_inversions, inversion_counts):
        with pytest.raises(ShapeMismatch):
            enumerate_(h, Partition((2, 2)))


def test_inversion_pairs_are_higher_and_incomparable():
    h = new_hessenberg([2, 3, 3])
    t = fill_shape(Partition((1, 1, 1)), (3, 2, 1))
    assert inversions(h, t).pairs == {(1, 2), (2, 3)}


def test_one_row_shapes_restricted():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            column = Partition(tuple([1] * n))
            hook = Partition(tuple([2] + [1] * (n - 2)))
            for shape in partitions_of(n):
                tabs = enumerate_p_tableaux(h, shape)
                if shape in (column, hook):
                    continue
                assert tabs == []


@pytest.mark.long
def test_one_row_shapes_restricted_n6():
    n = 6
    column = Partition(tuple([1] * n))
    hook = Partition(tuple([2] + [1] * (n - 2)))
    for h1 in range(1, n + 1):
        h = new_hessenberg([h1] + [n] * (n - 1))
        for shape in partitions_of(n):
            if shape in (column, hook):
                continue
            assert enumerate_p_tableaux(h, shape) == []


def test_column_inversion_generating_function():
    for n in range(2, 7):
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            gf = sum(
                (QPolynomial.q(inversions(h, t).count)
                 for t in enumerate_p_tableaux(h, Partition(tuple([1] * n)))),
                start=q_int(0),
            )
            assert gf == q_int(h1) * q_factorial(n - 1)


def test_hook_inversion_generating_function():
    for n in range(3, 7):
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            shape = Partition(tuple([2] + [1] * (n - 2)))
            gf = sum(
                (QPolynomial.q(inversions(h, t).count)
                 for t in enumerate_p_tableaux(h, shape)),
                start=q_int(0),
            )
            assert gf == QPolynomial.q(h1 - 1) * q_int(n - h1) * q_factorial(n - 2)


def standard_tableaux(shape: Partition) -> list[PTableau]:
    """Standard tableaux (rows increase rightward, columns upward) are the
    P-tableaux of the staircase h = (1, 2, ..., n), whose order is 1 < ... < n."""
    return enumerate_p_tableaux(new_hessenberg(range(1, shape.size + 1)), shape)


def test_count_syt_matches_enumeration():
    for n in range(1, 9):
        for p in partitions_of(n):
            assert count_syt(p) == len(standard_tableaux(p))


def test_count_syt_known_values():
    assert count_syt(Partition((1, 1, 1))) == 1
    assert count_syt(Partition((2, 1, 1, 1))) == 4
    assert count_syt(Partition((2, 2))) == 2


def test_syt_with_bottom_pair():
    s = syt_with_bottom_pair(5, 2)
    assert s.rows == ((1, 2), (3,), (4,), (5,))
    assert syt_with_bottom_pair(2, 2).rows == ((1, 2),)
    assert syt_with_bottom_pair(4, 4).rows == ((1, 4), (2,), (3,))
    with pytest.raises(KOutOfRange):
        syt_with_bottom_pair(5, 1)
    with pytest.raises(KOutOfRange):
        syt_with_bottom_pair(5, 6)


def test_syt_with_bottom_pair_is_standard():
    for n in range(2, 8):
        hook = Partition(tuple([2] + [1] * (n - 2)))
        found = {syt_with_bottom_pair(n, k) for k in range(2, n + 1)}
        assert found <= set(standard_tableaux(hook))
        assert len(found) == n - 1
