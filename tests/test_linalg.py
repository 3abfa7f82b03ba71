"""Exact determinants: bareiss_det against rational Gaussian elimination."""

import random
from fractions import Fraction

from hesscomb.cohomology import basis_B3, transition_blocks
from hesscomb.hessenberg import new_hessenberg
from hesscomb.linalg import bareiss_det


def fraction_det(rows):
    """Determinant by elimination over Q with row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def sparse_matrix(rng, n, density):
    return [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def test_bareiss_matches_fraction_elimination_on_sparse_matrices():
    rng = random.Random(1968)
    seen_zero_pivot = seen_singular = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        m = sparse_matrix(rng, n, rng.choice([0.15, 0.3, 0.5]))
        if rng.random() < 0.5:
            # mostly identity, like a transition block
            for i in range(n):
                m[i][i] = rng.choice([1, 1, 1, 0, -1])
        expected = fraction_det(m)
        assert bareiss_det(m) == expected, m
        seen_zero_pivot += m[0][0] == 0
        seen_singular += expected == 0
    assert seen_zero_pivot > 50 and seen_singular > 50


def test_bareiss_forced_row_swaps_and_rank_drops():
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    # the second pivot equals the first, so untouched rows are skipped
    assert bareiss_det([[1, 0, 0], [0, 1, 0], [2, 3, 0]]) == 0
    assert bareiss_det([[2, 4, 0], [1, 2, 0], [0, 0, 7]]) == 0
    assert bareiss_det([[2, 0, 0], [0, 0, 3], [0, 5, 1]]) == -30


def test_block_determinants_match_fraction_elimination_and_the_law():
    # |det| = n^g, g = number of distinct x-parts among the B3 columns
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            b3 = basis_B3(h)
            ydeg = b3.y_degree()
            groups = {}
            for e in b3.elements:
                m = next(iter(e.terms))
                groups.setdefault(m.qdegree(ydeg), set()).add(m.xexp)
            for b in transition_blocks(h):
                det = bareiss_det([list(row) for row in b.matrix])
                assert det == fraction_det(b.matrix)
                assert abs(det) == n ** len(groups.get(b.degree // 2, ()))
