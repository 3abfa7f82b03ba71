"""Exact linear algebra: bareiss_det against rational Gaussian elimination,
and IntEchelon against the rational row-span oracle."""

import math
import random
from fractions import Fraction

import pytest
from fracspan import FracSpan

from hesscomb.cohomology import basis_B3, transition_blocks
from hesscomb.hessenberg import new_hessenberg
from hesscomb.linalg import IntEchelon, bareiss_det


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
        # the kernel's other client: the echelon reaches full rank exactly
        # when the determinant is nonzero
        ech = IntEchelon()
        for row in m:
            ech.insert(dict(enumerate(row)))
        assert (ech.rank == n) == (expected != 0), m
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


def test_bareiss_goes_through_neither_insert_nor_contains(monkeypatch):
    # perfbench's tracer wraps these two, so linalg.insert.calls counts only
    # filtration and orbit rows
    calls = []
    monkeypatch.setattr(IntEchelon, "insert", lambda self, row: calls.append(row))
    monkeypatch.setattr(IntEchelon, "contains", lambda self, row: calls.append(row))
    assert bareiss_det([[0, 0, 2], [0, 3, 1], [5, 4, 0]]) == -30
    assert bareiss_det([[2, 4], [1, 2]]) == 0
    assert calls == []


def block_triangular(rng, units, groups, n, singular=False):
    """[[I, A], [0, C]] with C block diagonal: one (n-1)-square block per
    group, shaped like a transition block's B2 rows against its B3 columns
    (det -n each), with rows and columns shuffled inside the C part.  When
    singular, one group's last column is the sum of the others."""
    size = units + groups * (n - 1)
    m = [[0] * size for _ in range(size)]
    for i in range(units):
        m[i][i] = 1
        for j in rng.sample(range(units, size), min(3, size - units)):
            m[i][j] = rng.randint(-5, 5)
    for g in range(groups):
        base = units + g * (n - 1)
        # column k: y_{k+1} - y_1 for k < n-1; the last: -2 y_1 - y_2 - ... - y_{n-1}
        # (rows y_2..y_{n-1}, then y_1)
        for k in range(n - 2):
            m[base + k][base + k] = 1
            m[base + n - 2][base + k] = -1
        for r in range(n - 2):
            m[base + r][base + n - 2] = -1
        m[base + n - 2][base + n - 2] = -2
        if singular and g == 0:
            for r in range(base, base + n - 1):
                m[r][base + n - 2] = sum(m[r][base:base + n - 2])
    order = list(range(units, size))
    rng.shuffle(order)
    cols = list(range(units)) + order
    rng.shuffle(order)
    rows = list(range(units)) + order
    return [[m[r][c] for c in cols] for r in rows]


def test_bareiss_on_block_triangular_matrices_with_n_pivots_after_units():
    rng = random.Random(2017)
    seen = set()
    for _ in range(120):
        n = rng.randint(2, 7)
        units, groups = rng.randint(0, 12), rng.randint(0, 3)
        singular = groups > 0 and rng.random() < 0.25
        m = block_triangular(rng, units, groups, n, singular)
        expected = fraction_det(m)
        assert bareiss_det(m) == expected, m
        if not singular:
            assert abs(expected) == n ** groups
        seen.add("zero" if expected == 0 else "negative" if expected < 0 else "positive")
    assert seen == {"zero", "negative", "positive"}


def test_bareiss_leaves_its_input_unchanged():
    m = [[0, 2, 1], [3, 0, 0], [1, 1, 1]]
    copy = [list(row) for row in m]
    assert bareiss_det(m) == fraction_det(m)
    assert m == copy
    assert bareiss_det(tuple(map(tuple, m))) == fraction_det(m)


def b3_groups(h):
    """Half degree -> the distinct x-parts among the B3 columns there."""
    b3 = basis_B3(h)
    ydeg = b3.y_degree()
    groups = {}
    for e in b3.elements:
        m = next(iter(e.terms))
        groups.setdefault(m.qdegree(ydeg), set()).add(m.xexp)
    return groups


def test_block_determinants_match_fraction_elimination_and_the_law():
    # |det| = n^g, g = number of distinct x-parts among the B3 columns
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = new_hessenberg([h1] + [n] * (n - 1))
            groups = b3_groups(h)
            for b in transition_blocks(h):
                det = bareiss_det([list(row) for row in b.matrix])
                assert det == fraction_det(b.matrix)
                assert abs(det) == n ** len(groups.get(b.degree // 2, ()))


@pytest.mark.parametrize("h1", [2, 5])
def test_block_determinants_at_n6_follow_the_law(h1):
    h = new_hessenberg([h1] + [6] * 5)
    groups = b3_groups(h)
    blocks = transition_blocks(h)
    assert max(b.size for b in blocks) > 60
    for b in blocks:
        assert abs(b.determinant()) == 6 ** len(groups.get(b.degree // 2, ()))


# --- IntEchelon against the rational row span --------------------------------


def random_entry(rng, big):
    if big:
        return rng.choice([-1, 1]) * rng.randint(2**62, 2**64)
    return rng.choice([-3, -2, -1, 1, 1, 2, 5])


def combination(rng, rows):
    row = {}
    for r in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
        f = rng.choice([-2, -1, 1, 3])
        for c, v in r.items():
            row[c] = row.get(c, 0) + f * v
    return row


def random_rows(rng, count, ncols, big=False):
    """Sparse integer rows; about a third are integer combinations of earlier
    rows, so many inserts are dependent."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.35:
            row = combination(rng, rows)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, max(1, ncols // 3)))
            row = {c: random_entry(rng, big and rng.random() < 0.5) for c in cols}
        rows.append(row)
    return rows


def check_pivots(ech, oracle):
    """Each pivot is stored primitive with a positive lead at its key, and
    lies in the oracle's span."""
    for lead, piv in ech.pivots.items():
        assert lead == min(piv) and piv[lead] > 0 and 0 not in piv.values()
        assert math.gcd(*piv.values()) == 1
        assert oracle.contains(piv)


def test_echelon_insert_and_contains_match_the_rational_span():
    rng = random.Random(4004)
    answers = []
    for trial in range(60):
        ncols = rng.randint(1, 24)
        ech, oracle = IntEchelon(), FracSpan()
        inserted = []
        for row in random_rows(rng, rng.randint(1, 30), ncols):
            probe = random_rows(rng, 1, ncols)[0]
            if inserted and rng.random() < 0.5:
                probe = combination(rng, inserted)
                probe[rng.randrange(ncols)] = rng.choice([0, 0, 1])
            answers.append(oracle.contains(probe))
            assert ech.contains(probe) == answers[-1]
            assert ech.insert(row) == oracle.insert(row), (trial, row)
            assert ech.rank == oracle.rank
            assert ech.contains(row)
            inserted.append(row)
        check_pivots(ech, oracle)
    assert answers.count(True) > 100 and answers.count(False) > 100
    assert IntEchelon().insert({}) is False
    assert IntEchelon().insert({3: 0}) is False


def test_echelon_exact_past_int64():
    rng = random.Random(6264)
    largest = 0
    for _ in range(40):
        ncols = rng.randint(2, 12)
        ech, oracle = IntEchelon(), FracSpan()
        for row in random_rows(rng, rng.randint(2, 16), ncols, big=True):
            assert ech.insert(row) == oracle.insert(row)
            probe = {c: random_entry(rng, True) for c in rng.sample(range(ncols), 2)}
            assert ech.contains(probe) == oracle.contains(probe)
        check_pivots(ech, oracle)
        largest = max([largest] + [abs(v) for p in ech.pivots.values() for v in p.values()])
    assert largest >= 2**63
    # the sum of two rows is in the span; a change beyond 2**64 takes it out
    ech = IntEchelon()
    assert ech.insert({0: 3, 1: 2**62, 2: 1})
    assert ech.insert({0: 2, 1: 2**62 + 1, 2: 2**64})
    assert ech.contains({0: 5, 1: 2**63 + 1, 2: 2**64 + 1})
    assert not ech.contains({0: 5, 1: 2**63 + 1, 2: 2**64 + 2})
    assert not ech.insert({0: 10, 1: 2**64 + 2, 2: 2**65 + 2})
    assert ech.rank == 2


def test_echelon_clone_leaves_the_original_unchanged():
    rng = random.Random(2718)
    for _ in range(30):
        ncols = rng.randint(2, 16)
        rows = random_rows(rng, 24, ncols)
        probes = random_rows(rng, 12, ncols)
        ech, oracle = IntEchelon(), FracSpan()
        for row in rows[:12]:
            ech.insert(row)
            oracle.insert(row)
        before = ({k: dict(v) for k, v in ech.pivots.items()},
                  [ech.contains(p) for p in probes])
        branch = ech.clone()
        for row in rows[12:]:
            assert branch.insert(row) == oracle.insert(row)
        assert branch.rank == oracle.rank
        assert [branch.contains(p) for p in probes] == [oracle.contains(p) for p in probes]
        assert ech.rank == len(before[0])
        assert ({k: dict(v) for k, v in ech.pivots.items()},
                [ech.contains(p) for p in probes]) == before
