import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from functools import cache

import pytest

from hesscomb import (
    BasisMismatch,
    DecompositionCounts,
    DegreeTooLarge,
    IncGraph,
    NotSymmetric,
    Partition,
    QPolynomial,
    SymFn,
    all_hessenberg_functions,
    basis_transpose,
    change_basis,
    csf_by_coloring,
    csf_schur_by_ptableaux,
    decomposition_counts,
    enumerate_p_tableaux,
    frobenius_from_decomposition,
    inc_graph,
    inversions,
    is_positive,
    new_hessenberg,
    omega,
    partitions_of,
    q_factorial,
    q_int,
    via_ptableaux,
)
from hesscomb import tableaux
from hesscomb.linalg import fraction_solve

BASES = ("monomial", "schur", "elementary", "homogeneous")


def one_row(n: int, h1: int):
    return new_hessenberg([h1] + [n] * (n - 1))


def schur(n: int, terms: dict) -> SymFn:
    return SymFn(n, "schur", {Partition(p): QPolynomial(c) for p, c in terms.items()})


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n in range(1, 9):
        parts = partitions_of(n)
        assert len(parts) == expected[n]
        assert all(p.size == n for p in parts)


def test_csf_single_vertex():
    g = IncGraph(1, frozenset())
    f = csf_by_coloring(g)
    assert f.basis == "monomial"
    assert f.coefficient(Partition((1,))) == QPolynomial.one()


def test_csf_k2_and_k3():
    k2 = IncGraph(2, frozenset({(1, 2)}))
    f = csf_by_coloring(k2)
    assert f.coefficient(Partition((1, 1))) == q_int(2)
    k3 = inc_graph(new_hessenberg([3, 3, 3]))
    f3 = csf_by_coloring(k3)
    assert f3.coefficient(Partition((1, 1, 1))) == q_int(2) * q_int(3)
    assert f3.coefficient(Partition((2, 1))) == QPolynomial.zero()


def test_csf_schur_hook_coefficient_example():
    f = csf_schur_by_ptableaux(new_hessenberg([4, 5, 5, 5, 5]))
    assert f.coefficient(Partition((2, 1, 1, 1))) == QPolynomial(
        {3: 1, 4: 2, 5: 2, 6: 1}
    )


def test_csf_schur_full_flag():
    for n in range(2, 6):
        f = csf_schur_by_ptableaux(one_row(n, n))
        assert f.coefficient(Partition(tuple([1] * n))) == q_factorial(n)
        others = [p for p, c in f.sorted_terms() if p != Partition(tuple([1] * n))]
        assert not others


def test_csf_schur_staircase():
    f = csf_schur_by_ptableaux(new_hessenberg([1, 2, 3]))
    assert f.coefficient(Partition((3,))) == QPolynomial.one()


def test_omega_examples():
    assert omega(schur(4, {(4,): {0: 1}})) == schur(4, {(1, 1, 1, 1): {0: 1}})
    assert omega(schur(3, {(2, 1): {0: 1}})) == schur(3, {(2, 1): {0: 1}})
    assert omega(schur(5, {(2, 1, 1, 1): {1: 1}})) == schur(5, {(4, 1): {1: 1}})


def test_omega_involution_and_basis_check():
    f = csf_schur_by_ptableaux(new_hessenberg([2, 3, 3]))
    assert omega(omega(f)) == f
    with pytest.raises(BasisMismatch):
        omega(change_basis(f, "monomial"))


def test_change_basis_examples():
    e2 = change_basis(schur(2, {(1, 1): {0: 1}}), "elementary")
    assert e2.coefficient(Partition((2,))) == QPolynomial.one()
    assert len(e2.sorted_terms()) == 1
    for n in range(2, 6):
        f = schur(n, {(n,): {0: 1}, (n - 1, 1): {0: 1}})
        hbasis = change_basis(f, "homogeneous")
        assert hbasis.coefficient(Partition((n - 1, 1))) == QPolynomial.one()
        assert len(hbasis.sorted_terms()) == 1
    m = change_basis(
        SymFn(2, "elementary", {Partition((2,)): QPolynomial.one()}), "monomial"
    )
    assert m.coefficient(Partition((1, 1))) == QPolynomial.one()
    assert len(m.sorted_terms()) == 1


def test_change_basis_round_trips():
    f = csf_by_coloring(inc_graph(new_hessenberg([2, 3, 4, 4])))
    for b1 in ("schur", "elementary", "homogeneous", "monomial"):
        g = change_basis(f, b1)
        for b2 in ("schur", "elementary", "homogeneous", "monomial"):
            assert change_basis(change_basis(g, b2), b1) == g


# --- reference route for change_basis -----------------------------------------
# Expand e_lam, h_lam and s_lam (Jacobi-Trudi) as polynomials in n variables,
# read off the monomial coefficients, and solve for the target basis with a
# Fraction Gauss-Jordan elimination.  Nothing here uses Kostka numbers.


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


@cache
def _elementary_poly(k: int, nvars: int) -> dict:
    out = {}
    for subset in itertools.combinations(range(nvars), k):
        out[tuple(int(i in subset) for i in range(nvars))] = 1
    return out


@cache
def _homogeneous_poly(k: int, nvars: int) -> dict:
    if k < 0:
        return {}
    out: dict = {}
    for combo in itertools.combinations_with_replacement(range(nvars), k):
        e = tuple(combo.count(i) for i in range(nvars))
        out[e] = out.get(e, 0) + 1
    return out


def _product_poly(factors, nvars: int, coeff: int = 1) -> dict:
    poly = {(0,) * nvars: coeff}
    for f in factors:
        poly = _poly_mul(poly, f)
    return poly


def _schur_poly(lam: Partition, nvars: int) -> dict:
    """Jacobi-Trudi: s_lam = det(h_(lam_i - i + j))."""
    parts, out = lam.parts, {}
    for perm in itertools.permutations(range(len(parts))):
        degrees = [parts[i] - i + perm[i] for i in range(len(parts))]
        if min(degrees) < 0:
            continue
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        term = _product_poly((_homogeneous_poly(d, nvars) for d in degrees), nvars, sign)
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return out


@cache
def _reference_expansion(n: int, basis: str) -> list[list[int]]:
    """Row lam, column mu: coefficient of m_mu in the basis element lam."""
    parts = partitions_of(n)
    rows = []
    for lam in parts:
        if basis == "monomial":
            poly = {tuple(lam.parts) + (0,) * (n - len(lam.parts)): 1}
        elif basis == "schur":
            poly = _schur_poly(lam, n)
        else:
            maker = _elementary_poly if basis == "elementary" else _homogeneous_poly
            poly = _product_poly((maker(k, n) for k in lam.parts), n)
        rows.append([poly.get(tuple(mu.parts) + (0,) * (n - len(mu.parts)), 0) for mu in parts])
    return rows


@cache
def _reference_transition(n: int, src: str, dst: str) -> list[list[int]]:
    """Column lam holds the dst coordinates of the src basis element lam."""
    a = [list(col) for col in zip(*_reference_expansion(n, dst))]
    b = [list(col) for col in zip(*_reference_expansion(n, src))]
    sol = fraction_solve(a, b)
    assert all(v.denominator == 1 for row in sol for v in row)
    return [[int(v) for v in row] for row in sol]


def _reference_change_basis(f: SymFn, dst: str) -> SymFn:
    parts = partitions_of(f.degree)
    t = _reference_transition(f.degree, f.basis, dst)
    terms = {}
    for i, nu in enumerate(parts):
        acc = QPolynomial.zero()
        for j, lam in enumerate(parts):
            if t[i][j]:
                acc = acc + f.coefficient(lam) * t[i][j]
        terms[nu] = acc
    return SymFn(f.degree, dst, terms)


def _random_symfn(rng: random.Random, n: int, basis: str) -> SymFn:
    parts = partitions_of(n)
    terms = {}
    for p in rng.sample(parts, rng.randint(1, len(parts))):
        terms[p] = QPolynomial(
            {rng.randint(0, 5): rng.randint(-9, 9) for _ in range(rng.randint(1, 3))}
        )
    return SymFn(n, basis, terms)


def test_change_basis_matches_reference_on_basis_elements():
    for n in range(1, 7):
        for src in BASES:
            for dst in BASES:
                for lam in partitions_of(n):
                    f = SymFn(n, src, {lam: QPolynomial.one()})
                    assert change_basis(f, dst) == _reference_change_basis(f, dst)


def test_change_basis_matches_reference_on_random_vectors():
    rng = random.Random(20160)
    for n in range(1, 7):
        for src in BASES:
            for dst in BASES:
                for _ in range(3):
                    f = _random_symfn(rng, n, src)
                    assert change_basis(f, dst) == _reference_change_basis(f, dst)


def test_reference_expansions_agree_with_known_values():
    # s_(2,1) = m_(2,1) + 2 m_(1,1,1); h_(2,1) = m_(3) + 2 m_(2,1) + 3 m_(1,1,1).
    assert _reference_expansion(3, "schur")[1] == [0, 1, 2]
    assert _reference_expansion(3, "homogeneous")[1] == [1, 2, 3]
    assert _reference_expansion(3, "elementary")[1] == [0, 1, 3]


def test_change_basis_round_trips_n8():
    rng = random.Random(8)
    for src in BASES:
        f = _random_symfn(rng, 8, src)
        for dst in BASES:
            assert change_basis(change_basis(f, dst), src) == f


def test_change_basis_degree_bound():
    f = SymFn(9, "schur", {Partition((9,)): QPolynomial.one()})
    with pytest.raises(DegreeTooLarge):
        change_basis(f, "monomial")


def test_is_positive_witness():
    f = schur(3, {(2, 1): {0: 1}, (3,): {0: -1}})
    ok, witness = is_positive(f, "schur")
    assert not ok
    assert witness == (Partition((3,)), 0, -1)


def test_omega_h_to_e():
    for n in (3, 4, 5):
        f = schur(n, {(n,): {0: 1}, (n - 1, 1): {0: 1}})
        image = change_basis(omega(change_basis(f, "schur")), "elementary")
        assert image.coefficient(Partition((n - 1, 1))) == QPolynomial.one()
        assert len(image.sorted_terms()) == 1


def test_pipeline_positivity_n3():
    f = csf_schur_by_ptableaux(new_hessenberg([2, 3, 3]))
    assert is_positive(f, "schur")[0]
    assert is_positive(f, "elementary")[0]
    assert is_positive(omega(f), "homogeneous")[0]


def test_frobenius_from_decomposition_basics():
    c = DecompositionCounts(4, {0: (1, 0)})
    assert frobenius_from_decomposition(c) == schur(4, {(4,): {0: 1}})
    c2 = DecompositionCounts(4, {1: (0, 1)})
    assert frobenius_from_decomposition(c2) == schur(4, {(3, 1): {1: 1}})


def transpose_decomposition_counts(h):
    """Per degree, the trivial count from TransposeB1 and the standard count
    from TransposeB3, whose elements come n - 1 to an x-part."""
    b1, _, b3 = basis_transpose(h)
    trivial, standard = Counter(b1.degrees()), Counter(b3.degrees())
    assert all(c % (h.n - 1) == 0 for c in standard.values()), h.values
    degrees = sorted(trivial.keys() | standard.keys())
    return DecompositionCounts(
        h.n, {d: (trivial[d], standard[d] // (h.n - 1)) for d in degrees}
    )


def _check_frobenius_matches_omega_csf(n):
    # the paper's decompositions read as a graded character equal omega of the
    # csf (Shareshian-Wachs; Brosnan-Chow), for h = (h(1), n, ..., n) and for
    # its transpose ((n-1)^(n-m), n^m)
    for k in range(1, n + 1):
        h = one_row(n, k)
        counts = decomposition_counts(h)
        assert frobenius_from_decomposition(counts) == omega(
            csf_schur_by_ptableaux(h)
        ), h.values
        h = new_hessenberg([n - 1] * (n - k) + [n] * k)
        assert frobenius_from_decomposition(transpose_decomposition_counts(h)) == omega(
            csf_schur_by_ptableaux(h)
        ), h.values


def test_frobenius_matches_omega_csf():
    for n in range(2, 7):
        _check_frobenius_matches_omega_csf(n)


@pytest.mark.long
def test_frobenius_matches_omega_csf_n7():
    _check_frobenius_matches_omega_csf(7)


def schur_by_recounted_ptableaux(h) -> SymFn:
    """The tableau-by-tableau route: enumerate each shape's P-tableaux and add
    q^inv(T), recounting inv(T) with `inversions`."""
    terms = {}
    for lam in partitions_of(h.n):
        gf = QPolynomial.zero()
        for t in enumerate_p_tableaux(h, lam):
            gf = gf + QPolynomial.q(inversions(h, t).count)
        if gf:
            terms[lam] = gf
    return SymFn(h.n, "schur", terms)


N7_CATALOG = ((3, 4, 5, 6, 7, 7, 7), (2, 4, 6, 7, 7, 7, 7), (4, 7, 7, 7, 7, 7, 7),
              (5, 7, 7, 7, 7, 7, 7))


def test_ptableaux_schur_matches_recounted_tableaux():
    hs = [h for n in range(1, 7) for h in all_hessenberg_functions(n)]
    hs += [new_hessenberg(v) for v in N7_CATALOG]
    for h in hs:
        assert csf_schur_by_ptableaux(h) == schur_by_recounted_ptableaux(h), h.values


def test_ptableaux_schur_builds_and_rechecks_no_tableau(monkeypatch):
    # The Schur route tallies inversion counts during the fill; a tableau
    # object or a re-check per filling would raise here.
    def refuse(*_args, **_kwargs):
        raise AssertionError("per-tableau work on the tallying route")

    for name in ("inversions", "is_p_tableau"):
        original = getattr(tableaux, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("hesscomb"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(tableaux.PTableau, "__post_init__", refuse)
    h = new_hessenberg([3, 5, 5, 5, 5])
    assert csf_schur_by_ptableaux(h).coefficient(Partition((1, 1, 1, 1, 1))) == (
        q_int(3) * q_factorial(4)
    )
    assert via_ptableaux(h)(1) == math.factorial(5)


def test_coloring_matches_ptableaux_schur():
    for n in range(1, 5):
        for h in all_hessenberg_functions(n):
            lhs = change_basis(csf_by_coloring(inc_graph(h)), "schur")
            assert lhs == csf_schur_by_ptableaux(h)


@pytest.mark.long
def test_coloring_matches_ptableaux_schur_n5():
    for h in all_hessenberg_functions(5):
        lhs = change_basis(csf_by_coloring(inc_graph(h)), "schur")
        assert lhs == csf_schur_by_ptableaux(h)


def _m_lambda_at_ones(p: Partition, nvars: int) -> int:
    """Number of monomials in m_lambda over nvars variables."""
    mults = Counter(p.parts)
    zeros = nvars - len(p.parts)
    count = math.factorial(nvars) // math.factorial(zeros)
    for r in mults.values():
        count //= math.factorial(r)
    return count


def _proper_coloring_count(h) -> int:
    from itertools import product

    g = inc_graph(h)
    n = g.n
    return sum(
        1
        for kappa in product(range(1, n + 1), repeat=n)
        if all(kappa[i - 1] != kappa[j - 1] for i, j in sorted(g.edges))
    )


def test_monomial_expansion_counts_all_colorings():
    for h in all_hessenberg_functions(4):
        f = csf_by_coloring(inc_graph(h))
        total = sum(c(1) * _m_lambda_at_ones(p, 4) for p, c in f.sorted_terms())
        assert total == _proper_coloring_count(h)



def test_e_positivity_identity():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            f = change_basis(csf_schur_by_ptableaux(h).at_q(1), "elementary")
            expected = {}
            std = (n - h1) * math.factorial(n - 2)
            triv = n * (h1 - 1) * math.factorial(n - 2)
            if std:
                expected[Partition((n - 1, 1))] = QPolynomial.from_int(std)
            if triv:
                expected[Partition((n,))] = QPolynomial.from_int(triv)
            assert f == SymFn(n, "elementary", expected)


def test_symfn_json_round_trip():
    f = csf_schur_by_ptableaux(new_hessenberg([4, 5, 5, 5, 5]))
    data = json.loads(f.to_json())
    assert data["basis"] == "schur"
    assert data["degree"] == 5
    assert SymFn.from_json(f.to_json()) == f


def test_at_q_and_pretty():
    f = csf_schur_by_ptableaux(new_hessenberg([2, 3, 3]))
    g = f.at_q(1)
    assert g.coefficient(Partition((1, 1, 1)))(1) == 4
    assert "s(" in f.pretty()


# --- reference route for csf_by_coloring --------------------------------------
# Walk every proper coloring of the vertices 1..n, in order, with colors 1..n,
# and tally q^(ascents) by content vector.  This shares nothing with the
# stable-set dynamic programme in the library.


def _brute_force_contents(g: IncGraph) -> dict[tuple[int, ...], QPolynomial]:
    """Content vector -> sum of q^(ascents) over the colorings with it."""
    n = g.n
    neighbors: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in g.edges:
        neighbors[j].append(i)
    by_content: dict[tuple[int, ...], dict[int, int]] = {}
    coloring = [0] * (n + 1)

    def assign(v: int, asc: int) -> None:
        if v > n:
            counts = [0] * n
            for u in range(1, n + 1):
                counts[coloring[u] - 1] += 1
            acc = by_content.setdefault(tuple(counts), {})
            acc[asc] = acc.get(asc, 0) + 1
            return
        for color in range(1, n + 1):
            if any(coloring[u] == color for u in neighbors[v]):
                continue
            gained = sum(1 for u in neighbors[v] if coloring[u] < color)
            coloring[v] = color
            assign(v + 1, asc + gained)
            coloring[v] = 0

    assign(1, 0)
    return {key: QPolynomial(acc) for key, acc in by_content.items()}


def _sorted_content(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(key, reverse=True))


def _csf_brute_force(g: IncGraph) -> SymFn:
    """The monomial expansion read off the sorted content vectors; raises
    NotSymmetric if any rearrangement carries a different q-polynomial."""
    contents = _brute_force_contents(g)
    for key, poly in contents.items():
        if poly != contents.get(_sorted_content(key), QPolynomial.zero()):
            raise NotSymmetric(f"content {key}")
    return SymFn(
        g.n,
        "monomial",
        {Partition(tuple(c for c in key if c)): poly
         for key, poly in contents.items() if key == _sorted_content(key)},
    )


def _assert_csf_matches_brute_force(graphs) -> int:
    """Both routes give the same SymFn or both raise NotSymmetric; returns
    the number of graphs on which both raised.

    A reversed ascent convention maps every composition to its reverse, which
    keeps both verdicts, so the content named by NotSymmetric is checked
    against the colorings too.
    """
    raised = 0
    for g in graphs:
        try:
            got = csf_by_coloring(g)
        except NotSymmetric as exc:
            # The named content and its sorted form differ in the colorings
            # too, so the oracle would raise as well.
            found = re.fullmatch(r"content \(([\d, ]+)\) carries (.+), expected (.+)", str(exc))
            key = tuple(int(c) for c in found[1].split(","))
            contents = _brute_force_contents(g)
            assert str(contents[key]) == found[2] != found[3], g
            assert str(contents.get(_sorted_content(key), QPolynomial.zero())) == found[3], g
            raised += 1
            continue
        assert got == _csf_brute_force(g), g
    return raised


def _labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield IncGraph(n, frozenset(p for k, p in enumerate(pairs) if bits >> k & 1))


def test_csf_matches_brute_force_all_graphs_n4():
    graphs = [g for n in range(1, 5) for g in _labelled_graphs(n)]
    assert len(graphs) == 1 + 2 + 8 + 64
    # Both verdicts occur, so the sweep exercises the symmetry check too.
    raised = _assert_csf_matches_brute_force(graphs)
    assert 0 < raised < len(graphs)


def test_csf_matches_brute_force_random_graphs_n5():
    rng = random.Random(5150)
    pairs = list(itertools.combinations(range(1, 6), 2))
    graphs = [
        IncGraph(5, frozenset(p for p in pairs if rng.random() < 0.5))
        for _ in range(200)
    ]
    _assert_csf_matches_brute_force(graphs)


def test_csf_matches_brute_force_hessenberg_n5():
    graphs = [inc_graph(h) for n in range(1, 6) for h in all_hessenberg_functions(n)]
    assert _assert_csf_matches_brute_force(graphs) == 0


# The n = 6 shapes served by perfbench's service-mix workload.
SERVICE_MIX_N6 = ((2, 4, 6, 6, 6, 6), (3, 4, 5, 6, 6, 6), (3, 6, 6, 6, 6, 6), (4, 6, 6, 6, 6, 6))


def test_csf_matches_brute_force_service_mix_n6():
    graphs = [inc_graph(new_hessenberg(h)) for h in SERVICE_MIX_N6]
    assert _assert_csf_matches_brute_force(graphs) == 0


def test_csf_not_symmetric_names_the_bad_content():
    # Vertex 1 is adjacent to both ends of the non-edge {2, 3}: the class {1}
    # before the class {2, 3} gains two ascents, the reverse order none.
    g = IncGraph(3, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(NotSymmetric, match=r"content \(1, 2, 0\) carries q\^2, expected 1$"):
        csf_by_coloring(g)
    with pytest.raises(NotSymmetric):
        _csf_brute_force(g)


@pytest.mark.long
def test_csf_matches_brute_force_all_graphs_n5():
    _assert_csf_matches_brute_force(_labelled_graphs(5))


@pytest.mark.long
def test_csf_matches_brute_force_hessenberg_n6():
    graphs = [inc_graph(h) for h in all_hessenberg_functions(6)]
    assert _assert_csf_matches_brute_force(graphs) == 0


@pytest.mark.long
def test_csf_matches_brute_force_service_mix_n7():
    shapes = ((5, 7, 7, 7, 7, 7, 7), (2, 4, 6, 7, 7, 7, 7), (3, 4, 5, 6, 7, 7, 7))
    graphs = [inc_graph(new_hessenberg(h)) for h in shapes]
    assert _assert_csf_matches_brute_force(graphs) == 0
