"""Tests for the three tableau bijections and their traces.

Round trips are exhausted over whole bases for n up to 5, images are compared
against independent tableau enumeration, and the embedded reference traces are
matched step for step.  round_trip, which runs the maps' routines on exponent
tuples, is compared with the per-element route through the public maps.
"""

import json

import pytest

from hesscomb.bijections import (
    TabPair,
    _insert_b1,
    _insert_b3,
    _insert_nilpotent,
    phi_b1,
    phi_b3,
    phi_nilpotent,
    psi_b1,
    psi_b3,
    psi_nilpotent,
    round_trip,
    trace_phi_b1,
    trace_phi_b3,
    trace_phi_nilpotent,
)
from hesscomb.cohomology import (
    XYElement,
    XYMonomial,
    basis_B1,
    basis_B3,
    basis_nilpotent,
)
from hesscomb.errors import FormMismatch, HesscombError, InvalidPair, NotInBasis, NotPTableau
from hesscomb.goldens import lookup
from hesscomb.hessenberg import all_hessenberg_functions, classify_form, new_hessenberg
from hesscomb.tableaux import (
    Partition,
    PTableau,
    enumerate_p_tableaux,
    inversions,
    syt_with_bottom_pair,
)


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def column_rows(col):
    return tuple((v,) for v in col)


def column_tableau(col):
    return PTableau(Partition((1,) * len(col)), column_rows(col))


def unslide(col):
    col = list(col)
    p = col.index(1)
    if p > 0:
        col.insert(0, col.pop(p - 1))
    return col


def antichain_inversions(col):
    return sum(1 for a in range(len(col)) for b in range(a) if col[b] > col[a])


# --- worked examples ------------------------------------------------------------


def test_nilpotent_worked_example():
    h = new_hessenberg([2, 3, 5, 5, 5])
    m = XYMonomial((1, 0, 1, 1, 0))
    t = phi_nilpotent(h, m)
    assert t.rows == column_rows([2, 1, 5, 3, 4])
    assert psi_nilpotent(h, t) == m
    assert trace_phi_nilpotent(h, m) == lookup("ex-nilpotent-insertion")


def test_b1_worked_example():
    h = new_hessenberg([3, 5, 5, 5, 5])
    m = XYMonomial((2, 0, 1, 1, 0))
    t = phi_b1(h, m)
    assert t.rows == column_rows([5, 2, 1, 3, 4])
    assert psi_b1(h, t) == m
    trace = trace_phi_b1(h, m)
    assert trace == lookup("ex-b1-insertion")
    assert trace["slide"] == {"entry": 2, "moved": True, "column": [5, 2, 1, 3, 4]}


def test_b3_worked_example():
    h = new_hessenberg([3, 5, 5, 5, 5])
    exps = (0, 0, 1, 0, 2)
    e = XYElement(5, {XYMonomial(exps, 2): 1, XYMonomial(exps, 1): -1})
    pair = phi_b3(h, e)
    assert pair.s.rows == ((1, 2), (3,), (4,), (5,))
    assert pair.t.rows == ((1, 4), (2,), (5,), (3,))
    assert psi_b3(h, pair) == e
    assert trace_phi_b3(h, e) == lookup("ex-b3-insertion")


# --- exhaustive round trips and image characterizations --------------------------


def test_nilpotent_bijection_all_h():
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            column_shape = Partition((1,) * n)
            targets = {t.rows for t in enumerate_p_tableaux(h, column_shape)}
            outputs = set()
            for e in basis_nilpotent(h).elements:
                (m,) = e.terms
                t = phi_nilpotent(h, m)
                assert psi_nilpotent(h, t) == m
                assert inversions(h, t).count == m.xdegree()
                outputs.add(t.rows)
            assert outputs == targets


def test_b1_bijection_one_row():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            column_shape = Partition((1,) * n)
            targets = {t.rows for t in enumerate_p_tableaux(h, column_shape)}
            outputs = set()
            for e in basis_B1(h).elements:
                (m,) = e.terms
                t = phi_b1(h, m)
                assert psi_b1(h, t) == m
                col = [row[0] for row in t.rows]
                assert antichain_inversions(unslide(col)) == m.xdegree()
                outputs.add(t.rows)
            assert outputs == targets


def test_b3_bijection_one_row():
    for n in range(3, 6):
        for h1 in range(1, n):
            h = one_row(n, h1)
            shape = Partition((2,) + (1,) * (n - 2))
            pt = {t.rows for t in enumerate_p_tableaux(h, shape)}
            syt = {syt_with_bottom_pair(n, k).rows for k in range(2, n + 1)}
            outputs = set()
            for e in basis_B3(h).elements:
                pair = phi_b3(h, e)
                assert psi_b3(h, pair) == e
                outputs.add((pair.s.rows, pair.t.rows))
            assert outputs == {(s, t) for s in syt for t in pt}
            assert len(outputs) == len(basis_B3(h))


def test_b3_exponent_accounting():
    # exponent on x_i plus the inversions of T with i as larger entry is i - 2
    for n, h1 in [(4, 2), (5, 2), (5, 3)]:
        h = one_row(n, h1)
        for e in basis_B3(h).elements:
            pair = phi_b3(h, e)
            larger = [0] * (n + 1)
            for _small, big in inversions(h, pair.t).pairs:
                larger[big] += 1
            plus = next(m for m in e.terms if e.terms[m] == 1)
            for i in range(2, n + 1):
                assert plus.xexp[i - 1] + larger[i] == i - 2


def test_nilpotent_exponents_are_small_entry_inversion_counts():
    h = new_hessenberg([2, 3, 5, 5, 5])
    m = XYMonomial((1, 0, 1, 1, 0))
    t = phi_nilpotent(h, m)
    counts = [0] * 6
    for small, _large in inversions(h, t).pairs:
        counts[small] += 1
    assert tuple(counts[1:]) == m.xexp


# --- traces ----------------------------------------------------------------------


def test_trace_structure_nilpotent():
    h = new_hessenberg([1, 2, 3])
    m = XYMonomial((0, 0, 0))
    trace = trace_phi_nilpotent(h, m)
    assert trace["map"] == "nilpotent"
    assert [s["entry"] for s in trace["steps"]] == [2, 1]
    assert trace["output"]["rows"] == [[1], [2], [3]]
    assert trace["output"] == json.loads(phi_nilpotent(h, m).to_json())


def test_trace_b1_no_slide():
    h = one_row(3, 2)
    m = XYMonomial((0, 1, 0))
    trace = trace_phi_b1(h, m)
    assert trace["slide"] == {"entry": 1, "moved": False}
    assert trace["output"] == json.loads(phi_b1(h, m).to_json())


def test_traces_match_maps_on_every_basis_element():
    """Each trace reports its map's image, and the inverse undoes it, for every
    basis element with n <= 6: nilpotent for all h, B1 and B3 for one-row h."""
    for n in range(1, 7):
        for h in all_hessenberg_functions(n):
            cases = [(basis_nilpotent(h), phi_nilpotent, psi_nilpotent, trace_phi_nilpotent)]
            if classify_form(h).is_one_row:
                cases.append((basis_B1(h), phi_b1, psi_b1, trace_phi_b1))
                cases.append((basis_B3(h), phi_b3, psi_b3, trace_phi_b3))
            for basis, phi, psi, trace in cases:
                for e in basis.elements:
                    x = e if phi is phi_b3 else next(iter(e.terms))
                    image = phi(h, x)
                    assert trace(h, x)["output"] == json.loads(image.to_json())
                    assert psi(h, image) == x


# --- round_trip against the per-element route -------------------------------------

ORACLE_MAPS = {
    "nilpotent": (basis_nilpotent, phi_nilpotent, psi_nilpotent),
    "b1": (basis_B1, phi_b1, psi_b1),
    "b3": (basis_B3, phi_b3, psi_b3),
}


def oracle_round_trip(h, name):
    """(count, ok) by the public objects: build the basis, send each element
    (the single monomial of each, for the monomial maps) through phi and then
    psi, and compare."""
    basis, phi, psi = ORACLE_MAPS[name]
    elements = basis(h).elements
    items = elements if name == "b3" else [m for el in elements for m in el.terms]
    return len(items), all(psi(h, phi(h, x)) == x for x in items)


def routine_image(h, name, x):
    """The rows of the image of x as the map's insertion routine gives them."""
    if name == "nilpotent":
        return column_rows(_insert_nilpotent(h.values, x.xexp))
    if name == "b1":
        return column_rows(_insert_b1(h.values, x.xexp))
    plus = next(m for m, c in x.terms.items() if c == 1)
    col, j = _insert_b3(h.values, plus.xexp)
    return ((col[0], j),) + column_rows(col[1:])


def check_round_trip_against_oracle(n):
    for h in all_hessenberg_functions(n):
        for name, (basis, phi, _psi) in ORACLE_MAPS.items():
            if name != "nilpotent" and not classify_form(h).is_one_row:
                with pytest.raises(FormMismatch):
                    round_trip(h, name)
                continue
            assert round_trip(h, name) == oracle_round_trip(h, name), (h, name)
            for e in basis(h).elements:
                x = e if name == "b3" else next(iter(e.terms))
                image = phi(h, x)
                rows = image.t.rows if name == "b3" else image.rows
                assert routine_image(h, name, x) == rows


def test_round_trip_matches_per_element_route():
    for n in range(1, 7):
        check_round_trip_against_oracle(n)


@pytest.mark.long
def test_round_trip_matches_per_element_route_n7():
    check_round_trip_against_oracle(7)


def test_round_trip_rejects_unknown_map():
    with pytest.raises(HesscombError, match="unknown map"):
        round_trip(new_hessenberg([2, 3, 3]), "b2")


# --- error paths -----------------------------------------------------------------


def test_nilpotent_rejects_foreign_monomials():
    h = new_hessenberg([2, 3, 3])
    with pytest.raises(NotInBasis):
        phi_nilpotent(h, XYMonomial((2, 0, 0)))
    with pytest.raises(NotInBasis):
        phi_nilpotent(h, XYMonomial((0, 0, 0), 1))
    with pytest.raises(NotInBasis):
        phi_nilpotent(h, XYMonomial((0, 0)))


def test_psi_nilpotent_rejects_bad_tableaux():
    h = new_hessenberg([1, 2, 3])
    wide = PTableau(Partition((2, 1)), ((1, 3), (2,)))
    with pytest.raises(NotPTableau):
        psi_nilpotent(h, wide)
    not_ptab = column_tableau([2, 1, 3])
    with pytest.raises(NotPTableau):
        psi_nilpotent(h, not_ptab)


def test_b1_rejects_foreign_monomials():
    h = one_row(3, 2)
    with pytest.raises(NotInBasis):
        phi_b1(h, XYMonomial((1, 1, 0)))
    with pytest.raises(NotInBasis):
        phi_b1(h, XYMonomial((3, 0, 0)))
    with pytest.raises(NotInBasis):
        phi_b1(h, XYMonomial((0, 0, 0), 2))


def test_b3_is_empty_when_h1_is_n():
    h = new_hessenberg([3, 3, 3])
    e = XYElement(3, {XYMonomial((0, 0, 0), 2): 1, XYMonomial((0, 0, 0), 1): -1})
    with pytest.raises(NotInBasis, match=r"B3 is empty when h\(1\) = n = 3"):
        phi_b3(h, e)


def test_b3_rejects_foreign_elements():
    h = one_row(4, 2)
    good_x = (0, 0, 1, 0)
    with pytest.raises(NotInBasis):
        phi_b3(h, XYElement(4, {XYMonomial(good_x, 2): 1}))
    with pytest.raises(NotInBasis):
        phi_b3(
            h, XYElement(4, {XYMonomial(good_x, 2): 2, XYMonomial(good_x, 1): -2})
        )
    with pytest.raises(NotInBasis):
        phi_b3(
            h,
            XYElement(4, {XYMonomial((1, 0, 0, 0), 2): 1, XYMonomial((1, 0, 0, 0), 1): -1}),
        )
    with pytest.raises(NotInBasis):
        phi_b3(
            h,
            XYElement(4, {XYMonomial((0, 0, 1, 1), 2): 1, XYMonomial((0, 0, 1, 1), 1): -1}),
        )
    full = one_row(3, 3)
    with pytest.raises(NotInBasis):
        phi_b3(
            full,
            XYElement(3, {XYMonomial((0, 0, 0), 2): 1, XYMonomial((0, 0, 0), 1): -1}),
        )


def test_psi_b3_rejects_bad_pairs():
    h = one_row(4, 2)
    shape = Partition((2, 1, 1))
    s = syt_with_bottom_pair(4, 2)
    with pytest.raises(InvalidPair):
        TabPair(s, column_tableau([1, 2, 3, 4]))
    fake_standard = PTableau(shape, ((1, 3), (4,), (2,)))
    good_t = PTableau(shape, ((1, 3), (2,), (4,)))
    with pytest.raises(InvalidPair):
        psi_b3(h, TabPair(fake_standard, good_t))
    not_bottom_one = PTableau(shape, ((2, 3), (1,), (4,)))
    with pytest.raises(InvalidPair):
        psi_b3(h, TabPair(not_bottom_one, good_t))
    not_p_tableau = PTableau(shape, ((2, 3), (1,), (4,)))  # h(2) = 4 is not < 3
    with pytest.raises(InvalidPair, match=r"second tableau is not a P-tableau for h = \(2,4,4,4\)"):
        psi_b3(h, TabPair(s, not_p_tableau))


def test_tab_pair_json():
    pair = TabPair(
        syt_with_bottom_pair(4, 3),
        PTableau(Partition((2, 1, 1)), ((1, 3), (2,), (4,))),
    )
    data = json.loads(pair.to_json())
    assert set(data) == {"s", "t"}
    assert data["s"]["rows"][0] == [1, 3]
    assert data["t"]["shape"] == [2, 1, 1]
