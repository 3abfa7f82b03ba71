"""Tests for the Poincare polynomial routes and their reconciliation."""

import math

import pytest

from hesscomb import poincare
from hesscomb.cohomology import basis_B1, basis_B3, degree_gf
from hesscomb.errors import FormMismatch, OutOfRange
from hesscomb.hessenberg import all_hessenberg_functions, new_hessenberg, transpose
from hesscomb.poincare import (
    PoincareReport,
    closed_form,
    reconcile,
    via_basis_degrees,
    via_gkm,
    via_ptableaux,
)
from hesscomb.qpoly import QPolynomial, q_factorial


def one_row(n, h1):
    return new_hessenberg([h1] + [n] * (n - 1))


def test_closed_form_examples():
    assert closed_form(one_row(3, 2)) == QPolynomial({0: 1, 1: 4, 2: 1})
    assert closed_form(one_row(3, 1)) == QPolynomial({0: 3, 1: 3})
    for n in range(1, 7):
        assert closed_form(one_row(n, n)) == q_factorial(n)
    with pytest.raises(FormMismatch):
        closed_form(new_hessenberg([2, 3, 4, 4]))


def test_closed_form_and_reconcile_at_n1():
    # closed_form takes the (n-1) (n-2)_q! summand only for n >= 2
    h = new_hessenberg([1])
    assert closed_form(h) == QPolynomial.one()
    report = reconcile(h)
    assert report.agree
    assert report.via_gkm == QPolynomial.one()


def test_via_ptableaux_examples():
    assert via_ptableaux(one_row(3, 2)) == QPolynomial({0: 1, 1: 4, 2: 1})
    assert via_ptableaux(new_hessenberg([1, 2, 3])) == QPolynomial({0: 6})
    assert via_ptableaux(new_hessenberg([2, 3, 4, 4])) == QPolynomial(
        {0: 1, 1: 11, 2: 11, 3: 1}
    )


def test_three_routes_agree_one_row():
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            closed = closed_form(h)
            assert via_ptableaux(h) == closed
            assert via_basis_degrees(h) == closed


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.long)]
)
def test_basis_census_matches_the_built_bases(n):
    for h1 in range(1, n + 1):
        h = one_row(n, h1)
        assert via_basis_degrees(h) == degree_gf(basis_B1(h)) + degree_gf(basis_B3(h))


def test_gkm_route_small_n():
    for values in ([1, 2], [2, 2], [1, 3, 3], [2, 3, 3], [3, 3, 3], [2, 2, 3]):
        h = new_hessenberg(values)
        assert via_gkm(h) == via_ptableaux(h)


def test_gkm_route_guard():
    h = one_row(5, 2)
    with pytest.raises(OutOfRange):
        via_gkm(h)


def test_total_dimension_is_factorial():
    for n in range(1, 8):
        for h1 in range(1, n + 1):
            assert closed_form(one_row(n, h1))(1) == math.factorial(n)
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            assert via_ptableaux(h)(1) == math.factorial(n)


def test_transpose_symmetry():
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            assert via_ptableaux(h) == via_ptableaux(transpose(h))
    for n in range(2, 6):
        for h1 in range(1, n + 1):
            h = one_row(n, h1)
            assert closed_form(h) == via_ptableaux(transpose(h))


def _palindromic(p):
    coeffs = [p.coefficient(e) for e in range(p.degree() + 1)]
    return coeffs == coeffs[::-1]


def test_palindromic_for_all_h():
    for n in range(1, 7):
        for h1 in range(1, n + 1):
            assert _palindromic(closed_form(one_row(n, h1)))
    for n in range(1, 6):
        for h in all_hessenberg_functions(n):
            assert _palindromic(via_ptableaux(h))


def test_reconcile_one_row_report():
    h = one_row(3, 2)
    report = reconcile(h)
    assert isinstance(report, PoincareReport)
    assert report.agree
    assert report.closed_form == report.via_tableaux == report.via_basis
    assert report.via_gkm == report.closed_form
    assert report.polynomial() == QPolynomial({0: 1, 1: 4, 2: 1})
    assert (
        report.to_json()
        == '{"h": [2, 3, 3], "methods_agree": true, "poincare": [[0, 1], [1, 4], [2, 1]]}'
    )


def test_reconcile_general_h():
    report = reconcile(new_hessenberg([2, 3, 4, 4]))
    assert report.closed_form is None
    assert report.via_basis is None
    assert report.via_gkm is None
    assert report.agree
    assert report.polynomial() == QPolynomial({0: 1, 1: 11, 2: 11, 3: 1})


@pytest.mark.parametrize("values", [(2, 2, 3), (3, 3, 3, 4), (3, 3, 4, 4)], ids=str)
def test_reconcile_runs_gkm_on_transpose_only_h(monkeypatch, values):
    # The closed form and the basis route read the one-row transpose; the
    # GKM route reads the transpose form itself.
    h = new_hessenberg(list(values))
    report = reconcile(h)
    assert report.closed_form == closed_form(transpose(h))
    assert report.via_basis == via_basis_degrees(transpose(h))
    assert report.via_gkm is not None
    assert report.closed_form == report.via_basis == report.via_gkm == report.via_tableaux
    assert report.agree
    monkeypatch.setattr(poincare, "betti_numbers", lambda _h: (1, 1))
    assert not reconcile(h).agree


@pytest.mark.parametrize("values", [(4, 4, 4, 4, 5), (4, 4, 5, 5, 5)], ids=str)
def test_reconcile_checks_a_transpose_only_h_past_the_gkm_guard(monkeypatch, values):
    # Past GKM_MAX_N the one-row transpose still gives two routes besides
    # the tableaux, so a wrong one is seen.
    h = new_hessenberg(list(values))
    report = reconcile(h)
    assert report.via_gkm is None
    assert report.closed_form == report.via_basis == report.via_tableaux
    assert report.agree
    real = poincare.via_basis_degrees
    monkeypatch.setattr(poincare, "via_basis_degrees", lambda g: real(g) + QPolynomial.one())
    assert not reconcile(h).agree


def test_reconcile_skips_gkm_for_large_n():
    report = reconcile(one_row(5, 3))
    assert report.via_gkm is None
    assert report.agree
    assert report.closed_form == report.via_tableaux
