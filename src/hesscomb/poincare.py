"""Poincare polynomials computed by independent routes and reconciled.

For one-row h the closed form is h(1)_q (n-1)_q! + (n-1) q^(h(1)-1)
(n-h(1))_q (n-2)_q!.  The tableau route reads the Schur coefficients of the
chromatic quasisymmetric function from P-tableaux (csf_schur_by_ptableaux) and
weights each by its standard-tableau count; it works for every h.  The basis
route adds the degree generating functions of B1 and B3, counted from their
exponent tuples by decomposition_counts; the GKM route computes graded ranks
of the quotient model for either special form (small n only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import decomposition_counts
from .errors import FormMismatch, OutOfRange
from .gkm import betti_numbers
from .hessenberg import HessenbergFunction, _one_row_h1, classify_form, transpose
from .qpoly import QPolynomial, q_factorial, q_int
from .symfunc import csf_schur_by_ptableaux
from .tableaux import count_syt

GKM_MAX_N = 4


@dataclass(frozen=True)
class PoincareReport:
    h: HessenbergFunction
    closed_form: QPolynomial | None
    via_tableaux: QPolynomial
    via_basis: QPolynomial | None
    via_gkm: QPolynomial | None
    agree: bool

    def polynomial(self) -> QPolynomial:
        return self.closed_form if self.closed_form is not None else self.via_tableaux

    def to_json(self) -> str:
        poly = self.polynomial()
        return json.dumps(
            {
                "h": list(self.h.values),
                "poincare": [[e, c] for e, c in poly.pairs()],
                "methods_agree": self.agree,
            },
            sort_keys=True,
        )


def closed_form(h: HessenbergFunction) -> QPolynomial:
    """h(1)_q (n-1)_q! + (n-1) q^(h(1)-1) (n-h(1))_q (n-2)_q!, the second
    summand taken only for n >= 2 (its factor n-1 is 0 at n = 1)."""
    h1, n = _one_row_h1(h), h.n
    total = q_int(h1) * q_factorial(n - 1)
    if n >= 2:
        total = total + (
            QPolynomial.from_int(n - 1)
            * QPolynomial.q(h1 - 1)
            * q_int(n - h1)
            * q_factorial(n - 2)
        )
    return total


def via_ptableaux(h: HessenbergFunction) -> QPolynomial:
    """Sum over partitions lam of the s_lam coefficient of the P-tableau Schur
    expansion times the number of standard tableaux of shape lam."""
    total = QPolynomial.zero()
    for shape, gf in csf_schur_by_ptableaux(h).terms.items():
        total = total + gf * count_syt(shape)
    return total


def via_basis_degrees(h: HessenbergFunction) -> QPolynomial:
    """degree_gf(B1) + degree_gf(B3) from the census of decomposition_counts:
    m1 + (n - 1) m2 elements in each degree."""
    counts = decomposition_counts(h)
    return QPolynomial(
        {d: m1 + (h.n - 1) * m2 for d, (m1, m2) in counts.by_degree.items()}
    )


def via_gkm(h: HessenbergFunction) -> QPolynomial:
    """Graded ranks of the GKM quotient model; guarded to n <= GKM_MAX_N."""
    if h.n > GKM_MAX_N:
        raise OutOfRange(f"GKM ranks guarded to n <= {GKM_MAX_N}, got n = {h.n}")
    return QPolynomial(dict(enumerate(betti_numbers(h))))


def reconcile(h: HessenbergFunction) -> PoincareReport:
    """Runs every applicable method and records whether they all agree; a
    transpose-only h shares the polynomial of its one-row transpose."""
    tabs = via_ptableaux(h)
    tag = classify_form(h)
    one_row = h if tag.is_one_row else transpose(h)
    try:
        closed, basis = closed_form(one_row), via_basis_degrees(one_row)
    except FormMismatch:
        closed = basis = None
    gkm = via_gkm(h) if not tag.is_general and h.n <= GKM_MAX_N else None
    agree = all(p == tabs for p in (closed, basis, gkm) if p is not None)
    return PoincareReport(h, closed, tabs, basis, gkm, agree)
