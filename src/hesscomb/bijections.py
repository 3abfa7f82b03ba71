"""Constructive bijections between basis monomials and column-shaped tableaux.

Three maps, each with its inverse and a step-by-step trace variant:
  * nilpotent monomials  <->  P-tableaux of shape (1^n), any h;
  * B1 monomials         <->  P-tableaux of shape (1^n), one-row h;
  * B3 elements          <->  pairs (standard tableau, P-tableau) of shape
                              (2, 1^(n-2)), one-row h.
Each map and its trace run one shared insertion routine; the trace passes it
a list to record the steps in, so the map itself records nothing.

Columns are handled as bottom-to-top lists throughout; PTableau rows are
bottom-up, so rows[0] is the bottom row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import XYElement, XYMonomial, _divisible
from .errors import InvalidPair, NotInBasis, NotPTableau
from .hessenberg import HessenbergFunction, _one_row_h1
from .tableaux import (
    Partition,
    PTableau,
    inversions,
    is_p_tableau,
    syt_with_bottom_pair,
)


@dataclass(frozen=True)
class TabPair:
    """A standard tableau and a P-tableau of the same shape (2, 1^(n-2))."""

    s: PTableau
    t: PTableau

    def __post_init__(self):
        if self.s.shape != self.t.shape:
            raise InvalidPair("tableau shapes differ")

    def to_json(self) -> str:
        return json.dumps(
            {"s": json.loads(self.s.to_json()), "t": json.loads(self.t.to_json())},
            sort_keys=True,
        )


def _column_tableau(col: list[int]) -> PTableau:
    return PTableau(Partition((1,) * len(col)), tuple((v,) for v in col))


def _column_of(t: PTableau) -> list[int]:
    return [row[0] for row in t.rows]


def _check_column_shape(t: PTableau) -> None:
    if t.shape.parts != (1,) * t.n:
        raise NotPTableau(f"expected shape (1^{t.n}), got {t.shape}")


def _check_nilpotent_monomial(h: HessenbergFunction, m: XYMonomial) -> None:
    if m.y is not None:
        raise NotInBasis("nilpotent basis monomials carry no y factor")
    if m.n != h.n:
        raise NotInBasis(f"monomial has {m.n} variables, expected {h.n}")
    for k, e in enumerate(m.xexp, start=1):
        if not 0 <= e <= h(k) - k:
            raise NotInBasis(f"exponent {e} on x_{k} outside 0..{h(k) - k}")


def _insert_nilpotent(h: HessenbergFunction, m: XYMonomial, steps: list | None = None) -> PTableau:
    """phi_nilpotent, appending one record per insertion to steps if given."""
    _check_nilpotent_monomial(h, m)
    n = h.n
    col = [n]
    for k in range(n - 1, 0, -1):
        i = m.xexp[k - 1]
        if i == 0:
            col.insert(0, k)
        else:
            positions = [p for p, v in enumerate(col) if k < v <= h(k)]
            col.insert(positions[i - 1] + 1, k)
        if steps is not None:
            steps.append({"entry": k, "exponent": i, "column": list(col)})
    return _column_tableau(col)


def phi_nilpotent(h: HessenbergFunction, m: XYMonomial) -> PTableau:
    """Insertion map from nilpotent basis monomials to column P-tableaux.

    Entries are inserted for k = n-1 down to 1: with i_k = 0 the entry goes to
    the bottom; otherwise directly above the i_k-th lowest current entry among
    k+1, ..., h(k).
    """
    return _insert_nilpotent(h, m)


def psi_nilpotent(h: HessenbergFunction, t: PTableau) -> XYMonomial:
    """Reads off i_k = number of inversions with k as the smaller entry."""
    _check_column_shape(t)
    pairs = inversions(h, t).pairs
    exps = [0] * h.n
    for small, _large in pairs:
        exps[small - 1] += 1
    return XYMonomial(tuple(exps))


def _check_b1_monomial(h: HessenbergFunction, m: XYMonomial) -> None:
    n = h.n
    if m.y is not None:
        raise NotInBasis("pure-x basis monomials carry no y factor")
    if m.n != n:
        raise NotInBasis(f"monomial has {m.n} variables, expected {n}")
    for j, e in enumerate(m.xexp, start=1):
        if not 0 <= e <= n - j:
            raise NotInBasis(f"exponent {e} on x_{j} outside 0..{n - j}")
    if _divisible(m.xexp, range(1, _one_row_h1(h) + 1)):
        raise NotInBasis("monomial divisible by x_1...x_{h(1)}")


def _insert_b1(h: HessenbergFunction, m: XYMonomial, steps: list | None = None) -> PTableau:
    """phi_b1, appending one record per insertion and then the slide to steps
    if given."""
    h1 = _one_row_h1(h)
    _check_b1_monomial(h, m)
    n = h.n
    col = [n]
    for k in range(n - 1, 0, -1):
        col.insert(m.xexp[k - 1], k)
        if steps is not None:
            steps.append({"entry": k, "exponent": m.xexp[k - 1], "column": list(col)})
    kprime = next(k for k in range(1, h1 + 1) if m.xexp[k - 1] == 0)
    if kprime != 1:
        col.remove(kprime)
        col.insert(col.index(1), kprime)
    if steps is not None:
        slide = {"entry": kprime, "moved": kprime != 1}
        if kprime != 1:
            slide["column"] = list(col)
        steps.append(slide)
    return _column_tableau(col)


def phi_b1(h: HessenbergFunction, m: XYMonomial) -> PTableau:
    """Insertion above i_k arbitrary entries, then one slide below the 1."""
    return _insert_b1(h, m)


def psi_b1(h: HessenbergFunction, t: PTableau) -> XYMonomial:
    """Undoes the slide, then counts below-entries in the shifted tableau.

    The exponents are the inversion counts of the intermediate tableau for the
    poset with no relations (every pair incomparable), so i_k is simply the
    number of larger entries strictly below k.
    """
    _one_row_h1(h)
    _check_column_shape(t)
    if not is_p_tableau(h, t):
        raise NotPTableau(f"not a P-tableau for h = {h}")
    col = _column_of(t)
    pos1 = col.index(1)
    if pos1 > 0:
        kprime = col.pop(pos1 - 1)
        col.insert(0, kprime)
    exps = [0] * h.n
    for p, k in enumerate(col):
        exps[k - 1] = sum(1 for v in col[:p] if v > k)
    return XYMonomial(tuple(exps))


def _parse_b3_element(h: HessenbergFunction, e: XYElement) -> tuple[tuple[int, ...], int]:
    """Splits a B3 element into (x-exponents, k) or raises NotInBasis."""
    h1 = _one_row_h1(h)
    n = h.n
    if h1 == n or len(e.terms) != 2:
        raise NotInBasis("expected an x-part times (y_k - y_1)")
    by_coeff = {c: m for m, c in e.terms.items()}
    if set(by_coeff) != {1, -1}:
        raise NotInBasis("coefficients must be +1 on y_k and -1 on y_1")
    plus, minus = by_coeff[1], by_coeff[-1]
    if minus.y != 1 or plus.y in (None, 1) or plus.xexp != minus.xexp:
        raise NotInBasis("expected an x-part times (y_k - y_1)")
    exps = plus.xexp
    if exps[0] != 0:
        raise NotInBasis("x_1 does not appear in B3 elements")
    for v in range(2, n + 1):
        if exps[v - 1] > v - 2:
            raise NotInBasis(f"exponent on x_{v} exceeds {v - 2}")
    if _divisible(exps, range(h1 + 1, n + 1)):
        raise NotInBasis("x-part divisible by x_{h(1)+1}...x_n")
    return exps, plus.y


def _insert_b3(h: HessenbergFunction, e: XYElement, steps: list | None = None) -> TabPair:
    """phi_b3, appending one record per insertion to steps if given."""
    exps, k = _parse_b3_element(h, e)
    h1 = _one_row_h1(h)
    n = h.n
    s = syt_with_bottom_pair(n, k)
    j = max(i for i in range(h1 + 1, n + 1) if exps[i - 1] == 0)
    col = [1]
    for i in range(2, n + 1):
        if i == j:
            continue
        under = (i - 2) - exps[i - 1]
        col.insert(len(col) - under, i)
        if steps is not None:
            steps.append({"entry": i, "under": under, "column": list(col)})
    shape = Partition((2,) + (1,) * (n - 2))
    rows = ((1, j),) + tuple((v,) for v in col[1:])
    return TabPair(s, PTableau(shape, rows))


def phi_b3(h: HessenbergFunction, e: XYElement) -> TabPair:
    """Pairs the y-index with a standard tableau and encodes the exponents as
    complementary inversion counts in a P-tableau of shape (2, 1^(n-2))."""
    return _insert_b3(h, e)


def psi_b3(h: HessenbergFunction, p: TabPair) -> XYElement:
    """Reads k from S and each exponent as (i-2) minus the inversions of T
    with i as the larger entry."""
    _one_row_h1(h)
    n = h.n
    shape = Partition((2,) + (1,) * (n - 2))
    if p.s.shape != shape or p.t.shape != shape:
        raise InvalidPair(f"expected shape {shape}")
    if p.s.rows[0][0] != 1:
        raise InvalidPair("standard tableau must have 1 in the bottom-left box")
    k = p.s.rows[0][1]
    if p.s != syt_with_bottom_pair(n, k):
        raise InvalidPair("first tableau is not standard")
    try:
        pairs = inversions(h, p.t).pairs
    except NotPTableau:
        raise InvalidPair(f"second tableau is not a P-tableau for h = {h}") from None
    larger_counts = [0] * (n + 1)
    for _small, large in pairs:
        larger_counts[large] += 1
    exps = [0] * n
    for i in range(2, n + 1):
        exps[i - 1] = (i - 2) - larger_counts[i]
    return XYElement(
        n, {XYMonomial(tuple(exps), k): 1, XYMonomial(tuple(exps), 1): -1}
    )


# --- step-by-step traces (for the CLI and the embedded reference data) --------


def _tableau_data(t: PTableau) -> dict:
    return json.loads(t.to_json())


def trace_phi_nilpotent(h: HessenbergFunction, m: XYMonomial) -> dict:
    steps: list[dict] = []
    t = _insert_nilpotent(h, m, steps)
    return {
        "map": "nilpotent",
        "h": list(h.values),
        "input": {"x": list(m.xexp)},
        "steps": steps,
        "output": _tableau_data(t),
    }


def trace_phi_b1(h: HessenbergFunction, m: XYMonomial) -> dict:
    steps: list[dict] = []
    t = _insert_b1(h, m, steps)
    slide = steps.pop()
    return {
        "map": "b1",
        "h": list(h.values),
        "input": {"x": list(m.xexp)},
        "steps": steps,
        "slide": slide,
        "output": _tableau_data(t),
    }


def trace_phi_b3(h: HessenbergFunction, e: XYElement) -> dict:
    steps: list[dict] = []
    pair = _insert_b3(h, e, steps)
    return {
        "map": "b3",
        "h": list(h.values),
        "input": json.loads(e.to_json()),
        "k": pair.s.rows[0][1],
        "s": _tableau_data(pair.s),
        "start": {"bottom_row": list(pair.t.rows[0])},
        "steps": steps,
        "output": json.loads(pair.to_json()),
    }
