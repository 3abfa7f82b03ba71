"""Constructive bijections between basis monomials and column-shaped tableaux.

Three maps, each with its inverse and a step-by-step trace variant:
  * nilpotent monomials  <->  P-tableaux of shape (1^n), any h;
  * B1 monomials         <->  P-tableaux of shape (1^n), one-row h;
  * B3 elements          <->  pairs (standard tableau, P-tableau) of shape
                              (2, 1^(n-2)), one-row h.
Each map has one insertion routine and one reading routine, which work on an
exponent tuple, the value tuple of h and the tableau's first column as a
bottom-to-top list of ints.  phi_*, psi_* and trace_phi_* check their objects,
run the routine and build their output; a trace passes the insertion routine
a list to record the steps in, so the map itself records nothing.  round_trip
runs the routines over a whole basis and builds no object per element.

Columns are bottom-to-top lists throughout; PTableau rows are bottom-up, so
rows[0] is the bottom row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import (
    XYElement,
    XYMonomial,
    _b1_exponents,
    _nilpotent_exponents,
    _y_sector_xparts,
)
from .errors import HesscombError, InvalidPair, NotInBasis, NotPTableau
from .hessenberg import HessenbergFunction, _one_row_h1, incomparable_pairs
from .tableaux import (
    Partition,
    PTableau,
    _column_holds,
    _fills,
    _row_holds,
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


def _x_exponents(h: HessenbergFunction, m: XYMonomial, kind: str) -> tuple[int, ...]:
    """The exponent tuple of m, once m is a pure-x monomial in h.n variables."""
    if m.y is not None:
        raise NotInBasis(f"{kind} basis monomials carry no y factor")
    if m.n != h.n:
        raise NotInBasis(f"monomial has {m.n} variables, expected {h.n}")
    return m.xexp


def _read_monomial(h: HessenbergFunction, t: PTableau, exps: tuple[int, ...] | None) -> XYMonomial:
    """x^exps, where exps is what a reading routine returned for t; None
    means t is not a P-tableau, reported as NotPTableau."""
    if exps is None:
        is_p_tableau(h, t)  # raises ShapeMismatch for a wrong size or filling
        raise NotPTableau(f"not a P-tableau for h = {h}")
    return XYMonomial(exps)


def _insert_nilpotent(hv: tuple[int, ...], exps: tuple[int, ...], steps: list | None = None) -> list[int]:
    """The column that phi_nilpotent sends x^exps to, hv = h.values;
    appends one record per insertion to steps if given."""
    n = len(hv)
    for k, e in enumerate(exps, start=1):
        if not 0 <= e <= hv[k - 1] - k:
            raise NotInBasis(f"exponent {e} on x_{k} outside 0..{hv[k - 1] - k}")
    col = [n]
    for k in range(n - 1, 0, -1):
        i = exps[k - 1]
        if i == 0:
            col.insert(0, k)
        else:
            # Every entry placed so far exceeds k.
            positions = [p for p, v in enumerate(col) if v <= hv[k - 1]]
            col.insert(positions[i - 1] + 1, k)
        if steps is not None:
            steps.append({"entry": k, "exponent": i, "column": list(col)})
    return col


def _read_nilpotent(
    hv: tuple[int, ...], pairs: tuple[tuple[int, int], ...], col: list[int]
) -> tuple[int, ...] | None:
    """The exponents that phi_nilpotent sends to the column col, or None if
    col is not a P-tableau column; pairs are the incomparable pairs of P_h.
    i_k counts the pairs (k, j) with j below k."""
    n = len(hv)
    if not (_fills(col, n) and _column_holds(hv, col)):
        return None
    level = [0] * (n + 1)
    for p, v in enumerate(col):
        level[v] = p
    exps = [0] * n
    for i, j in pairs:
        if level[i] > level[j]:
            exps[i - 1] += 1
    return tuple(exps)


def phi_nilpotent(h: HessenbergFunction, m: XYMonomial) -> PTableau:
    """Insertion map from nilpotent basis monomials to column P-tableaux.

    Entries are inserted for k = n-1 down to 1: with i_k = 0 the entry goes to
    the bottom; otherwise directly above the i_k-th lowest current entry among
    k+1, ..., h(k).
    """
    return _column_tableau(_insert_nilpotent(h.values, _x_exponents(h, m, "nilpotent")))


def psi_nilpotent(h: HessenbergFunction, t: PTableau) -> XYMonomial:
    """Reads off i_k = number of inversions with k as the smaller entry."""
    _check_column_shape(t)
    return _read_monomial(h, t, _read_nilpotent(h.values, tuple(incomparable_pairs(h)), _column_of(t)))


def _insert_b1(hv: tuple[int, ...], exps: tuple[int, ...], steps: list | None = None) -> list[int]:
    """The column that phi_b1 sends x^exps to, hv = h.values of a one-row h;
    appends one record per insertion and then the slide to steps if given."""
    n, h1 = len(hv), hv[0]
    for j, e in enumerate(exps, start=1):
        if not 0 <= e <= n - j:
            raise NotInBasis(f"exponent {e} on x_{j} outside 0..{n - j}")
    if 0 not in exps[:h1]:
        raise NotInBasis("monomial divisible by x_1...x_{h(1)}")
    col = [n]
    for k in range(n - 1, 0, -1):
        col.insert(exps[k - 1], k)
        if steps is not None:
            steps.append({"entry": k, "exponent": exps[k - 1], "column": list(col)})
    kprime = next(k for k in range(1, h1 + 1) if exps[k - 1] == 0)
    if kprime != 1:
        col.remove(kprime)
        col.insert(col.index(1), kprime)
    if steps is not None:
        slide = {"entry": kprime, "moved": kprime != 1}
        if kprime != 1:
            slide["column"] = list(col)
        steps.append(slide)
    return col


def _read_b1(hv: tuple[int, ...], col: list[int]) -> tuple[int, ...] | None:
    """The exponents that phi_b1 sends to the column col, hv = h.values of a
    one-row h, or None if col is not a P-tableau column."""
    n = len(hv)
    if not (_fills(col, n) and _column_holds(hv, col)):
        return None
    col = list(col)
    pos1 = col.index(1)
    if pos1 > 0:
        col.insert(0, col.pop(pos1 - 1))
    # Undo the insertions, smallest entry first: each k went in at index
    # i_k, among entries that all exceed it.
    exps = []
    for k in range(1, n + 1):
        p = col.index(k)
        exps.append(p)
        del col[p]
    return tuple(exps)


def phi_b1(h: HessenbergFunction, m: XYMonomial) -> PTableau:
    """Insertion above i_k arbitrary entries, then one slide below the 1."""
    _one_row_h1(h)
    return _column_tableau(_insert_b1(h.values, _x_exponents(h, m, "pure-x")))


def psi_b1(h: HessenbergFunction, t: PTableau) -> XYMonomial:
    """Undoes the slide, then counts below-entries in the shifted tableau.

    The exponents are the inversion counts of the intermediate tableau for the
    poset with no relations (every pair incomparable), so i_k is simply the
    number of larger entries strictly below k.
    """
    _one_row_h1(h)
    _check_column_shape(t)
    return _read_monomial(h, t, _read_b1(h.values, _column_of(t)))


def _parse_b3_element(h: HessenbergFunction, e: XYElement) -> tuple[tuple[int, ...], int]:
    """Splits e into (x-exponents, k) if it has the form x^exps (y_k - y_1),
    or raises NotInBasis; _insert_b3 checks the exponents."""
    if _one_row_h1(h) == h.n:
        raise NotInBasis(f"B3 is empty when h(1) = n = {h.n}")
    if len(e.terms) != 2:
        raise NotInBasis("expected an x-part times (y_k - y_1)")
    by_coeff = {c: m for m, c in e.terms.items()}
    if set(by_coeff) != {1, -1}:
        raise NotInBasis("coefficients must be +1 on y_k and -1 on y_1")
    plus, minus = by_coeff[1], by_coeff[-1]
    if minus.y != 1 or plus.y in (None, 1) or plus.xexp != minus.xexp:
        raise NotInBasis("expected an x-part times (y_k - y_1)")
    return plus.xexp, plus.y


def _insert_b3(
    hv: tuple[int, ...], exps: tuple[int, ...], steps: list | None = None
) -> tuple[list[int], int]:
    """The second tableau of phi_b3 for the x-part x^exps, hv = h.values of a
    one-row h, as its first column (1 at the bottom) and the entry j right
    of the 1; appends one record per insertion to steps if given."""
    n, h1 = len(hv), hv[0]
    if exps[0] != 0:
        raise NotInBasis("x_1 does not appear in B3 elements")
    for v in range(2, n + 1):
        if exps[v - 1] > v - 2:
            raise NotInBasis(f"exponent on x_{v} exceeds {v - 2}")
    if 0 not in exps[h1:]:
        raise NotInBasis("x-part divisible by x_{h(1)+1}...x_n")
    j = max(i for i in range(h1 + 1, n + 1) if exps[i - 1] == 0)
    col = [1]
    for i in range(2, n + 1):
        if i == j:
            continue
        under = (i - 2) - exps[i - 1]
        col.insert(len(col) - under, i)
        if steps is not None:
            steps.append({"entry": i, "under": under, "column": list(col)})
    return col, j


def _read_b3(
    hv: tuple[int, ...], pairs: tuple[tuple[int, int], ...], col: list[int], j: int
) -> tuple[int, ...] | None:
    """The x-exponents that phi_b3 sends to the tableau of shape
    (2, 1^(n-2)) with first column col and j right of its bottom entry, or
    None if that is not a P-tableau; pairs are the incomparable pairs of P_h.
    The exponent on x_i is (i-2) minus the pairs (a, i) with a above i."""
    n = len(hv)
    if not (_fills(col + [j], n) and _row_holds(hv, (col[0], j)) and _column_holds(hv, col)):
        return None
    level = [0] * (n + 1)  # j is in the bottom row, level 0
    for p, v in enumerate(col):
        level[v] = p
    larger = [0] * (n + 1)
    for a, b in pairs:
        if level[a] > level[b]:
            larger[b] += 1
    return (0,) + tuple(i - 2 - larger[i] for i in range(2, n + 1))


def _b3_pair(n: int, k: int, col: list[int], j: int) -> TabPair:
    shape = Partition((2,) + (1,) * (n - 2))
    rows = ((col[0], j),) + tuple((v,) for v in col[1:])
    return TabPair(syt_with_bottom_pair(n, k), PTableau(shape, rows))


def phi_b3(h: HessenbergFunction, e: XYElement) -> TabPair:
    """Pairs the y-index with a standard tableau and encodes the exponents as
    complementary inversion counts in a P-tableau of shape (2, 1^(n-2))."""
    exps, k = _parse_b3_element(h, e)
    return _b3_pair(h.n, k, *_insert_b3(h.values, exps))


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
    exps = _read_b3(h.values, tuple(incomparable_pairs(h)), _column_of(p.t), p.t.rows[0][1])
    if exps is None:
        is_p_tableau(h, p.t)  # raises ShapeMismatch for a bad filling
        raise InvalidPair(f"second tableau is not a P-tableau for h = {h}")
    return XYElement(n, {XYMonomial(exps, k): 1, XYMonomial(exps, 1): -1})


def round_trip(h: HessenbergFunction, name: str) -> tuple[int, bool]:
    """(size of the basis of map `name`, whether phi sends each of its
    elements to a P-tableau of the map's shape that psi reads back to that
    element).

    Each element gets every check phi and psi make, but the routines run on
    the exponent tuples the basis is built from, so no basis, element or
    tableau is built per element.  B3 pairs each x-part with each k, and
    neither half of its check depends on the other, so each standard tableau
    and each x-part is checked once.
    """
    hv = h.values
    if name == "nilpotent":
        source = _nilpotent_exponents(h)
        pairs = tuple(incomparable_pairs(h))
        return len(source), all(_read_nilpotent(hv, pairs, _insert_nilpotent(hv, e)) == e for e in source)
    if name == "b1":
        source = _b1_exponents(h)
        return len(source), all(_read_b1(hv, _insert_b1(hv, e)) == e for e in source)
    if name == "b3":
        source = _y_sector_xparts(h)
        pairs = tuple(incomparable_pairs(h))
        ks = range(2, h.n + 1)
        ok = all(syt_with_bottom_pair(h.n, k).rows[0][1] == k for k in ks) and all(
            _read_b3(hv, pairs, *_insert_b3(hv, e)) == e for e in source
        )
        return len(source) * len(ks), ok
    raise HesscombError(f"unknown map {name!r}; use nilpotent, b1 or b3")


# --- step-by-step traces (for the CLI and the embedded reference data) --------


def _tableau_data(t: PTableau) -> dict:
    return json.loads(t.to_json())


def trace_phi_nilpotent(h: HessenbergFunction, m: XYMonomial) -> dict:
    steps: list[dict] = []
    t = _column_tableau(_insert_nilpotent(h.values, _x_exponents(h, m, "nilpotent"), steps))
    return {
        "map": "nilpotent",
        "h": list(h.values),
        "input": {"x": list(m.xexp)},
        "steps": steps,
        "output": _tableau_data(t),
    }


def trace_phi_b1(h: HessenbergFunction, m: XYMonomial) -> dict:
    _one_row_h1(h)
    steps: list[dict] = []
    t = _column_tableau(_insert_b1(h.values, _x_exponents(h, m, "pure-x"), steps))
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
    exps, k = _parse_b3_element(h, e)
    steps: list[dict] = []
    pair = _b3_pair(h.n, k, *_insert_b3(h.values, exps, steps))
    return {
        "map": "b3",
        "h": list(h.values),
        "input": json.loads(e.to_json()),
        "k": k,
        "s": _tableau_data(pair.s),
        "start": {"bottom_row": list(pair.t.rows[0])},
        "steps": steps,
        "output": json.loads(pair.to_json()),
    }
