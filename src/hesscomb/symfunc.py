"""Symmetric functions with polynomial-in-q coefficients, exact throughout.

A SymFn of degree n is a finite combination of basis elements indexed by
partitions of n (monomial, schur, elementary or homogeneous basis), each
coefficient a QPolynomial.  Conversions go through the Schur basis by
integer products with the Kostka matrix K and triangular solves against it:
s_lam = sum_mu K_(lam, mu) m_mu, h_mu = sum_lam K_(lam, mu) s_lam, and
e_mu = omega(h_mu).  K is unitriangular, so no step leaves the integers.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from .errors import BasisMismatch, DegreeTooLarge, NotSymmetric, OutOfRange, checked_int, json_decoder
from .hessenberg import HessenbergFunction, IncGraph
from .qpoly import QPolynomial
from .tableaux import Partition, conjugate, inversion_counts

BASES = ("monomial", "schur", "elementary", "homogeneous")
DEGREE_BOUND = 8


def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order, (n) first."""
    return _partitions_of(checked_int(n, "n"))


@cache
def _partitions_of(n: int) -> tuple[Partition, ...]:

    def rec(remaining: int, limit: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(limit, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in rec(n, n))


@dataclass(frozen=True)
class SymFn:
    degree: int
    basis: str
    terms: dict[Partition, QPolynomial]

    def __post_init__(self):
        if self.basis not in BASES:
            raise BasisMismatch(f"unknown basis {self.basis!r}")
        clean = {p: c for p, c in self.terms.items() if c}
        for p in clean:
            if p.size != self.degree:
                raise BasisMismatch(f"partition {p} is not of size {self.degree}")
        object.__setattr__(self, "terms", clean)

    def coefficient(self, p: Partition) -> QPolynomial:
        return self.terms.get(p, QPolynomial.zero())

    def sorted_terms(self) -> list[tuple[Partition, QPolynomial]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def at_q(self, value: int) -> "SymFn":
        return SymFn(
            self.degree,
            self.basis,
            {p: QPolynomial.from_int(c(value)) for p, c in self.terms.items()},
        )

    def __add__(self, other: "SymFn") -> "SymFn":
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise BasisMismatch("cannot add across bases or degrees")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, QPolynomial.zero()) + c
        return SymFn(self.degree, self.basis, acc)

    def __sub__(self, other: "SymFn") -> "SymFn":
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise BasisMismatch("cannot subtract across bases or degrees")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, QPolynomial.zero()) - c
        return SymFn(self.degree, self.basis, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFn):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "basis": self.basis,
                "terms": [
                    {"partition": list(p.parts), "coeff": c.pairs()}
                    for p, c in self.sorted_terms()
                ],
            },
            sort_keys=True,
        )

    @classmethod
    @json_decoder("a symmetric function")
    def from_json(cls, data) -> "SymFn":
        return cls(
            checked_int(data["degree"], "the degree"),
            data["basis"],
            {
                Partition(tuple(checked_int(p, "a part") for p in t["partition"])):
                QPolynomial.from_pairs([(checked_int(e, "an exponent"),
                                         checked_int(c, "a coefficient"))
                                        for e, c in t["coeff"]])
                for t in data["terms"]
            },
        )

    def pretty(self) -> str:
        letter = {"monomial": "m", "schur": "s", "elementary": "e", "homogeneous": "h"}[
            self.basis
        ]
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            bits.append(f"({c})*{letter}{p}")
        return " + ".join(bits)


# --- basis changes through the Kostka matrix --------------------------------


def _horizontal_strips(shape: tuple[int, ...], m: int) -> Iterator[tuple[int, ...]]:
    """Every shape made from `shape` by adding a horizontal strip of m boxes.

    No two added boxes share a column exactly when row i grows by at most
    shape[i-1] - shape[i]; the first row grows without bound, and one new row
    by at most the last one's length."""
    rows = shape + (0,)

    def rec(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == len(rows):
            if not left:
                yield ()
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for grow in range(room + 1):
            for rest in rec(i + 1, left - grow):
                yield (rows[i] + grow,) + rest

    for nu in rec(0, m):
        yield nu if nu[-1] else nu[:-1]


@cache
def _kostka_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """K[i][j] = K_(lam, mu) for lam, mu the i-th and j-th of partitions_of(n).

    By Pieri's rule, K_(lam, mu) counts the chains from the empty shape to lam
    that add a horizontal strip of mu_1 boxes, then of mu_2, and so on: a
    semistandard tableau's entries equal to i form the i-th strip.  Column j
    follows all chains for mu at once, as {shape: number of chains}.

    K_(lam, mu) is nonzero only when lam dominates mu, and K_(lam, lam) = 1;
    partitions_of lists partitions in an order extending dominance, so K is
    upper unitriangular.
    """
    parts = partitions_of(n)
    columns = []
    for mu in parts:
        chains = {(): 1}
        for m in mu.parts:
            grown: dict[tuple[int, ...], int] = {}
            for shape, count in chains.items():
                for nu in _horizontal_strips(shape, m):
                    grown[nu] = grown.get(nu, 0) + count
            chains = grown
        columns.append([chains.get(lam.parts, 0) for lam in parts])
    return tuple(zip(*columns))


def _mul(a, x: list[QPolynomial]) -> list[QPolynomial]:
    return [
        sum((v * c for c, v in zip(row, x) if c and v), QPolynomial.zero())
        for row in a
    ]


def _solve(a, y: list[QPolynomial], order) -> list[QPolynomial]:
    """Solve a·x = y for a unitriangular integer matrix a.

    Rows are visited in `order`, which must reach every nonzero off-diagonal
    entry of a row after the unknown it multiplies has been solved: increasing
    for a lower triangle, decreasing for an upper one.
    """
    x = list(y)
    for i in order:
        for j, c in enumerate(a[i]):
            if c and j != i and x[j]:
                x[i] = x[i] - x[j] * c
    return x


def _to_schur(f: SymFn) -> SymFn:
    if f.basis == "schur":
        return f
    parts = partitions_of(f.degree)
    k = _kostka_matrix(f.degree)
    x = [f.coefficient(p) for p in parts]
    if f.basis == "monomial":
        # m = transpose(K)·s, lower unitriangular: forward substitution.
        s = _solve(tuple(zip(*k)), x, range(len(parts)))
    else:
        s = _mul(k, x)  # s = K·h; e = omega(h)
    g = SymFn(f.degree, "schur", dict(zip(parts, s)))
    return omega(g) if f.basis == "elementary" else g


def _from_schur(g: SymFn, basis: str) -> SymFn:
    if basis == "schur":
        return g
    if basis == "elementary":
        g = omega(g)
    parts = partitions_of(g.degree)
    k = _kostka_matrix(g.degree)
    x = [g.coefficient(p) for p in parts]
    if basis == "monomial":
        y = _mul(tuple(zip(*k)), x)
    else:
        # s = K·h, upper unitriangular: back substitution.
        y = _solve(k, x, reversed(range(len(parts))))
    return SymFn(g.degree, basis, dict(zip(parts, y)))


def change_basis(f: SymFn, basis: str) -> SymFn:
    """Convert between the four supported bases through the Schur basis.

    Every step is a product with the Kostka matrix or its transpose, or a
    triangular solve against one, so the arithmetic stays in the integers.
    """
    if basis not in BASES:
        raise BasisMismatch(f"unknown basis {basis!r}")
    if f.degree > DEGREE_BOUND:
        raise DegreeTooLarge(f"degree {f.degree} exceeds bound {DEGREE_BOUND}")
    if f.basis == basis:
        return f
    return _from_schur(_to_schur(f), basis)


# --- chromatic quasisymmetric functions --------------------------------------


def csf_by_coloring(g: IncGraph) -> SymFn:
    """Sum over proper colorings of q^(ascents) times the color monomial.

    Ascents are counted on graph edges {i < j} with color(i) < color(j).
    A proper coloring is a sequence of nonempty stable sets, its color
    classes in increasing color order, so the sum is a dynamic programme over
    vertex bitmasks: states[mask] maps the composition of class sizes so far
    to {ascents: count} over the ways to cover mask.  Masks are visited in
    increasing order, and each step appends a nonempty stable set S outside
    mask as the next class; every edge from a vertex of S down to a smaller
    vertex in mask is then an ascent.  That is at most 3^n steps over at most
    2^(n-1) compositions per mask.

    The coefficient of x^alpha depends only on alpha with its zeros deleted,
    because an order-preserving relabelling of colors keeps properness and
    ascents.  Properness ignores the order of colors, so the compositions
    present are closed under rearrangement.  Comparing each composition with
    its sorted partition therefore checks symmetry completely; NotSymmetric
    names the first that differs, padded with zeros to n colors.
    """
    n = checked_int(g.n, "n")
    if n < 0:
        raise OutOfRange(f"negative vertex count {n}")
    full = (1 << n) - 1
    below = [0] * n  # below[v]: neighbors u < v, as a bitmask of 0-based vertices
    for i, j in g.edges:
        checked_int(i, "an edge end")
        checked_int(j, "an edge end")
        if not 1 <= i < j <= n:
            raise OutOfRange(f"edge {(i, j)} is not a pair i < j in 1..{n}")
        below[j - 1] |= 1 << (i - 1)
    # A set is stable when it is empty, or its highest vertex v has no
    # neighbor below it in the set and the rest is stable.
    stable = [True] * (full + 1)
    for s in range(1, full + 1):
        v = s.bit_length() - 1
        rest = s ^ (1 << v)
        stable[s] = stable[rest] and not below[v] & rest
    states: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(full + 1)]
    states[0][()] = {0: 1}
    for mask in range(full):
        here = states[mask]
        free = full ^ mask
        s = free
        while s:
            if stable[s]:
                gained = sum((below[v] & mask).bit_count() for v in range(n) if s >> v & 1)
                size = s.bit_count()
                there = states[mask | s]
                for comp, poly in here.items():
                    acc = there.setdefault(comp + (size,), {})
                    for asc, count in poly.items():
                        acc[asc + gained] = acc.get(asc + gained, 0) + count
            s = (s - 1) & free
    by_composition = states[full]
    terms = {
        lam: QPolynomial(by_composition[lam.parts])
        for lam in partitions_of(n)
        if lam.parts in by_composition
    }
    for comp, acc in by_composition.items():
        got = QPolynomial(acc)
        expect = terms.get(Partition(tuple(sorted(comp, reverse=True))), QPolynomial.zero())
        if got != expect:
            content = comp + (0,) * (n - len(comp))
            raise NotSymmetric(f"content {content} carries {got}, expected {expect}")
    return SymFn(n, "monomial", terms)


def csf_schur_by_ptableaux(h: HessenbergFunction) -> SymFn:
    """Schur expansion: coefficient of s_lam is the inversion generating
    function over P-tableaux of shape lam.

    The inversions are counted during the fill, which places the rows bottom
    up: a value v entering row r closes one inversion with each placed u in
    a lower row with v < u <= h(v).  Each shape's tally {q-exponent: count}
    becomes one QPolynomial; no tableau is built or re-checked."""
    terms: dict[Partition, QPolynomial] = {}
    for lam in partitions_of(h.n):
        counts = inversion_counts(h, lam)
        if counts:
            terms[lam] = QPolynomial(counts)
    return SymFn(h.n, "schur", terms)


def omega(f: SymFn) -> SymFn:
    """The involution sending s_lam to s_(lam conjugate); schur basis only."""
    if f.basis != "schur":
        raise BasisMismatch("omega acts on the schur basis")
    return SymFn(f.degree, "schur", {conjugate(p): c for p, c in f.terms.items()})


def is_positive(f: SymFn, basis: str) -> tuple[bool, tuple[Partition, int, int] | None]:
    """Convert to the basis and scan for a negative coefficient.

    Returns (True, None) or (False, (partition, q_exponent, coefficient)).
    """
    g = change_basis(f, basis)
    for p, c in sorted(g.terms.items(), key=lambda kv: kv[0].parts, reverse=True):
        for e, v in c.pairs():
            if v < 0:
                return False, (p, e, v)
    return True, None


@dataclass(frozen=True)
class DecompositionCounts:
    """Multiplicities (trivial, standard) of the degree-d summands."""

    n: int
    by_degree: dict[int, tuple[int, int]]

    def total_dimension(self) -> int:
        return sum(m1 + m2 * (self.n - 1) for m1, m2 in self.by_degree.values())

    def totals(self) -> tuple[int, int]:
        m1 = sum(v[0] for v in self.by_degree.values())
        m2 = sum(v[1] for v in self.by_degree.values())
        return m1, m2
