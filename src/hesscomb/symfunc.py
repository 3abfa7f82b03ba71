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
from dataclasses import dataclass
from functools import cache

from .errors import BasisMismatch, DegreeTooLarge, NotSymmetric
from .hessenberg import HessenbergFunction, IncGraph
from .qpoly import QPolynomial
from .tableaux import Partition, conjugate, enumerate_p_tableaux, inversions

BASES = ("monomial", "schur", "elementary", "homogeneous")
DEGREE_BOUND = 8


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order, (n) first."""

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
    def from_json(cls, text: str) -> "SymFn":
        data = json.loads(text)
        return cls(
            data["degree"],
            data["basis"],
            {
                Partition(tuple(t["partition"])): QPolynomial.from_pairs(
                    [(e, c) for e, c in t["coeff"]]
                )
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


def _kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    shape = lam.parts
    content = list(mu.parts) + [0] * (lam.size - len(mu.parts))
    nrows = len(shape)
    grid = [[0] * length for length in shape]
    remaining = list(content)
    count = 0

    def fill(r: int, c: int) -> None:
        nonlocal count
        if r == nrows:
            count += 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = grid[r][c - 1]
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(nr, nc)
                remaining[v - 1] += 1

    fill(0, 0)
    return count


@cache
def _kostka_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """K[i][j] = K_(lam, mu) for lam, mu the i-th and j-th of partitions_of(n).

    K_(lam, mu) is nonzero only when lam dominates mu, and K_(lam, lam) = 1;
    partitions_of lists partitions in an order extending dominance, so K is
    upper unitriangular.
    """
    parts = partitions_of(n)
    return tuple(
        tuple(_kostka(lam, mu) if i <= j else 0 for j, mu in enumerate(parts))
        for i, lam in enumerate(parts)
    )


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
    Colors 1..n suffice to determine every monomial coefficient in degree n.
    """
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
            key = tuple(counts)
            acc = by_content.setdefault(key, {})
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
    terms: dict[Partition, QPolynomial] = {}
    for lam in partitions_of(n):
        key = tuple(lam.parts) + (0,) * (n - len(lam.parts))
        if key in by_content:
            terms[lam] = QPolynomial(by_content[key])
    # Symmetry consistency: every rearrangement of a content vector must
    # carry the same q-polynomial as its sorted representative.
    for key, acc in by_content.items():
        lam = Partition(tuple(sorted((c for c in key if c), reverse=True)))
        expect = terms.get(lam, QPolynomial.zero())
        if QPolynomial(acc) != expect:
            raise NotSymmetric(
                f"content {key} carries {QPolynomial(acc)}, expected {expect}"
            )
    return SymFn(n, "monomial", terms)


def csf_schur_by_ptableaux(h: HessenbergFunction) -> SymFn:
    """Schur expansion: coefficient of s_lam is the inversion generating
    function over P-tableaux of shape lam."""
    terms: dict[Partition, QPolynomial] = {}
    for lam in partitions_of(h.n):
        gf = QPolynomial.zero()
        for t in enumerate_p_tableaux(h, lam):
            gf = gf + QPolynomial.q(inversions(h, t).count)
        if gf:
            terms[lam] = gf
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


def frobenius_from_decomposition(counts: DecompositionCounts) -> SymFn:
    """Graded Frobenius characteristic: trivial -> s_(n), standard -> s_(n-1,1)."""
    n = counts.n
    triv = Partition((n,))
    terms: dict[Partition, QPolynomial] = {triv: QPolynomial.zero()}
    if n >= 2:
        std = Partition((n - 1, 1))
        terms[std] = QPolynomial.zero()
    for d, (m1, m2) in counts.by_degree.items():
        terms[triv] = terms[triv] + QPolynomial({d: m1})
        if n >= 2 and m2:
            terms[std] = terms[std] + QPolynomial({d: m2})
    return SymFn(n, "schur", terms)
