"""Exact linear algebra over the integers and rationals.

The rank engine keeps rows as sparse dicts of Python ints, which never
overflow, and stores each pivot divided by its content (gcd), so every
answer is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress

from .errors import MalformedInput, NotSquare


def bareiss_det(rows: Sequence[Sequence[int] | dict[int, int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free, sparse).

    A row is a dense sequence of n entries or a sparse dict column -> entry,
    each an int: anything else is MalformedInput, and a row that does not fit
    the n-by-n matrix is NotSquare.
    A diagonal unit row e_i is dropped with column i: Laplace expansion along
    it has the one term +det of the minor, so the identity part of a
    block-triangular matrix never reaches the elimination.  The other rows go
    in order through the reduction and store steps of a fresh IntEchelon.
    Each reduction step scales the row, and so the determinant, by an
    integer; the scalings make a divisor taken out at the end.  Storing
    divides the row by its signed content, which goes into the product with
    the stored lead.  The leads are the kept columns, which are the indices
    of the kept rows, so the determinant is their product times the sign of
    the permutation from kept rows to leads.  The cost is about the nonzeros
    of the rows that are not diagonal units."""
    n = len(rows)
    columns, ints = range(n), {int}
    units, kept = set(), {}
    for i, r in enumerate(rows):
        if not isinstance(r, dict):
            if len(r) != n:
                raise NotSquare("matrix is not square")
            if not ints.issuperset(map(type, r)):
                raise MalformedInput(f"a matrix entry is not an integer in {r!r:.80}")
            r = {j: r[j] for j in compress(columns, r)}
        if len(r) == 1 and r.get(i) == 1 and type(r[i]) is int:
            units.add(i)
        elif not ints.issuperset(map(type, r.values())):
            raise MalformedInput(f"a matrix entry is not an integer in {r!r:.80}")
        elif r and (min(r) < 0 or max(r) >= n):
            raise NotSquare("a row has an entry outside the square matrix")
        else:
            kept[i] = r
    ech = IntEchelon()
    product = divisor = 1
    for r in kept.values():
        row = {j: v for j, v in r.items() if v and j not in units}
        divisor *= ech._top_reduce(row)
        if not row:
            return 0
        lead, content = ech._store(row)
        product *= content * ech.pivots[lead][lead]
    # put each kept row's lead in place by transpositions; each one flips the sign
    leads = dict(zip(kept, ech.pivots))
    sign = 1
    for i in leads:
        while (j := leads[i]) != i:
            leads[i], leads[j] = leads[j], j
            sign = -sign
    return sign * product // divisor


class IntEchelon:
    """Incremental row echelon over Z, exact, scaling-insensitive.

    A row is a sparse dict from column to nonzero Python int.  Each pivot is
    stored primitive (content 1) with a positive lead and is never changed
    afterwards, so an instance can be cloned cheaply to branch rank
    computations off a shared prefix.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def clone(self) -> "IntEchelon":
        other = IntEchelon()
        other.pivots = dict(self.pivots)
        return other

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _top_reduce(self, row: dict[int, int]) -> int:
        """Top-reduce a row of nonzero entries in place until its lead column
        has no pivot, each step row := b*row - a*pivot with a, b the two leads
        divided by their gcd; return the product of the scalings b."""
        pivots = self.pivots
        get = row.get
        scale = 1
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            g = math.gcd(row[lead], piv[lead])
            a = row[lead] // g
            b = piv[lead] // g
            if b != 1:
                for c in row:
                    row[c] *= b
                scale *= b
            for c, v in piv.items():
                x = get(c, 0) - v * a
                if x:
                    row[c] = x
                else:
                    del row[c]
        return scale

    def _store(self, row: dict[int, int]) -> tuple[int, int]:
        """Record a nonzero top-reduced row as a pivot, divided by its content
        signed so the lead is positive; return the lead column and that
        signed content."""
        lead = min(row)
        g = math.gcd(*row.values()) if abs(row[lead]) != 1 else 1
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        self.pivots[lead] = row
        return lead, g

    def reduce(self, entries: dict[int, int]) -> dict[int, int]:
        """Top-reduce a row until its lead column has no pivot; the result is
        a new dict, scaled arbitrarily, and empty when the row is in the span."""
        row = {c: v for c, v in entries.items() if v}
        self._top_reduce(row)
        return row

    def insert(self, entries: dict[int, int]) -> bool:
        """Insert a row; return True when it increases the rank."""
        row = self.reduce(entries)
        if row:
            self._store(row)
        return bool(row)

    def contains(self, entries: dict[int, int]) -> bool:
        """Membership of a row in the current row span."""
        return not self.reduce(entries)


def fraction_solve(a: list[list], b: list[list]) -> list[list[Fraction]]:
    """Solve A·X = B exactly; A square nonsingular, B given column-wise.

    No library module calls it; tests use it as a reference solver.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in brow]
         for row, brow in zip(a, b)]
    width = n + len(b[0]) if b else n
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        inv = m[k][k]
        m[k] = [x / inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:width] for row in m]

