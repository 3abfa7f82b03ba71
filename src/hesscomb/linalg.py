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


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free, sparse).

    Rows are taken in order as sparse dicts and each is top-reduced against
    the pivot rows before it, as IntEchelon.reduce does: row := b*row - a*pivot
    with a, b the two leads divided by their gcd.  Scaling a row by b scales
    the determinant by b, so the scalings are multiplied into a divisor and
    divided out once at the end; a pivot row is stored divided by its
    content, which goes into the product.  The reduced rows then have distinct lead
    columns, and the determinant is the product of their leads times the sign
    of the permutation from rows to leads.  A unit pivot costs one pass over
    its own entries and a unit column costs nothing, so a block-triangular,
    mostly-unit matrix costs about its nonzeros."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    columns = range(n)
    pivots: dict[int, dict[int, int]] = {}
    leads = []
    product = divisor = 1
    for r in rows:
        row = {j: int(r[j]) for j in compress(columns, r)}
        get = row.get
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
                divisor *= b
            for c, v in piv.items():
                x = get(c, 0) - v * a
                if x:
                    row[c] = x
                else:
                    del row[c]
        if not row:
            return 0
        if abs(row[lead]) != 1:
            g = math.gcd(*row.values())
            if g != 1:
                row = {c: v // g for c, v in row.items()}
                product *= g
        pivots[lead] = row
        leads.append(lead)
        product *= row[lead]
    # i -> leads[i] is a permutation; its sign is (-1)^(n - number of cycles)
    cycles = 0
    seen = [False] * n
    for i in columns:
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = leads[j]
    sign = -1 if (n - cycles) % 2 else 1
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

    def reduce(self, entries: dict[int, int]) -> dict[int, int]:
        """Top-reduce a row until its lead column has no pivot; the result is
        a new dict, scaled arbitrarily, and empty when the row is in the span."""
        row = {c: v for c, v in entries.items() if v}
        get = row.get
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            g = math.gcd(row[lead], piv[lead])
            rv = row[lead] // g
            pv = piv[lead] // g
            if pv != 1:
                for c in row:
                    row[c] *= pv
            for c, v in piv.items():
                x = get(c, 0) - v * rv
                if x:
                    row[c] = x
                else:
                    del row[c]
        return row

    def insert(self, entries: dict[int, int]) -> bool:
        """Insert a row; return True when it increases the rank."""
        row = self.reduce(entries)
        if not row:
            return False
        lead = min(row)
        g = math.gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        self.pivots[lead] = row
        return True

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

