"""Exact linear algebra over the integers and rationals.

The rank engine keeps rows as sparse dicts of Python ints, which never
overflow, and stores each pivot divided by its content (gcd), so every
answer is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    m = [[int(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        p = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] == 0 and p == prev:
                continue  # the update would leave row i as it is
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * p - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = p
    return sign * m[n - 1][n - 1]


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

