"""Exact linear algebra over the integers and rationals.

The rank engine keeps rows as numpy int64 vectors for speed, dividing each
row by its content (gcd) and falling back to arbitrary-precision object
arrays whenever an update could overflow, so every answer is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INT64_SAFE = 2**62


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


def _gcd_reduce_int64(row: np.ndarray) -> np.ndarray:
    nz = row[row != 0]
    g = int(np.gcd.reduce(np.abs(nz)))
    if g > 1:
        row = row // g
    return row


def _gcd_reduce_object(row: np.ndarray) -> np.ndarray:
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, abs(int(v)))
            if g == 1:
                return row
    if g > 1:
        row = np.array([int(v) // g for v in row], dtype=object)
    return row


class IntEchelon:
    """Incremental row echelon over Z, exact, scaling-insensitive.

    Pivot rows are frozen once registered, so an instance can be cloned
    cheaply to branch rank computations off a shared prefix.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, np.ndarray] = {}

    def clone(self) -> "IntEchelon":
        other = IntEchelon(self.ncols)
        other.pivots = dict(self.pivots)
        return other

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _as_row(self, entries) -> np.ndarray:
        if isinstance(entries, np.ndarray):
            return entries.copy()
        row = np.zeros(self.ncols, dtype=np.int64)
        big = False
        for c, v in entries.items():
            if abs(v) >= _INT64_SAFE:
                big = True
                break
            row[c] = v
        if big:
            row = np.zeros(self.ncols, dtype=object)
            for c, v in entries.items():
                row[c] = int(v)
        return row

    def reduce(self, entries) -> np.ndarray:
        """Reduce a row against the current pivots; result scaled arbitrarily."""
        row = self._as_row(entries)
        pos = 0
        while True:
            nz = np.flatnonzero(row[pos:])
            if len(nz) == 0:
                return row
            lead = pos + int(nz[0])
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            row = self._combine(row, piv, lead)
            pos = lead + 1

    def _combine(self, row: np.ndarray, piv: np.ndarray, lead: int) -> np.ndarray:
        rv = int(row[lead])
        pv = int(piv[lead])
        g = math.gcd(rv, pv)
        rv //= g
        pv //= g
        if row.dtype == np.int64 and piv.dtype == np.int64:
            mr = int(np.abs(row).max(initial=0))
            mp = int(np.abs(piv).max(initial=0))
            if mr * abs(pv) + mp * abs(rv) < _INT64_SAFE:
                out = row * np.int64(pv) - piv * np.int64(rv)
                if int(np.abs(out).max(initial=0)) > 2**20:
                    out = _gcd_reduce_int64(out) if out.any() else out
                return out
            row = row.astype(object)
        if piv.dtype == np.int64:
            piv = piv.astype(object)
        if row.dtype == np.int64:
            row = row.astype(object)
        out = row * pv - piv * rv
        if out.any():
            out = _gcd_reduce_object(out)
            mx = max(abs(int(v)) for v in out if v)
            if mx < _INT64_SAFE:
                out = out.astype(np.int64)
        return out

    def insert(self, entries) -> bool:
        """Insert a row; return True when it increases the rank."""
        row = self.reduce(entries)
        nz = np.flatnonzero(row)
        if len(nz) == 0:
            return False
        lead = int(nz[0])
        if row.dtype == np.int64:
            row = _gcd_reduce_int64(row)
        else:
            row = _gcd_reduce_object(row)
        if int(row[lead]) < 0:
            row = -row
        self.pivots[lead] = row
        return True

    def contains(self, entries) -> bool:
        """Membership of a row in the current row span."""
        return not np.flatnonzero(self.reduce(entries)).size


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

