"""Partitions, P-tableaux for Hessenberg posets, and Specht polynomials.

Tableaux are drawn with the longest row at the bottom; rows[0] is the
bottom row and "directly above" means same column position, next row up.
A P-tableau fills the shape with 1..n (each once) so that every entry is
below-in-poset its right neighbour, and no entry is above-in-poset the
entry directly beneath it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import factorial

from .errors import KOutOfRange, NotPTableau, ShapeMismatch, checked_int, json_decoder
from .hessenberg import HessenbergFunction, incomparable_pairs, new_hessenberg, poset_of
from .intpoly import IntPoly


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ShapeMismatch("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ShapeMismatch("partition parts must weakly decrease")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate(Partition((2, 1, 1, 1))).parts
    (4, 1)
    """
    if not p.parts:
        return p
    cols = p.parts[0]
    return Partition(tuple(sum(1 for q in p.parts if q > c) for c in range(cols)))


@dataclass(frozen=True)
class PTableau:
    """A filled shape; rows listed bottom to top."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            raise ShapeMismatch("row lengths disagree with the shape")

    @property
    def n(self) -> int:
        return self.shape.size

    def reading_word(self) -> tuple[int, ...]:
        """Bottom-to-top, left-to-right concatenation of the rows."""
        return tuple(v for row in self.rows for v in row)

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows if len(row) > c)

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": list(self.shape.parts),
                "rows": [list(r) for r in self.rows],
                "orientation": "bottom-up",
            },
            sort_keys=True,
        )

    @classmethod
    @json_decoder("a tableau")
    def from_json(cls, data) -> "PTableau":
        if data.get("orientation", "bottom-up") != "bottom-up":
            raise ShapeMismatch("only bottom-up orientation is supported")
        return cls(
            Partition(tuple(checked_int(p, "a part") for p in data["shape"])),
            tuple(tuple(checked_int(v, "an entry") for v in r) for r in data["rows"]),
        )


def _check_filling(t: PTableau) -> None:
    seen = sorted(v for row in t.rows for v in row)
    if seen != list(range(1, t.n + 1)):
        raise ShapeMismatch("filling must use 1..n exactly once each")


def is_p_tableau(h: HessenbergFunction, t: PTableau) -> bool:
    """Check the row-chain and column conditions for P_h, where i <_P j
    exactly when h(i) < j."""
    if t.n != h.n:
        raise ShapeMismatch(f"tableau size {t.n} != n = {h.n}")
    _check_filling(t)
    p = poset_of(h)
    for row in t.rows:
        for a, b in zip(row, row[1:]):
            if not p.less(a, b):
                return False
    for below, above in zip(t.rows, t.rows[1:]):
        for c in range(len(above)):
            if p.less(above[c], below[c]):
                return False
    return True


def enumerate_p_tableaux(h: HessenbergFunction, shape: Partition) -> list[PTableau]:
    """All P-tableaux of the shape, ordered by their reading word.

    Cells are filled in reading-word order and each cell tries its values in
    increasing order, so the tableaux come out already sorted."""
    if shape.size != h.n:
        raise ShapeMismatch(f"shape size {shape.size} != n = {h.n}")
    n = h.n
    cells = [(r, c) for r, length in enumerate(shape.parts) for c in range(length)]
    grid: dict[tuple[int, int], int] = {}
    used = [False] * (n + 1)
    out: list[PTableau] = []

    def fill(idx: int) -> None:
        if idx == n:
            rows = tuple(
                tuple(grid[(r, c)] for c in range(length))
                for r, length in enumerate(shape.parts)
            )
            out.append(PTableau(shape, rows))
            return
        r, c = cells[idx]
        left = grid.get((r, c - 1)) if c > 0 else None
        below = grid.get((r - 1, c)) if r > 0 else None
        # The row condition left <_P v reads h(left) < v, and the column
        # condition, not v <_P below, reads h(v) >= below; h is weakly
        # increasing, so both are lower bounds on v.
        lo = 1 if left is None else h(left) + 1
        if below is not None:
            lo = max(lo, bisect_left(h.values, below) + 1)
        for v in range(lo, n + 1):
            if used[v]:
                continue
            used[v] = True
            grid[(r, c)] = v
            fill(idx + 1)
            used[v] = False
            del grid[(r, c)]

    fill(0)
    return out


@dataclass(frozen=True)
class InversionData:
    pairs: frozenset[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.pairs)


def inversions(h: HessenbergFunction, t: PTableau) -> InversionData:
    """P-inversions: pairs i < j, incomparable in P_h (neither h(i) < j nor
    h(j) < i, that is, j <= h(i)), with i in a strictly higher row than j."""
    if not is_p_tableau(h, t):
        raise NotPTableau(f"not a P-tableau for h = {h}")
    level = {v: r for r, row in enumerate(t.rows) for v in row}
    return InversionData(
        frozenset((i, j) for i, j in incomparable_pairs(h) if level[i] > level[j])
    )


@cache
def _staircase(n: int) -> HessenbergFunction:
    return new_hessenberg(range(1, n + 1))


def enumerate_syt(shape: Partition) -> list[PTableau]:
    """Standard tableaux: rows increase rightward, columns increase upward."""
    return enumerate_p_tableaux(_staircase(shape.size), shape)


def count_syt(shape: Partition) -> int:
    """Number of standard tableaux by the hook length formula."""
    conj = conjugate(shape).parts
    hooks = 1
    for i, row_len in enumerate(shape.parts):
        for j in range(row_len):
            hooks *= row_len - j + conj[j] - i - 1
    return factorial(shape.size) // hooks


def syt_with_bottom_pair(n: int, k: int) -> PTableau:
    """The unique standard tableau of shape (2, 1^(n-2)) with bottom row (1, k)."""
    if n < 2:
        raise KOutOfRange("needs n >= 2")
    if not 2 <= k <= n:
        raise KOutOfRange(f"k = {k} outside [2, {n}]")
    shape = Partition((2,) + (1,) * (n - 2))
    rest = [v for v in range(2, n + 1) if v != k]
    rows = ((1, k),) + tuple((v,) for v in rest)
    return PTableau(shape, rows)


def specht_polynomial(t: PTableau) -> IntPoly:
    """Column-wise Vandermonde: for positions a below b, factor x_{T(b)} - x_{T(a)}.

    Alternating in each column's entries; on a standard tableau every factor
    is (larger - smaller) since columns increase upward.
    """
    _check_filling(t)
    n = t.n
    out = IntPoly.const(n, 1)
    for c in range(t.shape.parts[0] if t.shape.parts else 0):
        col = t.column(c)
        for a in range(len(col)):
            for b in range(a + 1, len(col)):
                out = out * (IntPoly.var(n, col[b]) - IntPoly.var(n, col[a]))
    return out
