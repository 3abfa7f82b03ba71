"""Partitions, P-tableaux for Hessenberg posets, and their inversions.

Tableaux are drawn with the longest row at the bottom; rows[0] is the
bottom row and "directly above" means same column position, next row up.
A P-tableau fills the shape with 1..n (each once) so that every entry is
below-in-poset its right neighbour, and no entry is above-in-poset the
entry directly beneath it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate
from math import factorial

from .errors import KOutOfRange, NotPTableau, ShapeMismatch, checked_int, json_decoder
from .hessenberg import HessenbergFunction, incomparable_pairs


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


def _fills(values, n: int) -> bool:
    """Whether values are 1..n, each once."""
    return sorted(values) == list(range(1, n + 1))


def _check_filling(t: PTableau) -> None:
    if not _fills([v for row in t.rows for v in row], t.n):
        raise ShapeMismatch("filling must use 1..n exactly once each")


def _row_holds(hv: tuple[int, ...], row) -> bool:
    """The row condition of P_h on one row, hv = h.values: each entry is
    below-in-poset its right neighbour, h(left) < right."""
    return all(hv[a - 1] < b for a, b in zip(row, row[1:]))


def _column_holds(hv: tuple[int, ...], col) -> bool:
    """The column condition of P_h on one column read bottom to top, hv =
    h.values: no entry is above-in-poset the entry beneath it, so
    h(above) >= below."""
    return all(hv[a - 1] >= b for b, a in zip(col, col[1:]))


def is_p_tableau(h: HessenbergFunction, t: PTableau) -> bool:
    """Check the row-chain and column conditions for P_h, where i <_P j
    exactly when h(i) < j."""
    if t.n != h.n:
        raise ShapeMismatch(f"tableau size {t.n} != n = {h.n}")
    _check_filling(t)
    hv = h.values
    return all(_row_holds(hv, row) for row in t.rows) and all(
        _column_holds(hv, t.column(c)) for c in range(len(t.rows[0]))
    )


def _row_starts(shape: Partition) -> list[int]:
    """Index in the reading word of each row's first cell."""
    return [end - length for length, end in zip(shape.parts, accumulate(shape.parts))]


def _fill_p_tableaux(
    h: HessenbergFunction, shape: Partition, leaf: Callable[[list[int], int], None]
) -> None:
    """Call leaf(word, inv) once for each P-tableau of the shape, in the order
    of its reading word; word is that reading word (one list, rewritten in
    place) and inv its number of P-inversions.

    Cells are filled in reading-word order and each cell tries its values in
    increasing order, so the words come out sorted.  The row condition
    left <_P v reads h(left) < v, and the column condition, not v <_P below,
    reads h(v) >= below; h is weakly increasing, so both are lower bounds on v.
    Rows fill bottom-up, so when v goes into row r every placed value lies in
    a row <= r, and the inversions v closes are exactly the placed u in rows
    below r with v < u <= h(v).  The recursion carries that count, the bit
    set of placed values and the bit set of values placed in lower rows."""
    if shape.size != h.n:
        raise ShapeMismatch(f"shape size {shape.size} != n = {h.n}")
    n = h.n
    hv = (0,) + h.values
    # least_v[b] is the least v with h(v) >= b.
    least_v = [bisect_left(h.values, b) + 1 for b in range(n + 1)]
    # window[v] has the bits of v+1..h(v), the larger values incomparable to v.
    window = [0] + [(1 << (hv[v] + 1)) - (1 << (v + 1)) for v in range(1, n + 1)]
    # Per cell: the index of the cell beneath it (-1 for none) and whether it
    # opens a row; any other cell has its left neighbour at the index before.
    starts = _row_starts(shape)
    cells = [(starts[r - 1] + c if r > 0 else -1, c == 0)
             for r, length in enumerate(shape.parts) for c in range(length)]
    word = [0] * n

    def fill(idx: int, used: int, lower: int, inv: int) -> None:
        if idx == n:
            leaf(word, inv)
            return
        below, opens_row = cells[idx]
        if opens_row:
            lower = used  # every value placed so far sits in a lower row
            lo = 1
        else:
            lo = hv[word[idx - 1]] + 1
        if below >= 0:
            lo = max(lo, least_v[word[below]])
        for v in range(lo, n + 1):
            bit = 1 << v
            if used & bit:
                continue
            word[idx] = v
            fill(idx + 1, used | bit, lower, inv + (lower & window[v]).bit_count())

    fill(0, 0, 0, 0)


def p_tableaux_with_inversions(
    h: HessenbergFunction, shape: Partition
) -> list[tuple[PTableau, int]]:
    """Each P-tableau of the shape with its number of P-inversions, ordered
    by reading word; the counts are those of `inversions`, kept during the
    fill (see _fill_p_tableaux)."""
    spans = [(a, a + length) for a, length in zip(_row_starts(shape), shape.parts)]
    out: list[tuple[PTableau, int]] = []

    def leaf(word: list[int], inv: int) -> None:
        out.append((PTableau(shape, tuple(tuple(word[a:b]) for a, b in spans)), inv))

    _fill_p_tableaux(h, shape, leaf)
    return out


def enumerate_p_tableaux(h: HessenbergFunction, shape: Partition) -> list[PTableau]:
    """All P-tableaux of the shape, ordered by their reading word.

    The fill places cells in reading-word order, rows bottom up, and counts
    P-inversions as it goes: a value v entering row r closes one with each
    placed u in a lower row with v < u <= h(v).  p_tableaux_with_inversions
    and inversion_counts report those counts."""
    return [t for t, _ in p_tableaux_with_inversions(h, shape)]


def inversion_counts(h: HessenbergFunction, shape: Partition) -> dict[int, int]:
    """{k: number of P-tableaux of the shape with k P-inversions}, counted
    during the fill with no tableau built."""
    counts: dict[int, int] = {}

    def leaf(_word: list[int], inv: int) -> None:
        counts[inv] = counts.get(inv, 0) + 1

    _fill_p_tableaux(h, shape, leaf)
    return counts


@dataclass(frozen=True)
class InversionData:
    pairs: frozenset[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.pairs)


def inversions(h: HessenbergFunction, t: PTableau) -> InversionData:
    """P-inversions: pairs i < j, incomparable in P_h (neither h(i) < j nor
    h(j) < i, that is, j <= h(i)), with i in a strictly higher row than j.

    Checks t first, since it may come from outside; for the tableaux of a
    shape, p_tableaux_with_inversions counts them during the fill instead."""
    if not is_p_tableau(h, t):
        raise NotPTableau(f"not a P-tableau for h = {h}")
    level = {v: r for r, row in enumerate(t.rows) for v in row}
    return InversionData(
        frozenset((i, j) for i, j in incomparable_pairs(h) if level[i] > level[j])
    )


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
    if checked_int(n, "n") < 2:
        raise KOutOfRange("needs n >= 2")
    if not 2 <= checked_int(k, "k") <= n:
        raise KOutOfRange(f"k = {k} outside [2, {n}]")
    shape = Partition((2,) + (1,) * (n - 2))
    rest = [v for v in range(2, n + 1) if v != k]
    rows = ((1, k),) + tuple((v,) for v in rest)
    return PTableau(shape, rows)
