"""Hessenberg functions, their posets and incomparability graphs.

A Hessenberg function on [n] is a weakly increasing h with i <= h(i) <= n.
All public indices are 1-based; h is stored as the value tuple
(h(1), ..., h(n)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from .errors import (
    BelowDiagonal,
    EmptyInput,
    FormMismatch,
    MalformedInput,
    NotWeaklyIncreasing,
    OutOfRange,
    checked_int,
    json_decoder,
)


@dataclass(frozen=True)
class HessenbergFunction:
    """Validated Hessenberg function; construct through new_hessenberg."""

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRange(f"index {i} outside [1, {self.n}]")
        return self.values[i - 1]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "h": list(self.values)}, sort_keys=True)

    @classmethod
    @json_decoder("a Hessenberg function")
    def from_json(cls, data) -> "HessenbergFunction":
        h = new_hessenberg(data["h"])
        if data.get("n") != h.n:
            raise OutOfRange("field n disagrees with the length of h")
        checked_int(data["n"], "field n")  # 3.0 and true pass the comparison
        return h

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.values)) + ")"


def new_hessenberg(values: Iterable[int]) -> HessenbergFunction:
    """Validate and build a Hessenberg function from its value list."""
    try:
        items = iter(values)
    except TypeError:
        raise MalformedInput(f"Hessenberg values must be a sequence, got {values!r:.40}") from None
    vals = tuple(checked_int(v, "a Hessenberg value") for v in items)
    if not vals:
        raise EmptyInput("a Hessenberg function needs at least one value")
    n = len(vals)
    for i, v in enumerate(vals, start=1):
        if not 1 <= v <= n:
            raise OutOfRange(f"h({i}) = {v} outside [1, {n}]")
    if any(a > b for a, b in zip(vals, vals[1:])):
        raise NotWeaklyIncreasing(f"values {vals} decrease")
    for i, v in enumerate(vals, start=1):
        if v < i:
            raise BelowDiagonal(f"h({i}) = {v} < {i}")
    return HessenbergFunction(vals)


def transpose(h: HessenbergFunction) -> HessenbergFunction:
    """Reflect the Dyck path: h'(i) = #{j : h(j) >= n + 1 - i}.

    >>> transpose(new_hessenberg([2, 4, 4, 4])).values
    (3, 3, 4, 4)
    """
    n = h.n
    vals = tuple(sum(1 for v in h.values if v >= n + 1 - i) for i in range(1, n + 1))
    return new_hessenberg(vals)


@dataclass(frozen=True)
class FormTag:
    """Which of the two special shapes h matches (possibly both or neither).

    one_row_h1 is h(1) when h = (h(1), n, ..., n); transpose_m is m when
    h = ((n-1)^(n-m), n^m).  h = (n, ..., n) carries both tags.
    """

    one_row_h1: int | None
    transpose_m: int | None

    @property
    def is_one_row(self) -> bool:
        return self.one_row_h1 is not None

    @property
    def is_transpose(self) -> bool:
        return self.transpose_m is not None

    @property
    def is_general(self) -> bool:
        return not (self.is_one_row or self.is_transpose)


# h is weakly increasing and bounded by n, so h(2) = n forces every later value
# to n, and h(1) >= n - 1 forces every value to n - 1 or n.
def _is_one_row(h: HessenbergFunction) -> bool:
    return h.n == 1 or h.values[1] == h.n


def _is_transpose(h: HessenbergFunction) -> bool:
    return h.values[0] >= h.n - 1


def classify_form(h: HessenbergFunction) -> FormTag:
    return FormTag(
        one_row_h1=h.values[0] if _is_one_row(h) else None,
        transpose_m=h.values.count(h.n) if _is_transpose(h) else None,
    )


def _one_row_h1(h: HessenbergFunction) -> int:
    if not _is_one_row(h):
        raise FormMismatch(f"h={h} is not of the form (h(1), n, ..., n)")
    return h.values[0]


def _transpose_m(h: HessenbergFunction) -> int:
    if not _is_transpose(h):
        raise FormMismatch(f"h={h} is not of the form ((n-1)^(n-m), n^m)")
    return h.values.count(h.n)


@dataclass(frozen=True)
class YForm:
    """The y-classes of one special form: y_k is supported on w(pin) = k with
    value prod_{l in factors} (t_k - t_{w(l)}), so its degree is len(factors)."""

    name: str
    pin: int
    factors: tuple[int, ...]


def y_form(h: HessenbergFunction, name: str) -> YForm:
    """The "one-row" descriptor (pin 1, factors 2..h(1)) or the "transpose"
    one (pin n, factors n-m+1..n-1); FormMismatch when h has no such form."""
    n = h.n
    if name == "one-row":
        return YForm(name, 1, tuple(range(2, _one_row_h1(h) + 1)))
    return YForm(name, n, tuple(range(n - _transpose_m(h) + 1, n)))


def y_forms(h: HessenbergFunction) -> tuple[YForm, ...]:
    """The descriptors of every special form h matches, one-row first."""
    tag = classify_form(h)
    matches = (("one-row", tag.is_one_row), ("transpose", tag.is_transpose))
    return tuple(y_form(h, name) for name, ok in matches if ok)


def incomparable_pairs(h: HessenbergFunction) -> Iterator[tuple[int, int]]:
    """The incomparable pairs of P_h, the order on [n] with i <_P j exactly
    when h(i) < j: the pairs i < j <= h(i), since h is weakly increasing and
    h(i) >= i.  Ordered by i, then j."""
    for i, hi in enumerate(h.values, start=1):
        for j in range(i + 1, hi + 1):
            yield i, j


@dataclass(frozen=True)
class IncGraph:
    """Incomparability graph of P_h; edges as sorted pairs {i < j}."""

    n: int
    edges: frozenset[tuple[int, int]]


def inc_graph(h: HessenbergFunction) -> IncGraph:
    """Incomparability graph of P_h: {i < j} is an edge iff j <= h(i), that
    is, iff neither i <_P j nor j <_P i (i <_P j exactly when h(i) < j)."""
    return IncGraph(h.n, frozenset(incomparable_pairs(h)))


def box_counts(h: HessenbergFunction) -> tuple[int, ...]:
    """The ladder of box counts (h(k) - k); their sum is the complex dimension."""
    return tuple(h(k) - k for k in range(1, h.n + 1))


def all_hessenberg_functions(n: int) -> Iterator[HessenbergFunction]:
    """All Hessenberg functions on [n], lexicographic by value tuple."""
    if checked_int(n, "n") < 1:
        raise EmptyInput("n must be at least 1")

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        i = len(prefix) + 1
        if i > n:
            yield tuple(prefix)
            return
        lo = max(i, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    for vals in rec([]):
        yield HessenbergFunction(vals)
