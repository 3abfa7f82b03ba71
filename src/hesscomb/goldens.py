"""Embedded reference data and the recompute-and-diff routine behind the
`verify-goldens` CLI command.

Each golden is a literal: class tuples for h=(2,3,3) in both presentations,
the degree-0 transition matrix for h(1)=1 and n=3, the six column-plus-box
tableaux on five letters, and the three step-by-step insertion traces.  The
verifier recomputes every entry from the library and reports mismatches;
it never patches the stored values.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

from .bijections import trace_phi_b1, trace_phi_b3, trace_phi_nilpotent
from .cohomology import XYElement, XYMonomial, transition_blocks
from .errors import KeyNotFound
from .gkm import GkmClass, _class_by_name, build_gkm_graph, check_gkm_condition, one_line_str
from .hessenberg import new_hessenberg
from .tableaux import Partition, p_tableaux_with_inversions

_X2_VALUES = {
    "123": "t2",
    "132": "t3",
    "213": "t1",
    "231": "t3",
    "312": "t1",
    "321": "t2",
}

_GOLDENS: dict[str, dict] = {
    "fig2a": {
        "h": [2, 3, 3],
        "class": "x2",
        "values": dict(_X2_VALUES),
    },
    "fig2b": {
        "h": [2, 3, 3],
        "class": "y2",
        "values": {
            "123": "0",
            "132": "0",
            "213": "-t1 + t2",
            "231": "t2 - t3",
            "312": "0",
            "321": "0",
        },
    },
    "fig3a": {
        "h": [2, 3, 3],
        "class": "x2",
        "values": dict(_X2_VALUES),
    },
    "fig3b": {
        "h": [2, 3, 3],
        "class": "y2-transpose",
        "values": {
            "123": "0",
            "132": "t2 - t3",
            "213": "0",
            "231": "0",
            "312": "-t1 + t2",
            "321": "0",
        },
    },
    "fig4": {
        "h": [1, 3, 3],
        "degree": 0,
        "matrix": [[1, 0, 1], [0, 1, -1], [0, -1, -2]],
    },
    "ex-simple-ptableaux": {
        "h": [4, 5, 5, 5, 5],
        "shape": [2, 1, 1, 1],
        "tableaux": [
            {"rows": [[1, 5], [2], [3], [4]], "inversions": 3},
            {"rows": [[1, 5], [3], [2], [4]], "inversions": 4},
            {"rows": [[1, 5], [2], [4], [3]], "inversions": 4},
            {"rows": [[1, 5], [4], [2], [3]], "inversions": 5},
            {"rows": [[1, 5], [3], [4], [2]], "inversions": 5},
            {"rows": [[1, 5], [4], [3], [2]], "inversions": 6},
        ],
    },
    "ex-nilpotent-insertion": {
        "map": "nilpotent",
        "h": [2, 3, 5, 5, 5],
        "input": {"x": [1, 0, 1, 1, 0]},
        "steps": [
            {"entry": 4, "exponent": 1, "column": [5, 4]},
            {"entry": 3, "exponent": 1, "column": [5, 3, 4]},
            {"entry": 2, "exponent": 0, "column": [2, 5, 3, 4]},
            {"entry": 1, "exponent": 1, "column": [2, 1, 5, 3, 4]},
        ],
        "output": {
            "orientation": "bottom-up",
            "rows": [[2], [1], [5], [3], [4]],
            "shape": [1, 1, 1, 1, 1],
        },
    },
    "ex-b1-insertion": {
        "map": "b1",
        "h": [3, 5, 5, 5, 5],
        "input": {"x": [2, 0, 1, 1, 0]},
        "steps": [
            {"entry": 4, "exponent": 1, "column": [5, 4]},
            {"entry": 3, "exponent": 1, "column": [5, 3, 4]},
            {"entry": 2, "exponent": 0, "column": [2, 5, 3, 4]},
            {"entry": 1, "exponent": 2, "column": [2, 5, 1, 3, 4]},
        ],
        "slide": {"entry": 2, "moved": True, "column": [5, 2, 1, 3, 4]},
        "output": {
            "orientation": "bottom-up",
            "rows": [[5], [2], [1], [3], [4]],
            "shape": [1, 1, 1, 1, 1],
        },
    },
    "ex-b3-insertion": {
        "map": "b3",
        "h": [3, 5, 5, 5, 5],
        "input": {
            "terms": [
                {"x": [0, 0, 1, 0, 2], "y": 2, "c": 1},
                {"x": [0, 0, 1, 0, 2], "y": 1, "c": -1},
            ]
        },
        "k": 2,
        "s": {
            "orientation": "bottom-up",
            "rows": [[1, 2], [3], [4], [5]],
            "shape": [2, 1, 1, 1],
        },
        "start": {"bottom_row": [1, 4]},
        "steps": [
            {"entry": 2, "under": 0, "column": [1, 2]},
            {"entry": 3, "under": 0, "column": [1, 2, 3]},
            {"entry": 5, "under": 1, "column": [1, 2, 5, 3]},
        ],
        "output": {
            "s": {
                "orientation": "bottom-up",
                "rows": [[1, 2], [3], [4], [5]],
                "shape": [2, 1, 1, 1],
            },
            "t": {
                "orientation": "bottom-up",
                "rows": [[1, 4], [2], [5], [3]],
                "shape": [2, 1, 1, 1],
            },
        },
    },
}


def lookup(key: str) -> dict:
    if key not in _GOLDENS:
        raise KeyNotFound(f"no golden named {key!r}")
    return copy.deepcopy(_GOLDENS[key])


@dataclass(frozen=True)
class GoldenResult:
    key: str
    ok: bool
    detail: str


def _class_values(c: GkmClass) -> dict[str, str]:
    return {one_line_str(w): poly.pretty() for w, poly in sorted(c.values.items())}


def _diff(expected, actual) -> str:
    if expected == actual:
        return "match"
    return f"expected {json.dumps(expected, sort_keys=True)}, got {json.dumps(actual, sort_keys=True)}"


def _verify_class(key: str) -> GoldenResult:
    data = _GOLDENS[key]
    h = new_hessenberg(data["h"])
    # "y2-transpose" names y2 in the transpose form.
    name, _, variant = data["class"].partition("-")
    c = _class_by_name(h, name, variant or None)
    actual = _class_values(c)
    holds, _bad = check_gkm_condition(build_gkm_graph(h), c)
    ok = actual == data["values"] and holds
    detail = _diff(data["values"], actual)
    if not holds:
        detail += "; fails the divisibility condition"
    return GoldenResult(key, ok, detail)


def _verify_fig4() -> GoldenResult:
    data = _GOLDENS["fig4"]
    h = new_hessenberg(data["h"])
    block = next(b for b in transition_blocks(h) if b.degree == data["degree"])
    actual = [list(row) for row in block.matrix]
    return GoldenResult("fig4", actual == data["matrix"], _diff(data["matrix"], actual))


def _verify_ptableaux() -> GoldenResult:
    data = _GOLDENS["ex-simple-ptableaux"]
    h = new_hessenberg(data["h"])
    shape = Partition(tuple(data["shape"]))
    actual = sorted((t.rows, inv) for t, inv in p_tableaux_with_inversions(h, shape))
    expected = sorted(
        (tuple(tuple(r) for r in item["rows"]), item["inversions"])
        for item in data["tableaux"]
    )
    return GoldenResult(
        "ex-simple-ptableaux",
        actual == expected,
        _diff([list(map(list, e[0])) for e in expected], [list(map(list, a[0])) for a in actual]),
    )


def _verify_trace(key: str) -> GoldenResult:
    data = _GOLDENS[key]
    h = new_hessenberg(data["h"])
    if data["map"] == "nilpotent":
        actual = trace_phi_nilpotent(h, XYMonomial(tuple(data["input"]["x"])))
    elif data["map"] == "b1":
        actual = trace_phi_b1(h, XYMonomial(tuple(data["input"]["x"])))
    else:
        actual = trace_phi_b3(h, XYElement.from_json(json.dumps(data["input"])))
    return GoldenResult(key, actual == data, _diff(data, actual))


def verify_all() -> list[GoldenResult]:
    """Recomputes every golden from the library and diffs it against the
    stored literal, in a fixed key order."""
    results = []
    for key in ("fig2a", "fig2b", "fig3a", "fig3b"):
        results.append(_verify_class(key))
    results.append(_verify_fig4())
    results.append(_verify_ptableaux())
    for key in ("ex-nilpotent-insertion", "ex-b1-insertion", "ex-b3-insertion"):
        results.append(_verify_trace(key))
    return results
