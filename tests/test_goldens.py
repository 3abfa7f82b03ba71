"""Tests for the embedded reference data and its verifier."""

import pytest

from hesscomb.errors import KeyNotFound
from hesscomb.goldens import _GOLDENS, GoldenResult, lookup, verify_all

EXPECTED_KEYS = [
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4",
    "ex-simple-ptableaux",
    "ex-nilpotent-insertion",
    "ex-b1-insertion",
    "ex-b3-insertion",
]


def test_verify_all_passes():
    results = verify_all()
    assert [r.key for r in results] == EXPECTED_KEYS
    for r in results:
        assert isinstance(r, GoldenResult)
        assert r.ok, f"{r.key}: {r.detail}"
        assert r.detail.startswith("match")


def test_store_has_expected_keys():
    assert sorted(_GOLDENS) == sorted(EXPECTED_KEYS)
    for key in EXPECTED_KEYS:
        assert lookup(key)["h"]


def test_lookup_class_golden():
    data = lookup("fig2b")
    assert data["h"] == [2, 3, 3]
    assert data["class"] == "y2"
    assert data["values"]["213"] == "-t1 + t2"
    assert data["values"]["231"] == "t2 - t3"
    assert data["values"]["123"] == "0"


def test_lookup_matrix_golden():
    data = lookup("fig4")
    assert data["h"] == [1, 3, 3]
    assert data["degree"] == 0
    assert data["matrix"] == [[1, 0, 1], [0, 1, -1], [0, -1, -2]]


def test_lookup_unknown_key():
    with pytest.raises(KeyNotFound):
        lookup("fig99")


def test_lookup_returns_copies():
    a = lookup("fig2a")
    a["values"]["123"] = "corrupted"
    assert lookup("fig2a")["values"]["123"] == "t2"
    fig4 = lookup("fig4")
    fig4["matrix"][0][0] = 99
    assert lookup("fig4")["matrix"][0][0] == 1
    assert all(r.ok for r in verify_all())
