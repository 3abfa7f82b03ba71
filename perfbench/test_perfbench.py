"""Tests of the benchmark itself: seeded request lists, the correctness
checkers, span self time, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from child import run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, GkmRanks, QuotientBlocks, ServiceMix  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    first = WORKLOADS[name]().requests(7, 0)
    assert first == WORKLOADS[name]().requests(7, 0)
    assert first != WORKLOADS[name]().requests(8, 0)
    assert first != WORKLOADS[name]().requests(7, 1)


def test_distinct_requests_where_promised():
    for cls in (GkmRanks, QuotientBlocks):
        reqs = cls().requests(3, 0)
        assert len(set(reqs)) == len(reqs)


def _answered(workload, reqs):
    return [(r, workload.serve(workload.prepare(r))) for r in reqs]


def test_gkm_checker_rejects_corrupted_answers():
    w = GkmRanks()
    small = [r for r in w.requests(1, 0) if len(r[1]) <= 3]
    kinds = {}
    for req, resp in _answered(w, small):
        assert w.check(req, resp), req
        kinds.setdefault((req[0], req[-1] if req[0] == "member" else None), (req, resp))
    (req, (betti, fixed)) = kinds[("betti", None)]
    assert not w.check(req, (betti[:-1] + (betti[-1] + 1,), fixed))
    assert not w.check(req, (betti, fixed[:-1] + (fixed[-1] + 1,)))
    req, rel = kinds[("relations", None)]
    assert not w.check(req, {**rel, next(iter(rel)): False})
    for expected in (True, False):
        req, resp = kinds[("member", expected)]
        assert not w.check(req, not resp)


def test_quotient_checker_rejects_corrupted_answers():
    w = QuotientBlocks()
    reqs = [r for r in w.requests(1, 0) if r[1] == (4, 5, 5, 5, 5)]
    answered = _answered(w, reqs)
    for req, resp in answered:
        assert w.check(req, resp), req
    by_kind = {req[0]: (req, resp) for req, resp in answered}
    req, (blocks, dets) = by_kind["blocks"]
    assert not w.check(req, (blocks, [2 * dets[0]] + dets[1:]))
    req, orbits = by_kind["orbits"]
    assert not w.check(req, type(orbits)(orbits.orbits, orbits.fixed[1:]))
    req, nf = by_kind["product"]
    one = type(nf).one(nf.n)
    assert not w.check(req, nf + one)


def test_service_checker_rejects_corrupted_answers():
    w = ServiceMix()
    csf = ("cli", ("csf", "--h", "3,4,5,5,5"), 0)
    bad_h = ("cli", ("poincare", "--h", "2,1,3"), 2)
    for req, (code, text) in _answered(w, [csf, bad_h]):
        assert w.check(req, (code, text))
        assert not w.check(req, (1 - code if code == 0 else 0, text))
        assert not w.check(req, (code, text[:-3]))
    code, text = w.serve(w.prepare(csf))
    data = json.loads(text)
    data["schur"][0]["coeff"][0][1] += 1
    assert not w.check(csf, (code, json.dumps(data)))


class _OneWrongAnswer(QuotientBlocks):
    """Serves the small n = 5 shapes and corrupts exactly one product."""

    shapes = ((4, 5, 5, 5, 5), (5, 5, 5, 5, 5))

    def __init__(self):
        super().__init__()
        self.products = 0

    def serve(self, prepared):
        resp = super().serve(prepared)
        if prepared[0] == "product":
            self.products += 1
            if self.products == 3:
                resp = resp + type(resp).one(resp.n)
        return resp


def test_one_wrong_answer_is_counted_as_failed():
    out = run_pass(_OneWrongAnswer(), seed=1, pass_index=0, tracer=None)
    assert out["requests"] > 10
    assert list(out["failed"].values()) == ["answer failed its check"]


def test_tracer_self_time_excludes_children():
    t = Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = t.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = t.wrap("outer", outer)
    t.enabled = True
    traced_outer()
    t.enabled = False
    traced_outer()  # not recorded
    assert [s[0] for s in t.spans] == ["outer", "inner", "inner"]
    assert [s[2] for s in t.spans] == [-1, 0, 0]
    spans = {i: s[4] - s[3] for i, s in enumerate(t.spans)}
    self_ns = {}
    for i, s in enumerate(t.spans):
        self_ns[i] = spans[i] - sum(spans[j] for j, c in enumerate(t.spans) if c[2] == i)
    totals = t.layer_totals()
    assert totals["outer.calls"] == 1 and totals["inner.calls"] == 2
    assert totals["outer.self_s"] == pytest.approx(self_ns[0] / 1e9)
    assert totals["outer.self_s"] + totals["inner.self_s"] == pytest.approx(spans[0] / 1e9)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_tail_point_leaves_ten_beyond():
    lat = list(range(100))
    value, pct = run.tail_point(lat)
    assert value == 89 and sum(v > value for v in lat) == 10 and pct == 90.0
