"""The benchmark's workloads: seeded request lists, serving, and checks.

A request is plain data (tuples of ints and strings) built from the seed and
the pass index alone, so the same seed always gives the same requests.  For
each request a workload has three steps:

* ``prepare`` turns it into library inputs (untimed);
* ``serve`` makes the calls a client would make (timed);
* ``check`` compares the answer with an independent route (untimed).

``counters`` adds per-request counts to the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter

import hesscomb as hc
from hesscomb import cli
from hesscomb.hessenberg import all_hessenberg_functions


def _rng(name: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{pass_index}")


def _h(values) -> hc.HessenbergFunction:
    return hc.new_hessenberg(values)


def _one_row(n: int, h1: int) -> tuple[int, ...]:
    return (h1,) + (n,) * (n - 1)


def _mono(data) -> hc.XYMonomial:
    xexp, y = data
    return hc.XYMonomial(tuple(xexp), y)


def _element(data) -> hc.XYElement:
    n = len(data[0][0])
    return hc.XYElement(n, {_mono(m): c for m, c in zip(data[0::2], data[1::2])})


def _element_data(e: hc.XYElement) -> tuple:
    out = []
    for m, c in sorted(e.terms.items(), key=lambda mc: (mc[0].xexp, mc[0].y or 0)):
        out += [(m.xexp, m.y), c]
    return tuple(out)


class Workload:
    name = ""

    def requests(self, seed: int, pass_index: int) -> list[tuple]:
        raise NotImplementedError

    def prepare(self, req: tuple):
        raise NotImplementedError

    def serve(self, prepared):
        raise NotImplementedError

    def check(self, req: tuple, response) -> bool:
        raise NotImplementedError

    def counters(self, req: tuple, response) -> dict:
        return {}


# --- gkm-ranks -----------------------------------------------------------------


class GkmRanks(Workload):
    """Graded ranks, relation checks and t-ideal membership for every
    special-form h with n <= 4; the two largest get relation checks only."""

    name = "gkm-ranks"
    max_n = 4
    queries_per_side = 30  # per h: up to this many True and this many False
    # Their graded ranks take about 2.5 s and 10 s, paid by whichever of
    # betti_numbers or in_t_ideal first needs them: 85% of a pass.  A pass
    # would be one request long, too few passes would fit in a run, and the
    # host's slow spells would set run_s (see README.md).
    ranks_out_of_reach = ((3, 4, 4, 4), (4, 4, 4, 4))

    def __init__(self):
        self._pools: dict[tuple, tuple[list, list]] = {}
        self._expect: dict[tuple, tuple] = {}

    @staticmethod
    def special_forms(max_n: int) -> list[tuple[int, ...]]:
        return [h.values for n in range(1, max_n + 1) for h in all_hessenberg_functions(n)
                if not hc.classify_form(h).is_general]

    def _pool(self, hv: tuple) -> tuple[list, list]:
        """Basis monomials of the quotient (expected False) and their t-multiples
        that stay within the top degree (expected True)."""
        if hv not in self._pools:
            h = _h(hv)
            if hc.classify_form(h).is_one_row:
                b1, b2 = hc.basis_B1(h), hc.basis_B2(h)
            else:
                b1, b2, _ = hc.basis_transpose(h)
            top = sum(hc.box_counts(h))
            basis = []
            for b in (b1, b2):
                for e, d in zip(b.elements, b.degrees()):
                    (m,) = e.terms
                    basis.append(((m.xexp, m.y), d))
            false = [(m, 0) for m, _ in basis]
            true = [(m, k) for m, d in basis if d < top for k in range(1, len(hv) + 1)]
            self._pools[hv] = (false, true)
        return self._pools[hv]

    def requests(self, seed, pass_index):
        rng = _rng(self.name, seed, pass_index)
        out = []
        for hv in self.special_forms(self.max_n):
            if hv in self.ranks_out_of_reach:
                out.append(("relations", hv))
                continue
            out.append(("betti", hv))
            out.append(("relations", hv))
            false, true = self._pool(hv)
            queries = [("member", hv, m, k, False) for m, k in
                       rng.sample(false, min(self.queries_per_side, len(false)))]
            queries += [("member", hv, m, k, True) for m, k in
                        rng.sample(true, min(self.queries_per_side, len(true)))]
            rng.shuffle(queries)
            out += queries
        return out

    def prepare(self, req):
        h = _h(req[1])
        if req[0] != "member":
            return req[0], h
        _, _, m, k, _ = req
        c = hc.monomial_to_gkm(_mono(m), h)
        if k:
            c = hc.class_t(h.n, k) * c
        return "member", h, c

    def serve(self, prepared):
        kind, h = prepared[0], prepared[1]
        if kind == "betti":
            betti = hc.betti_numbers(h)
            return betti, tuple(hc.sn_fixed_rank(h, 2 * d) for d in range(len(betti)))
        if kind == "relations":
            return hc.verify_relations(h)
        return hc.in_t_ideal(prepared[2], h)

    def _expected_ranks(self, hv):
        """Betti numbers from P-tableaux and the nilpotent-basis degree census."""
        if hv not in self._expect:
            h = _h(hv)
            top = sum(hc.box_counts(h))
            poin = dict(hc.via_ptableaux(h).pairs())
            census = Counter(sum(next(iter(e.terms)).xexp)
                             for e in hc.basis_nilpotent(h).elements)
            self._expect[hv] = (tuple(poin.get(d, 0) for d in range(top + 1)),
                                tuple(census.get(d, 0) for d in range(top + 1)))
        return self._expect[hv]

    def check(self, req, response):
        if req[0] == "betti":
            return (tuple(response[0]), tuple(response[1])) == self._expected_ranks(req[1])
        if req[0] == "relations":
            return bool(response) and all(response.values())
        return response is req[4]

    def counters(self, req, response):
        if req[0] != "betti":
            return {}
        n = len(req[1])
        cols = sum(math.factorial(n) * math.comb(d + n - 1, n - 1)
                   for d in range(len(response[0])))
        return {"gkm.rank_cols": cols}


# --- quotient-blocks -----------------------------------------------------------


class QuotientBlocks(Workload):
    """Change-of-basis blocks, orbit partitions and products reduced to normal
    form, for one-row h at n = 5 and 6.  Each product is a degree-1 generator
    times a basis element; three distinct pairs are drawn per (basis, degree)
    stratum."""

    name = "quotient-blocks"
    shapes = tuple(_one_row(5, h1) for h1 in range(1, 6)) + (_one_row(6, 5), _one_row(6, 6))
    draws_per_stratum = 3

    def __init__(self):
        self._bases: dict[tuple, tuple] = {}

    def _basis(self, hv):
        if hv not in self._bases:
            h = _h(hv)
            self._bases[hv] = (hc.basis_B1(h), hc.basis_B2(h), hc.basis_B3(h))
        return self._bases[hv]

    def _strata(self, hv) -> tuple[list, list[list]]:
        """Degree-1 generators, and the basis elements grouped by basis and
        degree.  The y-sector bases (B2, B3) contribute only elements whose
        x-part has degree 0 or 1: with a larger x-part one product takes from
        tens of milliseconds up to 19 s at n = 6 (see README.md), and one
        such draw more or less would swing a pass far more than the rest."""
        b1, b2, b3 = self._basis(hv)
        gens = [_element_data(e) for e, d in zip(b1.elements, b1.degrees()) if d == 1]
        strata = []
        for b in (b1, b2, b3):
            by_degree: dict[int, list] = {}
            for e, d in zip(b.elements, b.degrees()):
                if b is b1 or next(iter(e.terms)).xdegree() <= 1:
                    by_degree.setdefault(d, []).append(_element_data(e))
            strata += [by_degree[d] for d in sorted(by_degree)]
        return gens, strata

    def requests(self, seed, pass_index):
        """Blocks and orbits for every shape first, then the seeded products.
        The products warm the rewrite engine's rule caches differently for
        each seed, so serving them last keeps the seed from moving the cost
        of the block and orbit requests, which make up the latency tail."""
        rng = _rng(self.name, seed, pass_index)
        out = []
        for hv in self.shapes:
            out.append(("blocks", hv))
            if hv[0] < len(hv):
                out.append(("orbits", hv))
        for hv in self.shapes:
            gens, strata = self._strata(hv)
            for stratum in strata:
                pairs = [(g, b) for g in gens for b in stratum]
                for g, b in rng.sample(pairs, min(self.draws_per_stratum, len(pairs))):
                    out.append(("product", hv, g, b))
        return out

    def prepare(self, req):
        h = _h(req[1])
        if req[0] == "product":
            return "product", h, _element(req[2]), _element(req[3])
        return req[0], h

    def serve(self, prepared):
        kind, h = prepared[0], prepared[1]
        if kind == "blocks":
            blocks = hc.transition_blocks(h)
            return blocks, [b.determinant() for b in blocks]
        if kind == "orbits":
            return hc.permutation_orbits(h)
        return hc.normal_form(hc.multiply(h, prepared[2], prepared[3]), h)

    def check(self, req, response):
        hv = req[1]
        h = _h(hv)
        n = len(hv)
        b1, b2, b3 = self._basis(hv)
        if req[0] == "blocks":
            # |det| = n^g, g = distinct x-parts of the B3 columns in that degree.
            ydeg = b3.y_degree()
            groups: dict[int, set] = {}
            for e in b3.elements:
                m = next(iter(e.terms))
                groups.setdefault(m.qdegree(ydeg), set()).add(m.xexp)
            blocks, dets = response
            law = all(abs(det) == n ** len(groups.get(b.degree // 2, ()))
                      for b, det in zip(blocks, dets))
            return law and len(blocks) == len(dets) and \
                hc.degree_gf(b1) + hc.degree_gf(b3) == hc.closed_form(h)
        if req[0] == "orbits":
            sizes = [len(o) for o in response.orbits]
            return all(s == n for s in sizes) and \
                sum(sizes) + len(response.fixed) == len(b1) + len(b2)
        union = list(b1.elements) + list(b2.elements)
        try:
            hc.coordinates(response, union)
        except hc.NotInBasis:
            return False
        a, b = _element(req[2]), _element(req[3])
        return hc.normal_form(hc.multiply(h, b, a), h) == response


# --- service-mix ---------------------------------------------------------------


def _catalog() -> list[tuple[tuple[str, ...], int]]:
    """(argv, expected exit code), most popular first."""
    c = []

    def add(*argv, code=0):
        c.append((tuple(argv), code))

    add("tableaux", "--h", "3,5,5,5,5", "--shape", "2,1,1,1")
    add("poincare", "--h", "2,5,5,5,5")
    add("csf", "--h", "3,4,5,5,5")
    add("bijection", "--h", "2,5,5,5,5", "--map", "b1", "--round-trip")
    add("verify-goldens")
    add("tableaux", "--h", "2,4,6,6,6,6", "--shape", "2,1,1,1,1")
    add("poincare", "--h", "3,6,6,6,6,6")
    add("gkm", "--h", "2,4,4,4", "--relations")
    add("poincare", "--h", "2,1,3", code=2)
    add("csf", "--h", "2,3,5,5,5")
    add("bijection", "--h", "3,4,5,5,5", "--map", "nilpotent", "--round-trip")
    add("basis", "--h", "4,5,5,5,5", "--blocks")
    add("tableaux", "--h", "3,4,5,6,7,7,7", "--shape", "6,1")
    add("poincare", "--h", "3,4,5,6,6,6")
    add("csf", "--h", "4,6,6,6,6,6")
    add("bijection", "--h", "3,5,5,5,5", "--map", "b3", "--round-trip")
    add("tableaux", "--h", "2,4,4,5,5", "--shape", "2,1,1,1")
    add("gkm", "--h", "2,3,5,5,5", "--relations", code=2)
    add("poincare", "--h", "2,4,4,5,5")
    add("csf", "--h", "2,4,6,6,6,6")
    add("bijection", "--h", "2,4,6,6,6,6", "--map", "nilpotent", "--round-trip")
    add("gkm", "--h", "3,5,5,5,5", "--relations")
    add("basis", "--h", "3,5,5,5,5", "--blocks")
    add("tableaux", "--h", "2,4,6,7,7,7,7", "--shape", "2,1,1,1,1,1")
    add("csf", "--h", "9,9,9,9,9,9,9,9,9", code=2)
    add("poincare", "--h", "3,4,5,6,7,7,7")
    add("bijection", "--h", "3,6,6,6,6,6", "--map", "b1", "--round-trip")
    add("csf", "--h", "3,6,6,6,6,6")
    add("gkm", "--h", "4,5,5,5,5", "--relations")
    add("tableaux", "--h", "2,3,3", "--shape", "2,2", code=2)
    add("bijection", "--h", "4,6,6,6,6,6", "--map", "b3", "--round-trip")
    add("poincare", "--h", "2,4,6,7,7,7,7")
    add("basis", "--h", "2,5,5,5,5", "--blocks")
    add("csf", "--h", "5,7,7,7,7,7,7")
    add("bijection", "--h", "3,4,5,6,7,7,7", "--map", "nilpotent", "--round-trip")
    add("poincare", "--h", "4,7,7,7,7,7,7")
    add("csf", "--h", "2,4,6,7,7,7,7")
    add("bijection", "--h", "5,7,7,7,7,7,7", "--map", "b1", "--round-trip")
    add("csf", "--h", "3,4,5,6,7,7,7")
    return c


class ServiceMix(Workload):
    """Many short CLI requests in one process, Zipf-distributed over a catalog
    of (subcommand, h) pairs at n = 5-7, with some invalid requests.  Requests
    repeat, so a cache in the library would show here."""

    name = "service-mix"
    requests_per_pass = 200
    zipf_s = 1.1
    catalog = _catalog()

    def __init__(self):
        self._schur: dict[str, list] = {}

    def requests(self, seed, pass_index):
        """Each catalog entry appears in proportion to 1/rank**zipf_s, rounded
        to whole counts by largest remainder; the seed sets the order.  Fixed
        counts keep the cost of a pass from swinging with how often a few
        heavy requests happen to be drawn."""
        weights = [1 / r ** self.zipf_s for r in range(1, len(self.catalog) + 1)]
        exact = [self.requests_per_pass * w / sum(weights) for w in weights]
        counts = [math.floor(x) for x in exact]
        short = self.requests_per_pass - sum(counts)
        for i in sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])[:short]:
            counts[i] += 1
        out = [("cli",) + item for item, c in zip(self.catalog, counts) for _ in range(c)]
        _rng(self.name, seed, pass_index).shuffle(out)
        return out

    def prepare(self, req):
        return list(req[1])

    def serve(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def _schur_terms(self, h_text: str) -> list:
        if h_text not in self._schur:
            h = _h(int(v) for v in h_text.split(","))
            self._schur[h_text] = json.loads(hc.csf_schur_by_ptableaux(h).to_json())["terms"]
        return self._schur[h_text]

    def check(self, req, response):
        _, argv, expected = req
        code, text = response
        if code != expected:
            return False
        try:
            data = json.loads(text)
        except ValueError:
            return False
        if expected != 0:
            return "error" in data
        for flag in ("methods_agree", "all_ok", "all_hold"):
            if data.get(flag) is False:
                return False
        if argv[0] == "csf":
            return data["schur"] == self._schur_terms(argv[2])
        return True

    def counters(self, req, response):
        return {"cli.output_bytes": len(response[1].encode())}


WORKLOADS = {w.name: w for w in (GkmRanks, QuotientBlocks, ServiceMix)}
