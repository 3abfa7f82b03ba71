"""Spans around calls into hesscomb's public functions, recorded from outside.

A Tracer replaces each traced function in every ``hesscomb.*`` namespace that
holds it (and the ``IntEchelon`` methods on their class) with a wrapper that
records one span per call: layer name, request id, parent span, start and end.
Spans stay in memory until ``dump`` writes them out.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer name, result hook).  A hook returns extra counters
# for one call from its arguments and result.
TARGETS = (
    ("hesscomb.linalg", "IntEchelon.insert", "linalg.insert",
     lambda args, res: {"linalg.insert.useful": int(bool(res))}),
    ("hesscomb.linalg", "IntEchelon.contains", "linalg.contains", None),
    ("hesscomb.linalg", "bareiss_det", "linalg.bareiss_det", None),
    ("hesscomb.linalg", "fraction_solve", "linalg.fraction_solve", None),
    ("hesscomb.gkm", "betti_numbers", "gkm.betti_numbers", None),
    ("hesscomb.gkm", "in_t_ideal", "gkm.in_t_ideal", None),
    ("hesscomb.gkm", "verify_relations", "gkm.verify_relations", None),
    ("hesscomb.cohomology", "normal_form", "cohomology.normal_form",
     lambda args, res: {"cohomology.normal_form.terms_in": len(args[0].terms),
                        "cohomology.normal_form.terms_out": len(res.terms)}),
    ("hesscomb.cohomology", "transition_blocks", "cohomology.transition_blocks", None),
    ("hesscomb.cohomology", "permutation_orbits", "cohomology.permutation_orbits", None),
    ("hesscomb.cohomology", "multiply", "cohomology.multiply", None),
    ("hesscomb.symfunc", "csf_by_coloring", "symfunc.csf_by_coloring", None),
    ("hesscomb.symfunc", "change_basis", "symfunc.change_basis", None),
    ("hesscomb.symfunc", "csf_schur_by_ptableaux", "symfunc.csf_schur_by_ptableaux", None),
    ("hesscomb.tableaux", "enumerate_p_tableaux", "tableaux.enumerate_p_tableaux",
     lambda args, res: {"tableaux.enumerate_p_tableaux.results": len(res)}),
    ("hesscomb.tableaux", "inversions", "tableaux.inversions", None),
    ("hesscomb.poincare", "reconcile", "poincare.reconcile", None),
    ("hesscomb.bijections", "phi_nilpotent", "bijections.phi", None),
    ("hesscomb.bijections", "phi_b1", "bijections.phi", None),
    ("hesscomb.bijections", "phi_b3", "bijections.phi", None),
    ("hesscomb.bijections", "psi_nilpotent", "bijections.psi", None),
    ("hesscomb.bijections", "psi_b1", "bijections.psi", None),
    ("hesscomb.bijections", "psi_b3", "bijections.psi", None),
    ("hesscomb.goldens", "verify_all", "goldens.verify_all", None),
    ("hesscomb.cli", "main", "cli.main", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


class Tracer:
    """Records spans while ``enabled``; one instance per process."""

    def __init__(self):
        self.enabled = False
        self.request_id = -1
        # [layer, request id, parent span index, start ns, end ns]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [layer, self.request_id, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if hook is not None:
                self.counters.update(hook(args, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every target for its wrapper wherever hesscomb holds it."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "hesscomb" or name.startswith("hesscomb.")]
        for module, attr, layer, hook in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth), hook))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(layer, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def layer_totals(self) -> dict[str, float]:
        """Per layer: calls and self seconds, plus the hook counters, with
        useful inserts turned into a share of all inserts."""
        child_ns = defaultdict(int)
        for _layer, _rid, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {f"{layer}.{k}": 0 for layer in LAYERS
                                 for k in ("calls", "self_s")}
        for idx, (layer, _rid, _parent, start, end) in enumerate(self.spans):
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.self_s"] = (out.get(f"{layer}.self_s", 0)
                                      + (end - start - child_ns[idx]) / 1e9)
        out.update(self.counters)
        useful = out.pop("linalg.insert.useful", 0)
        out["linalg.insert.useful_frac"] = useful / max(out["linalg.insert.calls"], 1)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (layer, rid, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"span": idx, "layer": layer, "request": rid,
                                     "parent": parent, "start_ns": start,
                                     "end_ns": end}) + "\n")
