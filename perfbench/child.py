"""One pass of a workload in a fresh process: a single client on one thread.

Prints one JSON line: the monotonic time at which ``import hesscomb`` finished,
then (unless --setup-only) the per-request latencies, the requests that
failed, and, with --trace 1, the per-layer totals.  Requests are served in a
closed loop; inputs are prepared before the loop and answers are checked after
it, so neither is timed.

    python3 perfbench/child.py --workload gkm-ranks --seed 1 --pass-index 0 --trace 0
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import hesscomb  # noqa: E402

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

import numpy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_pass(workload, seed: int, pass_index: int, tracer: Tracer | None) -> dict:
    reqs = workload.requests(seed, pass_index)
    prepared = [workload.prepare(r) for r in reqs]
    latencies_ns, responses, errors = [], [], {}
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.enabled = True
    loop_start = clock()
    for i, p in enumerate(prepared):
        if tracer is not None:
            tracer.request_id = i
        t0 = clock()
        try:
            responses.append(workload.serve(p))
        except Exception as exc:  # a failed request is counted, not fatal
            responses.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies_ns.append(clock() - t0)
    run_ns = clock() - loop_start
    if tracer is not None:
        tracer.enabled = False

    counters: Counter = Counter()
    for i, (req, resp) in enumerate(zip(reqs, responses)):
        if i in errors:
            continue
        if not workload.check(req, resp):
            errors[i] = "answer failed its check"
        elif tracer is not None:
            counters.update(workload.counters(req, resp))
    out = {
        "requests": len(reqs),
        "distinct": len(set(reqs)),
        "run_s": run_ns / 1e9,
        "latencies_s": [ns / 1e9 for ns in latencies_ns],
        "failed": {str(i): msg for i, msg in sorted(errors.items())},
    }
    if tracer is not None:
        layers = tracer.layer_totals()
        layers.update(counters)
        out["layers"] = layers
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    args = ap.parse_args()

    if not Path(hesscomb.__file__).resolve().is_relative_to(SRC):
        print(f"hesscomb imported from {hesscomb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"import_done": IMPORT_DONE, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result.update(run_pass(WORKLOADS[args.workload](), args.seed, args.pass_index, tracer))
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
