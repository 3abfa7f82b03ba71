"""The hesscomb benchmark: runs one workload (or all) and prints every metric.

    python3 perfbench/run.py --workload gkm-ranks --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

A run first starts several import-only child processes to time set-up, then
serves the workload's request list in fresh child processes (one pass each)
until the next pass would overrun --seconds; at least two untraced passes
always run.
With --trace 1 passes alternate untraced and traced: the untraced ones stay
the numbers of record and the traced ones give the per-layer table.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Per-run records and
the span dump of the last traced pass are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("gkm-ranks", "quotient-blocks", "service-mix")
SETUP_SAMPLES = 8
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    "linalg.insert.calls", "linalg.insert.self_s", "linalg.insert.useful_frac",
    "linalg.contains.calls", "linalg.contains.self_s",
    "gkm.betti_numbers.self_s", "gkm.in_t_ideal.calls", "gkm.in_t_ideal.self_s",
    "gkm.verify_relations.self_s", "gkm.rank_cols",
    "cohomology.normal_form.calls", "cohomology.normal_form.self_s",
    "cohomology.normal_form.terms_in", "cohomology.normal_form.terms_out",
    "cohomology.transition_blocks.self_s", "cohomology.permutation_orbits.self_s",
    "cohomology.multiply.self_s", "linalg.bareiss_det.self_s",
    "symfunc.csf_by_coloring.calls", "symfunc.csf_by_coloring.self_s",
    "symfunc.change_basis.calls", "symfunc.change_basis.self_s",
    "linalg.fraction_solve.self_s", "symfunc.csf_schur_by_ptableaux.self_s",
    "tableaux.enumerate_p_tableaux.calls", "tableaux.enumerate_p_tableaux.self_s",
    "tableaux.enumerate_p_tableaux.results",
    "tableaux.inversions.calls", "tableaux.inversions.self_s",
    "poincare.reconcile.self_s",
    "bijections.phi.calls", "bijections.phi.self_s",
    "bijections.psi.calls", "bijections.psi.self_s",
    "goldens.verify_all.self_s",
    "cli.main.calls", "cli.main.self_s", "cli.output_bytes",
    "trace_overhead_frac",
)


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[dict, float, float]:
    """Run child.py; return its JSON line, its start time and its peak RSS (MB)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1]), started, usage.ru_maxrss / 1024


def tail_point(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten requests beyond it
    (the 11th largest), and that percentile."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = []
    versions = {}
    for _ in range(SETUP_SAMPLES):
        res, started, _ = spawn(["--setup-only"])
        setup.append(res["import_done"] - started)
        versions = {"python": res["python"], "numpy": res["numpy"]}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    plain, traced = [], []
    walls = []
    begin = time.monotonic()
    pass_index = 0
    while True:
        tracing = trace and pass_index % 2 == 1
        args = ["--workload", workload, "--seed", str(seed),
                "--pass-index", str(pass_index), "--trace", str(int(tracing))]
        if tracing:
            args += ["--spans", str(spans_path)]
        t0 = time.monotonic()
        res, started, rss = spawn(args)
        walls.append(time.monotonic() - t0)
        res["peak_rss_mb"] = rss
        setup.append(res["import_done"] - started)
        (traced if tracing else plain).append(res)
        pass_index += 1
        done = len(plain) >= MIN_PASSES and (traced or not trace)
        if done and time.monotonic() - begin + median(walls) > seconds:
            break

    attempted = sum(r["requests"] for r in plain + traced)
    failures = [msg for r in plain + traced for msg in r["failed"].values()]
    tails = [tail_point(r["latencies_s"]) for r in plain]
    pass_p50_ms = [median(r["latencies_s"]) * 1e3 for r in plain]
    pass_tail_ms = [t * 1e3 for t, _ in tails]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": git_commit(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain),
        "traced_passes": len(traced),
        "requests_per_pass": plain[0]["requests"],
        "repeat_frac": median([1 - r["distinct"] / r["requests"] for r in plain]),
        "tail_percentile": tails[0][1],
        "setup_samples": len(setup),
        "pass_run_s": [r["run_s"] for r in plain],
        "pass_p50_ms": pass_p50_ms,
        "pass_tail_ms": pass_tail_ms,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": len(failures),
        "failure_examples": failures[:5],
        "end_to_end": {
            "setup_s": median(setup),
            "run_s": mean([r["run_s"] for r in plain]),
            "latency_p50_ms": mean(pass_p50_ms),
            "latency_tail_ms": mean(pass_tail_ms),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "failed_frac": len(failures) / attempted,
        },
    }
    if trace:
        layers = {name: median([r["layers"].get(name, 0) for r in traced])
                  for name in PER_LAYER[:-1]}
        layers["trace_overhead_frac"] = (
            mean([r["run_s"] for r in traced]) / record["end_to_end"]["run_s"] - 1)
        record["per_layer"] = layers
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def report(rec: dict) -> None:
    e = rec["end_to_end"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']} (+{rec['traced_passes']} traced)  "
          f"requests/pass {rec['requests_per_pass']}  repeat_frac {rec['repeat_frac']:.3f}")
    notes = {
        "setup_s": f"median of {rec['setup_samples']} child start-ups",
        "run_s": "pass wall time, checks excluded; mean over passes",
        "latency_p50_ms": "median request of a pass; mean over passes",
        "latency_tail_ms": f"p{rec['tail_percentile']:.2f} (11th largest of "
                           f"{rec['requests_per_pass']}) of a pass; mean over passes",
        "peak_rss_mb": "max RSS of the pass process, median over passes",
        "failed_frac": f"{rec['failed']} of {rec['attempted']} attempted",
    }
    units = dict(END_TO_END, failed_frac="ratio")
    for name, value in e.items():
        print(f"  {name:<18} {value:<14.6g} {units[name]:<6} {notes[name]}")
    for name, value in rec.get("per_layer", {}).items():
        print(f"  {name:<40} {value:<14.6g} {layer_unit(name)}")
    for msg in rec["failure_examples"]:
        print(f"  failure: {msg}")
    meta = {k: rec[k] for k in ("seed", "commit", "python", "numpy", "nproc")}
    print(f"  meta {json.dumps(meta)}")
    print(f"  record {rec['record_file']}" +
          (f"  spans {rec['spans_file']}" if "spans_file" in rec else ""))


def result_line(recs: list[dict], prefix: bool) -> str:
    """Traced records give per-layer metrics, untraced ones end-to-end metrics."""
    metrics = {}
    for rec in recs:
        pre = f"{rec['workload']}." if prefix else ""
        if rec["trace"]:
            for name, value in rec["per_layer"].items():
                metrics[pre + name] = {"value": value, "unit": layer_unit(name)}
        else:
            for name, unit in END_TO_END:
                metrics[pre + name] = {"value": rec["end_to_end"][name], "unit": unit}
    failed = sum(r["failed"] for r in recs)
    return json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in recs),
                       "failed": failed, "metrics": metrics})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; omitted, every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hesscomb" / "__init__.py").is_file():
        print(f"no hesscomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            report(rec)
            print(result_line([rec], prefix=False))
            return 0
        recs = []
        for workload in WORKLOADS:
            for trace in (False, True):
                recs.append(run_workload(workload, args.seed, args.seconds, trace))
                report(recs[-1])
        print(result_line(recs, prefix=True))
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
