"""One pass of a benchmark workload in a fresh interpreter.

Usage: python worker.py --workload NAME --seed N --trace 0|1 --out-dir DIR --tag TAG

Prints one JSON object: the pass's wall and CPU time, peak RSS, operations
attempted and failed and, when traced, its per-layer metrics.  A traced pass
also writes its spans to DIR/trace-TAG.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]()

    import_s = None
    if workload.in_process:
        t0 = time.perf_counter()
        import pgturan.cli  # noqa: F401  (the import users pay before any command)
        import_s = time.perf_counter() - t0

    inputs = workload.prepare(args.seed)
    ctx = {"trace": bool(args.trace), "root": Path.cwd(), "env": dict(os.environ),
           "out_dir": args.out_dir, "tag": args.tag, "records": []}
    tracer = Tracer() if args.trace and workload.in_process else None

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if tracer:
        tracer.install()
    try:
        outputs = workload.run(inputs, ctx)
    finally:
        if tracer:
            tracer.uninstall()
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if tracer:
        ctx["records"].append(tracer.record(import_s))

    attempted, failures = workload.check(outputs)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024,
              "attempted": attempted, "failures": failures}
    if args.trace:
        records = ctx["records"]
        result["layers"] = layer_metrics(records)
        result["unpatched"] = sorted({m for rec in records for m in rec["unpatched"]})
        trace_file = args.out_dir / f"trace-{args.tag}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent"],
            "processes": records}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
