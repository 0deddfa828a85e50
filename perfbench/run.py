"""pgturan benchmark: one command, every metric, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog|search|cli --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter (perfbench/worker.py),
one after another: a closed loop with one client.  Passes repeat until the
next one would end past S seconds; there are always at least two untraced
passes, or one untraced and one traced pass.  The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over passes, and
over set-up samples for setup_s).  With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones, medians over traced
passes, plus the tracing overhead.  The line before it carries the seed, the
per-pass values and the mismatch ratio with its base.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("catalog", "search", "cli")
SETUP_SAMPLES = 11
MIN_PASSES = 2  # the median of one pass would carry that pass's noise whole
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Self-test of the traced run: layer metrics each workload must exercise, and
# the ones it must bypass (read exactly 0).
EXERCISED = {
    "catalog": ("bounds.optimize_s", "bounds.optimize_calls", "bounds.arc_optima_calls",
                "bounds.tables_s", "structures.classify_s", "structures.equiv_tests",
                "structures.enumerate_s", "structures.arcs_found",
                "structures.blocking_s", "structures.blocking_nodes",
                "covering.hitting_calls", "covering.hitting_nodes", "covering.mq_s",
                "covering.appendix_s", "construction.build_s", "construction.edges",
                "construction.embed_s", "construction.embed_nodes", "geometry.build_s",
                "geometry.build_calls", "geometry.cache_hit_ratio", "gf.make_field_s",
                "cli.import_s", "verify.claims", "verify.claim_s_sum", "verify.self_s"),
    "search": ("structures.classify_s", "structures.equiv_tests",
               "structures.equiv_hit_ratio", "structures.enumerate_s",
               "structures.arcs_found", "structures.blocking_s",
               "structures.blocking_nodes", "covering.hitting_s", "covering.hitting_calls",
               "covering.hitting_nodes", "covering.mq_s", "construction.build_s",
               "construction.edges", "construction.embed_s", "construction.embed_nodes",
               "geometry.build_s", "geometry.build_calls", "geometry.cache_hit_ratio",
               "gf.make_field_s", "cli.import_s"),
    "cli": ("geometry.build_s", "geometry.build_calls", "gf.make_field_s", "cli.import_s",
            "bounds.optimize_s", "bounds.optimize_calls", "bounds.tables_s",
            "structures.classify_s", "structures.blocking_nodes", "covering.mq_s",
            "covering.appendix_s", "construction.embed_nodes"),
}
BYPASSED = {
    "search": ("bounds.optimize_s", "bounds.optimize_calls", "bounds.arc_optima_calls",
               "bounds.tables_s", "verify.claims"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PGTURAN_THREADS", None)  # the default of one thread, as users run it
    return env


def measure_setup(env) -> list[float]:
    """Seconds from interpreter start until `import pgturan.cli` completes."""
    code = "import pgturan.cli, time; print(repr(time.time()))"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first start also compiles bytecode; users pay that once
            samples.append(float(proc.stdout) - t0)
    return samples


def run_pass(workload, seed, traced, env, out_dir, tag) -> dict:
    # A session of its own, so a pass that overruns is killed with the
    # command-line processes it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced)),
         "--out-dir", str(out_dir), "--tag", tag],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(workload, layers, unpatched) -> list[str]:
    problems = [f"not patched: {name}" for name in unpatched]
    problems += [f"{m} is 0 on {workload}" for m in EXERCISED[workload] if not layers[m]]
    problems += [f"{m} is {layers[m]} on {workload}, want 0"
                 for m in BYPASSED.get(workload, ()) if layers[m]]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pgturan" / "__init__.py").is_file():
        print(f"error: no pgturan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = [] if args.trace else measure_setup(env)

    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(args.workload, args.seed, False, env, out_dir,
                              f"{stem}-{len(plain)}"))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True, env, out_dir,
                                   f"{stem}-{len(traced)}"))
        elapsed = time.monotonic() - start
        enough = args.trace or len(plain) >= MIN_PASSES
        if enough and elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems: list[str] = []
    if args.trace:
        layer_names = traced[0]["layers"]
        metrics = {m: {"value": statistics.median(p["layers"][m] for p in traced),
                       "unit": _layer_unit(m)} for m in layer_names}
        plain_run = statistics.median(p["run_s"] for p in plain)
        traced_run = statistics.median(p["run_s"] for p in traced)
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
        problems = self_test(args.workload, {m: v["value"] for m, v in metrics.items()},
                             sorted({u for p in traced for u in p["unpatched"]}))
    else:
        values = {"setup_s": setup, **{m: [p[m] for p in plain]
                                       for m in ("run_s", "cpu_s", "peak_rss_mb")}}
        metrics = {m: {"value": statistics.median(values[m]), "unit": END_TO_END_UNITS[m]}
                   for m in END_TO_END_UNITS}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(plain),
        "per_pass": {m: [p[m] for p in plain] for m in ("run_s", "cpu_s", "peak_rss_mb")},
        "setup_samples_s": setup,
        "mismatch_ratio": len(failures) / attempted, "mismatch_base": attempted,
        "failures": failures[:20], "self_test_problems": problems,
    }
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": metrics}
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    for line in failures[:20] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _layer_unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s") or metric.endswith("_s_sum"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
