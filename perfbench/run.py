#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

    python3 perfbench/run.py --workload hot-ledger --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds perfbench/ (CMake) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use,
then runs the untraced binary.  With --trace 1 it runs the untraced binary
and then the traced one on the same seed and reports the per-layer metrics:
counters from the untraced run, times from the traced run, and the traced
run's throughput cost.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; exits 1 when a correctness
check failed, 2 when the benchmark could not be built or run.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot-ledger", "cold-tree", "durable-ledger")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics.  Times come from the traced run, everything else from
# the untraced run; a metric of a layer a workload does not use reads 0.
TRACED_TIMES = {
    "api.start_ns": "ns",
    "api.abort_ns": "ns",
    "api.commit_ns": "ns",
    "stm.read_ns": "ns",
    "stm.write_ns": "ns",
    "txstruct.self_ns": "ns",
}
COUNTERS = {
    "api.attempts_per_op": "attempts/op",
    "stm.reads_per_op": "reads/op",
    "stm.writes_per_op": "writes/op",
    "stm.aborts_per_commit": "aborts/commit",
    "stm.aborts_read_conflict_per_commit": "aborts/commit",
    "stm.aborts_write_conflict_per_commit": "aborts/commit",
    "stm.aborts_validation_per_commit": "aborts/commit",
    "stm.aborts_killed_per_commit": "aborts/commit",
    "stm.extensions_per_commit": "ext/commit",
    "stm.lost_writes_per_1m_writes": "lost/1M-writes",
    "core.serialized_per_1k_attempts": "per-1k-attempts",
    "core.sched_waits_per_1k_attempts": "per-1k-attempts",
    "durable.records_per_fsync": "records/fsync",
    "durable.fsyncs_per_s": "1/s",
    "durable.log_bytes_per_op": "B/op",
    "durable.recovery_s": "s",
    "replica.apply_records_per_s": "records/s",
    "replica.apply_p99_us": "us",
    "replica.batches_per_s": "1/s",
    "replica.reconnects": "count",
    "replica.lag_p50_us": "us",
    "replica.lag_p99_us": "us",
}

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure and build perfbench/ once per checkout; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "api", "shrinktm.hpp")):
        fail("library sources not found under " + os.path.join(root, "src"))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for step in steps:
            r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=root)
            if r.returncode != 0:
                fail("build failed: " + " ".join(step))
    return bdir


def run_binary(exe, args, root):
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           cwd=root, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(os.path.basename(exe) + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(os.path.basename(exe) + " exited %d without a result" % r.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(os.path.basename(exe) + " printed no JSON result: " + lines[-1])


def summarize(res):
    m = res["metrics"]
    print("perfbench: %s%s correct=%s attempted=%d failed=%d lost_writes=%d "
          "ops_per_s=%.0f p50=%.3fus p99=%.3fus p99.9=%.3fus samples=%d%s" % (
              res["workload"], " (traced)" if res["traced"] else "",
              res["correct"], res["attempted"], res["failed"], res["lost_writes"],
              m["ops_per_s"], m["op_p50_us"], m["op_p99_us"], m["op_p999_us"],
              m["op_samples"],
              "".join(" PROBLEM: " + p for p in res["problems"])),
          file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scheduler", default="shrink",
                    help="scheduler under test (the workloads are defined on shrink)")
    ap.add_argument("--sync", default="async",
                    help="durable-ledger sync mode (async; group waits for fsync)")
    ap.add_argument("--self-test", action="store_true",
                    help="feed every correctness check a wrong state")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    bdir = build(root)
    workdir = os.path.join(os.path.dirname(bdir), "run")
    os.makedirs(workdir, exist_ok=True)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench"), "--self-test",
                                 "--workdir", workdir], cwd=root).returncode)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds),
              "--scheduler", args.scheduler, "--sync", args.sync, "--workdir", workdir]
    untraced = run_binary(os.path.join(bdir, "perfbench"), common, root)
    summarize(untraced)
    runs = [untraced]
    if args.trace == 0:
        metrics = {k: {"value": untraced["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        trace_file = os.path.join(workdir, "trace-%s-seed%d.json" % (args.workload, args.seed))
        traced = run_binary(os.path.join(bdir, "perfbench_traced"),
                            common + ["--trace-out", trace_file], root)
        summarize(traced)
        runs.append(traced)
        metrics = {k: {"value": untraced["metrics"].get(k, 0.0), "unit": u}
                   for k, u in COUNTERS.items()}
        metrics.update({k: {"value": traced["metrics"][k], "unit": u}
                        for k, u in TRACED_TIMES.items()})
        overhead = 100.0 * (1.0 - traced["metrics"]["ops_per_s"] /
                            untraced["metrics"]["ops_per_s"])
        metrics["bench.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        print("perfbench: trace written to " + trace_file, file=sys.stderr)

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
