#!/usr/bin/env python3
"""rvsym benchmark runner: builds rvsym-perfbench and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload sweep-l2 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --self-test     # 1-vs-4-job and CampaignRunner parity
  python3 perfbench/run.py --write-goldens # regenerate perfbench/golden/

An untraced run (--trace 0) prints the end-to-end metrics; a traced run
(--trace 1) prints the per-layer metrics and writes a Chrome trace under
.bench_out/. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "rvsym-perfbench")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

WORKLOADS = ("sweep-l2", "campaign", "fuzz")
# The end-to-end throughput metric of each workload, by its own name.
THROUGHPUT = {
    "sweep-l2": "paths_per_s",
    "campaign": "mutants_per_s",
    "fuzz": "tests_per_s",
}
# Set-up is sampled in this many extra launches per untraced run; the
# reported setup_s is the median of those and the measured launch.
SETUP_LAUNCHES = 10
LAUNCH_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("rvsym sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", "4",
                 "--target", "rvsym-perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def launch(args):
    """Runs the binary once; returns (result document, its peak RSS in MB)."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, the binary's steady_clock
    proc = subprocess.Popen([BINARY, *args, "--golden-dir", GOLDEN_DIR,
                             "--t0-ns", str(t0)],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: the resource usage of this child alone.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("rvsym-perfbench exited %d: %s"
                         % (proc.returncode, " ".join(args)))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("rvsym-perfbench printed nothing: " + " ".join(args))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_metrics(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))


def run_workload(args, spec):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        res, _ = launch(base + ["--trace", "1", "--trace-out", trace_out])
        wanted = spec["per_layer"]
        measured = res["per_layer"]
    else:
        setups = [launch(base + ["--mode", "setup"])[0]["setup_s"]
                  for _ in range(SETUP_LAUNCHES)]
        res, rss_mb = launch(base + ["--trace", "0"])
        setups.append(res["setup_s"])
        wanted = spec["end_to_end"]
        measured = dict(res["end_to_end"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        measured["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        measured["throughput_per_s"] = measured[THROUGHPUT[args.workload]]

    env = res["env"]
    print("rvsym-perfbench %s seed=%d trace=%d: %d iteration(s); nproc=%d "
          "compiler=%s build=%s sanitizer=%s"
          % (args.workload, args.seed, args.trace, res["iterations"],
             env["nproc"], env["compiler"], env["build_type"],
             env["sanitizer"]))
    attempted, failed = res["attempted"], res["failed"]
    shown = dict(measured)
    shown["failed_frac"] = {"value": failed / attempted if attempted else 0.0,
                            "unit": "frac"}
    print_metrics("metrics:", shown)
    rates = res["iteration_rates"]
    if rates:
        print("per-repeat throughput: min %.6g, median %.6g, max %.6g /s"
              % (min(rates), statistics.median(rates), max(rates)))
    for note in res["notes"]:
        print(note)
    for err in res["errors"]:
        print("ERROR: " + err)
    if args.trace:
        print("trace: " + trace_out)

    metrics = {}
    for m in wanted:
        # A layer the workload does not expose to the benchmark reads 0.
        got = measured.get(m["name"], {"value": 0.0})
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(res["correct"]) and attempted >= 1,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def self_test():
    ok = True
    for workload in ("sweep-l2", "campaign"):
        res, _ = launch(["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--mode", "selftest"])
        for note in res["notes"]:
            print(note)
        for err in res["errors"]:
            print("ERROR: " + err)
        print("%s self-test: %s" % (workload,
                                    "ok" if res["correct"] else "FAILED"))
        ok = ok and res["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_test:
            return 0 if self_test() else 1
        if args.write_goldens:
            for workload in ("sweep-l2", "campaign"):
                res, _ = launch(["--workload", workload, "--seconds", "1",
                                 "--mode", "golden"])
                print("\n".join(res["notes"]))
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result = run_workload(args, load_spec())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("run.py: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
