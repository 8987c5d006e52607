#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             [--seconds <s>] [--trace 0|1] [--repeat <n>]
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures the repository's
own CMake build with the benchmark attached (perfbench/attach.cmake); every
run then brings `igen_benchmark` and the `igen` compiler in .bench_build/ up
to date (a no-op once built). The benchmark's stdout passes through:
`name value unit` lines, then one JSON line with the keys correct,
attempted, failed and metrics.

--trace 1 runs the traced variant, which covers all four workloads for a
quarter of the time each: per-layer metrics instead of end-to-end ones,
and a Chrome trace-event file under .bench_build/traces/. --repeat N runs
seeds seed..seed+N-1 and prints the median and quartiles of every metric.
--smoke checks correctness and that the deterministic metrics repeat
exactly (see smoke()).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["aot-kernels", "compile-corpus", "serve-eval",
             "serve-compile-mix"]
BUILD_DIR = os.path.join(".bench_build", "cmake")
# The build and the benchmark keep their temporary files in the checkout.
TMP_DIR = os.path.join(".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench", "igen_benchmark")
HERE = os.path.dirname(os.path.abspath(__file__))
# Every run must finish within 180 s; keep a margin for start-up.
RUN_TIMEOUT_S = 170
# Metrics without measurement noise (the smoke test compares them across
# runs): the accuracy metrics, which no seed changes either, and the
# emitted-code counts.
COUNTS = ("transform.out_bytes_per_src_byte", "transform.ia_calls",
          "transform.ia_fma_calls", "transform.ia_signspec_calls",
          "opt.facts", "opt.fma_hazards")


def deterministic(name):
    return name in COUNTS or "accuracy_bits" in name


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone
    (up to 5 s): the daemon or an igen CLI child if the benchmark died."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build():
    """Configures the build once and brings the benchmark up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "igen_benchmark",
              "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", ".", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DCMAKE_PROJECT_igen_INCLUDE=" +
                         os.path.join(HERE, "attach.cmake")])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=child_env()) != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                fail("build failed (%s):\n%s" % (" ".join(cmd),
                                                 "".join(tail)), 3)


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed final JSON or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--duration-s", str(seconds)]
    if trace:
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        cmd += ["--trace", os.path.join(".bench_build", "traces",
                                        "%s-%d.json" % (workload, seed))]
    # The benchmark and the daemon or CLI processes it starts share a new
    # process group, which is emptied after every run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out = None
    stop_group(proc.pid)
    if out is None:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check_keys(result, trace):
    """The reported metrics must be exactly the ones BENCHMARK.json lists."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))


def summarize(results):
    """Median and quartiles of every metric over repeated runs."""
    names = list(results[0]["metrics"])
    print("%-40s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                         "iqr/med"))
    summary = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][name]["unit"]
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_over_median": spread, "unit": unit}
        print("%-40s %14.6g %14.6g %14.6g %7.2f%%" % (name, med, q1, q3,
                                                      100 * spread))
    return summary


def smoke(binary):
    """Correctness-only runs: every workload untraced for one second, each
    with another seed, then the traced run twice with one seed. The
    deterministic metrics must repeat exactly: aot_accuracy_bits in every
    workload's run, the per-layer accuracy and emitted-code counts in both
    traced runs."""
    failed = []

    def run(workload, seed, seconds, trace):
        code, result = run_binary(binary, workload, seed, seconds, trace,
                                  echo=False)
        if code != 0 or not result or not result["correct"]:
            label = "traced run" if trace else workload
            print("bench_smoke: %s failed (exit %d)" % (label, code))
            failed.append(label)
            return None
        return {k: v["value"] for k, v in result["metrics"].items()
                if deterministic(k)}

    seen = [run(w, 7 + i, 1, False) for i, w in enumerate(WORKLOADS)]
    seen += [run(WORKLOADS[0], 7, 4, True) for _ in range(2)]
    bits = {s["aot_accuracy_bits"] for s in seen[:4] if s}
    if len(bits) > 1:
        print("bench_smoke: aot_accuracy_bits differs between runs: %s"
              % sorted(bits))
        failed.append("aot_accuracy_bits")
    if seen[4] and seen[5] and seen[4] != seen[5]:
        print("bench_smoke: deterministic per-layer metrics differ between "
              "traced runs: %s" % sorted(
                  k for k in seen[4] if seen[4][k] != seen[5].get(k)))
        failed.append("per-layer")
    print("bench_smoke: %s" % ("FAILED: " + ", ".join(failed) if failed
                               else "ok"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", "--duration-s", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this igen_benchmark, skip the build")
    args = ap.parse_args()

    # The benchmark builds the program from the repository's sources.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir(os.path.join("bench", "kernels"))):
        fail("run from the root of an IGen source checkout (CMakeLists.txt, "
             "src/ and bench/kernels/ not found)")
    binary = args.binary
    if not binary:
        build()
        binary = BINARY
    if args.smoke:
        return smoke(binary)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.trace:
        workloads = workloads[:1]  # a traced run covers every workload
    status = 0
    for workload in workloads:
        results = []
        for i in range(args.repeat):
            code, result = run_binary(binary, workload, args.seed + i,
                                      args.seconds, args.trace,
                                      echo=args.repeat == 1)
            if result is None:
                fail("%s printed no result (exit %d)" % (workload, code), 5)
            check_keys(result, args.trace)
            status = status or code
            results.append(result)
            if args.repeat > 1:
                print("# %s seed %d: correct=%s attempted=%d failed=%d %s" % (
                    workload, args.seed + i, result["correct"],
                    result["attempted"], result["failed"],
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                      flush=True)
        if args.repeat > 1:
            print("## %s over %d seeds" % (workload, args.repeat))
            print(json.dumps({"workload": workload,
                              "summary": summarize(results)}))
    return status


if __name__ == "__main__":
    sys.exit(main())
