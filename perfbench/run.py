#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) and the repository libraries
it links into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild only what changed. The benchmark's report goes to
stdout and its last line is the machine-readable result. With --trace 1
the bench_micro_protocol figures are printed next to the traced
per-layer numbers before that line.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
    return proc.returncode == 0


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", out, "-j", jobs, "--target", *targets])


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "none"


def micro_figures():
    """bench_micro_protocol's decode / compiled-build / cache-hit / lookup (ns)."""
    exe = os.path.join(build_dir(), "bench", "bench_micro_protocol")
    if not build(["bench_micro_protocol"]) or not os.path.exists(exe):
        return None
    names = {
        "BM_WireDecodeQuestionFastPath": "decode",
        "BM_ResponseBuildCompiled": "compiled_build",
        "BM_ResponseBuildCached": "cache_hit",
        "BM_CompiledZoneLookupHit": "compiled_lookup",
    }
    proc = subprocess.run([exe, "--benchmark_filter=" + "|".join(names),
                           "--benchmark_min_time=0.05", "--benchmark_format=json"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=60)
    if proc.returncode != 0:
        return None
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6}
    figures = {}
    for b in json.loads(proc.stdout).get("benchmarks", []):
        key = names.get(b.get("name", "").split("/")[0])
        if key:
            figures[key] = b["cpu_time"] * scale.get(b.get("time_unit", "ns"), 1.0)
    return figures


def reconcile(lines):
    """Prints the micro-benchmark figures beside the traced layer numbers."""
    traced = {}
    for line in lines:
        m = re.match(r"^\s+([a-z][\w.]+)\s+(-?[\d.]+) (\S+)$", line)
        if m:
            traced[m.group(1)] = float(m.group(2))
    micro = micro_figures()
    if micro is None:
        print("micro reconciliation: bench_micro_protocol unavailable")
        return
    rows = [
        ("decode", "dns.decode_ns"),
        ("compiled_build", "server.respond_ns.compiled"),
        ("cache_hit", "server.respond_ns.hit"),
        ("compiled_lookup", "zone.lookup_ns"),
    ]
    for micro_key, layer in rows:
        print(f"micro reconciliation: bench_micro_protocol {micro_key} "
              f"{micro.get(micro_key, float('nan')):.1f} ns | traced {layer} "
              f"{traced.get(layer, float('nan')):.1f} ns")


def self_test():
    if not build(["perfbench_tests"]):
        return 2
    exe = os.path.join(build_dir(), "perfbench_tests")
    return subprocess.run([exe], cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    # bench_micro_protocol (for --trace 1) is built up front so no timed
    # run pays for it; without google-benchmark only perfbench is built.
    if not build(["perfbench", "bench_micro_protocol"]) and not build(["perfbench"]):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(build_dir(), "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--revision", revision(), "--build-type", BUILD_TYPE]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 2
    lines = proc.stdout.splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None:
        sys.stderr.write(f"perfbench: no result (exit {proc.returncode})\n")
        return proc.returncode or 2
    if args.trace == 1:
        reconcile(lines)
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
