#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark for one workload.

    python3 hostbench/run.py --workload paper_sweep|lock256|warm_replay \
        --seed N --seconds S --trace 0|1

Run from anywhere; every path is taken relative to the repository root (the
parent of this directory). The script

  1. builds hostbench/ with CMake into $CARGO_TARGET_DIR/hostbench
     (default .bench_build/hostbench), using every CPU it may run on;
  2. runs the binary with one malloc arena (MALLOC_ARENA_MAX=1): with one
     arena per thread, its peak RSS varied between identical runs. The
     binary pins each simulated cell to one CPU, taking the allowed CPUs in
     turn (see CpuRotation in cpp/workloads.hpp);
  3. with --trace 0, starts the binary SETUP_SAMPLES times in set-up-only
     mode, each pinned to the next allowed CPU in turn as the cells are,
     and reports setup_s as the median of those set-up times, each measured
     from before the process starts; then starts it once for the timed
     passes;
  4. prints the binary's report and, as the last line, one JSON object with
     the keys correct, attempted, failed and metrics.

A run after the build ends within RUN_LIMIT_S: the binary gets the time
that is left, plans no more passes than fit in it, and stops a pass that
reaches it.

It exits 0 only when every cell matched its known-good result. Without the
simulator sources (or the baseline) it exits 2 before printing a result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_sweep", "lock256", "warm_replay")
REQUIRED = (
    "src/CMakeLists.txt",
    "bench/CMakeLists.txt",
    "bench/baselines/bench_all.json",
    "hostbench/CMakeLists.txt",
    "hostbench/data/fingerprints.json",
)
SOURCES = ("CMakeLists.txt", "src", "bench", "hostbench")
SETUP_SAMPLES = 12
RUN_LIMIT_S = 165.0  # one run, after the build
KILL_GRACE_S = 5.0  # past the limit, a binary that did not stop is killed
BUILD_LIMIT_S = 700.0  # so that a first run, build included, ends within 900 s


def fail(msg, code):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hostbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({' '.join(cmd[:2])}); log in {log_path}", 3)
    return os.path.join(build_dir, "hostbench")


def revision():
    """The commit, marked -dirty for a changed tree, and a digest of the sources.

    The digest tells apart trees that git cannot: two changed trees on one
    commit, or a checkout without .git.
    """
    described = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                                  "--abbrev=40"], capture_output=True, text=True, timeout=10)
            described = out.stdout.strip() or described
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        top_path = os.path.join(ROOT, top)
        files = [top_path] if os.path.isfile(top_path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top_path) for f in fs)
        for path in files:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return f"{described} sources-sha256:{digest.hexdigest()[:16]}"


def run_binary(cmd, timeout):
    """Run one binary invocation; return (start_ns, returncode, stdout lines)."""
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}", 1)
    return start, proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"missing {', '.join(missing)}: run from a full checkout", 2)

    binary = build()
    t_start = time.monotonic()
    work = os.path.join(ROOT, ".hostbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--repo", ROOT, "--work", work]

    def left():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - t_start))

    setup_s = []
    cpus = os.sched_getaffinity(0)
    if args.trace == 0:
        # The child inherits the CPU; pinning it in the child instead (preexec_fn)
        # would put a slower fork inside the time measured.
        for i in range(SETUP_SAMPLES):
            os.sched_setaffinity(0, {sorted(cpus)[i % len(cpus)]})
            start, rc, lines = run_binary(base + ["--setup-only"], left())
            if rc != 0 or not lines:
                fail(f"set-up failed (exit {rc})", 1)
            setup_s.append((json.loads(lines[-1])["setup_end_ns"] - start) * 1e-9)
        os.sched_setaffinity(0, cpus)

    rev = revision()
    limit = left()
    _, rc, lines = run_binary(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", rev, "--time-limit", f"{limit:.1f}"], limit + KILL_GRACE_S)
    if not lines or not lines[-1].startswith("{"):
        fail(f"no result (exit {rc})", rc or 1)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}

    for line in lines[:-1]:
        print(line)
    print("setup_s samples: "
          + ", ".join(f"{s:.4f}" for s in setup_s))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    sys.exit(0 if rc == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
