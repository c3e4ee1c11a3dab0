#!/usr/bin/env python3
"""Train-and-serve benchmark of the DeepMVI reproduction.

One run of one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload serve-airq --seed 1 --seconds 20 --trace 0

builds the benchmark (Release, under .bench_build/) from the repository's
sources if needed, runs the workload in its own process and passes its
output through. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Other modes:

    --size smoke              every workload's checks in under a minute
    --repeat N [--workload W] steadiness: N runs of each workload in
                              BENCHMARK.json (or of W), one seed each,
                              median and quartiles of every metric
    --selftest                the benchmark's own unit tests

Exit codes: 0 success, 1 build or run failure, 2 usage or missing sources.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
WORKLOADS = ["serve-airq", "serve-hot", "batch-m5"]
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_sources():
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail("no %s under %s: run from a source checkout" % (path, ROOT), 2)


def build(targets):
    """Configures (once) and builds `targets` as Release; returns the cache."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS),
                  "--target"] + targets)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; log in " + log_path, 1)
    values = {}
    with open(cache) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":")[0]] = value
    if values.get("CMAKE_BUILD_TYPE") != "Release":
        fail("build type is %r, not Release" % values.get("CMAKE_BUILD_TYPE"), 1)
    return values


def provenance(cache):
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    # The sources the binaries are built from, hashed, so a run outside a
    # git checkout still names what it measured.
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path)
            for name in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": cache.get("CMAKE_CXX_COMPILER"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibrate():
    """Machine-speed readings printed with every run, so drift of the host
    between runs can be told apart from a change in the program: a fixed
    interpreter loop, and faulting in 64 MB of fresh pages (Predict faults
    in new pages too). Taken in this process, outside the measured one."""
    start = time.perf_counter()
    x = 0
    for i in range(2000000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    loop_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    block = bytearray(64 << 20)
    block[::4096] = bytes(len(block) // 4096)
    pages_ms = (time.perf_counter() - start) * 1e3
    del block
    return {"loop_ms": round(loop_ms, 3), "page_touch_64mb_ms": round(pages_ms, 3)}


def run_once(workload, seed, seconds, trace, size):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD_DIR, "dmvi_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, ["timed out after %d s" % RUN_TIMEOUT_S]
    return proc.returncode, proc.stdout.splitlines()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, cache):
    """Steadiness mode: the spread of every metric over N seeds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in bench["workloads"]])
    report = {"provenance": provenance(cache), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        samples = {}
        details = []
        calibration = []
        failed = attempted = 0
        for i in range(args.repeat):
            seed = args.seed + i
            code, lines = run_once(workload, seed, args.seconds, args.trace,
                                   args.size)
            if code != 0 or not lines:
                fail("%s seed %d failed: %s" % (workload, seed, lines[-1:]), 1)
            result = json.loads(lines[-1])
            calibration.append(calibrate())
            for line in lines:
                if line.startswith("detail "):
                    details.append(json.loads(line[len("detail "):]))
                if line.startswith("traced_end_to_end "):
                    for name, metric in json.loads(
                            line[len("traced_end_to_end "):]).items():
                        samples.setdefault("traced." + name, []).append(
                            metric["value"])
            if not result["correct"]:
                fail("%s seed %d: incorrect answers" % (workload, seed), 1)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                file=sys.stderr)
        rows = {}
        for name, values in sorted(samples.items()):
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread <= bound / 3 else (
                    "WITHIN BOUND" if spread <= bound else "TOO WIDE")
            print("%-10s %-28s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f"
                  "  bound %s %s" % (workload, name, q2, q1, q3, spread,
                                     bound, flag))
        report["workloads"][workload] = {"attempted": attempted,
                                         "failed": failed, "metrics": rows,
                                         "details": details,
                                         "calibration": calibration}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "steadiness-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("worst spread / bound: %.3f; report in %s" % (worst, path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    check_sources()

    if args.selftest:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                                cwd=ROOT).returncode)
    cache = build(["dmvi_perfbench"])
    if args.repeat > 0:
        repeat(args, cache)
        return
    if args.size == "smoke" and not args.workload:
        for workload in WORKLOADS:
            code, lines = run_once(workload, args.seed, min(args.seconds, 4),
                                   args.trace, "smoke")
            print("%s: %s" % (workload, lines[-1] if lines else "no output"))
            if code != 0:
                sys.exit(code)
        return
    if not args.workload:
        fail("--workload is required", 2)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           args.size)
    if code != 0:
        sys.stderr.write("\n".join(lines[-5:]) + "\n")
        fail("%s exited with %d" % (args.workload, code), 1)
    info = provenance(cache)
    info["calibration"] = calibrate()
    print("provenance " + json.dumps(info))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
