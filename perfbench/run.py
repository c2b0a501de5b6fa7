#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs it. The harness prints every metric by name and unit; its
last stdout line is the JSON result. Scratch files (trace slices, span dumps)
go under the same build directory. The exit code is the harness's: nonzero
when a correctness check fails, when the build fails, or when the repository
sources are missing.

--selftest builds, runs the logic test, checks that BENCHMARK.json lists
exactly the metrics the harness prints, and checks that bad arguments are
refused.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds; returns the binary directory or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("repository sources (src/) not found next to perfbench/")
        return None
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1


def selftest(out):
    failures = []
    if subprocess.run([os.path.join(out, "perfbench_logic_test")]).returncode != 0:
        failures.append("logic test failed")

    listed = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout.split("\n")
    printed = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        section, name, unit, better = line.split()
        printed[section].append({"name": name, "unit": unit, "better": better})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for section in printed:
        declared = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[section]]
        if declared != printed[section]:
            failures.append(f"BENCHMARK.json {section} differs from the harness's metrics")

    binary = os.path.join(out, "perfbench")
    work = os.path.join(build_dir(), "run")
    for bad in (["--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--work-dir", work],
                ["--workload", "online-churn", "--seed", "-1", "--seconds", "1",
                 "--trace", "0", "--work-dir", work],
                ["--workload", "online-churn", "--seed", "1", "--seconds", "1",
                 "--trace", "2", "--work-dir", work]):
        done = subprocess.run([binary] + bad, capture_output=True, text=True)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("accepted bad arguments: " + " ".join(bad))

    for f in failures:
        log("SELFTEST FAILED: " + f)
    if not failures:
        log("selftest passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build()
    if out is None:
        return 2
    if args.selftest:
        return selftest(out)
    return run([os.path.join(out, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", os.path.join(build_dir(), "run")])


if __name__ == "__main__":
    sys.exit(main())
