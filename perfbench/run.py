#!/usr/bin/env python3
"""Build and run the cubisg end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run builds the cubisg libraries with the repository's own CMake
project (tests, benches and examples off), then the benchmark program that
links them, under .bench_build/ at the repository root.  Later runs only
rebuild what changed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "cubisg")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
WORKDIR = os.path.join(BUILD, "perfbench-work")
BINARY = os.path.join(BENCH_BUILD, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ["cold-families", "repeat-transplant", "small-isolated"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def step(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
        fail("build step failed: %s (log: %s)" % (" ".join(cmd), log.name))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no cubisg sources next to %s" % HERE)
    os.makedirs(WORKDIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                  "-DCUBISG_BUILD_TESTS=OFF", "-DCUBISG_BUILD_BENCH=OFF",
                  "-DCUBISG_BUILD_EXAMPLES=OFF"], log)
        step(["cmake", "--build", LIB_BUILD, "-j", jobs], log)
        if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                  "-DCUBISG_BUILD_DIR=" + LIB_BUILD,
                  "-DCUBISG_BUILD_TYPE=" + BUILD_TYPE], log)
        # Relinks when the cubisg archives changed.
        step(["cmake", "--build", BENCH_BUILD, "-j", jobs], log)


def run_binary(args, capture=False):
    """Runs the benchmark program; returns (exit code, stdout or None)."""
    cmd = [BINARY, "--workdir", WORKDIR] + args
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run_all(rest):
    """Every workload in turn; the JSON line prefixes each metric with its
    workload's name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        code, out = run_binary(["--workload", name] + rest, capture=True)
        sys.stdout.write(out)
        result = last_json(out)
        if code != 0 or result is None:
            status = 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))
    return status


def self_test():
    """Seeded inputs are reproducible, every named metric is printed with
    its unit, worker children's CPU time is counted exactly when workers
    are processes, and a short smoke run of each workload passes its
    checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def smoke(name, seed, trace):
        """A 1 s run; returns (output lines, inputs_digest) or None."""
        code, out = run_binary(["--workload", name, "--seed", str(seed),
                                "--seconds", "1", "--trace", str(trace)],
                               capture=True)
        result = last_json(out)
        tag = "%s seed=%d trace=%d" % (name, seed, trace)
        if code != 0 or result is None or not result["correct"]:
            problems.append("%s: exit %d, result %s" % (tag, code, result))
            return None
        lines = out.splitlines()
        digest = next((l.split()[0] for l in lines
                       if l.startswith("inputs_digest=")), None)
        if digest is None:
            problems.append("%s: no inputs_digest" % tag)
        key = "per_layer" if trace else "end_to_end"
        table = {}
        for line in lines:
            cells = line.split()
            if len(cells) >= 3:
                table[cells[0]] = cells[2]
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append("%s: metric %s missing or mis-united"
                                % (tag, metric["name"]))
            if table.get(metric["name"]) != metric["unit"]:
                problems.append("%s: %s not printed with its unit"
                                % (tag, metric["name"]))
        extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            problems.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
        return lines, digest

    for name in WORKLOADS:
        runs = [smoke(name, 1, 0), smoke(name, 1, 1), smoke(name, 2, 0)]
        if None in runs:
            continue
        a, b, c = (digest for _, digest in runs)
        if a is None or a != b:
            problems.append("%s: seed 1 digests differ" % name)
        if a is not None and a == c:
            problems.append("%s: seeds 1 and 2 share a digest" % name)
        cpu = next((l for l in runs[0][0] if l.startswith("cpu: ")), "")
        children = float(cpu.split("children_s=")[1]) if cpu else -1.0
        isolated = "isolation=process" in "\n".join(runs[0][0])
        if isolated != (children > 0):
            problems.append("%s: worker children's CPU %s with %s workers"
                            % (name, cpu or "not printed",
                               "process" if isolated else "thread"))
    for p in problems:
        print("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    build()
    if args.self_test:
        return self_test()
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.workload == "all":
        return run_all(rest)
    return run_binary(["--workload", args.workload] + rest)[0]


if __name__ == "__main__":
    sys.exit(main())
