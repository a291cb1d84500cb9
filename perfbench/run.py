#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the fpva library and the driver
(perfbench.cpp) in Release under .bench_build/perfbench, runs one workload
for S seconds and prints, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Beside the results (.bench_build/perfbench/results) it writes the host
context (nproc, CPU model, compiler, build type) and the exact counts of
each seed, and checks those counts against every earlier run of the same
binary: the same seed must repeat every count, another seed every
seed-free count. Exits non-zero on any failed check or build error.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "fpva_perfbench")
WORKLOADS = ("certify-5x5", "preset-20x20", "preset-30x30")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fpva_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_context(record):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "cmake_build_type": cache_value("CMAKE_BUILD_TYPE"),
        "loadavg": os.getloadavg(),
    }


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_counts(workload, seed, record):
    """Compares this run's counts with every earlier run of this binary.

    Returns (attempted, failures)."""
    path = os.path.join(RESULTS, f"counts-{workload}-{binary_digest()}.json")
    history = {}
    if os.path.exists(path):
        with open(path) as f:
            history = json.load(f)
    mine = {"seed_free": record["seed_free"], "seeded": record["seeded"]}
    attempted, failures = 0, []
    for other_seed, counts in sorted(history.items()):
        attempted += 1
        if other_seed == str(seed):
            if counts != mine:
                failures.append(f"seed {seed} counts differ from an "
                                "earlier run")
        elif counts["seed_free"] != mine["seed_free"]:
            failures.append(f"seed-free counts differ between seeds "
                            f"{other_seed} and {seed}")
    history.setdefault(str(seed), mine)
    with open(path + ".tmp", "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return attempted, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to measure a non-Release build")
    os.makedirs(RESULTS, exist_ok=True)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS]
    # A SIGTERM unwinds through the finally below, so the driver never
    # outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {driver.returncode})")
    record = json.loads(lines[-1])
    if driver.returncode not in (0, 1):
        fail(f"driver exited {driver.returncode}")

    attempted = record["attempted"]
    failures = list(record["failures"])
    failed = record["failed"]
    more_attempted, more_failures = check_counts(args.workload, args.seed,
                                                 record)
    attempted += more_attempted
    failed += len(more_failures)
    failures += more_failures

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = record["metrics"].get(metric["name"])
        attempted += 1
        if got is None or got["value"] is None or got["unit"] != metric["unit"]:
            failed += 1
            failures.append(f"metric {metric['name']} missing or mis-united")
            continue
        metrics[metric["name"]] = got

    record["host"] = host_context(record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1)

    host = record["host"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['passes']} untraced + {record['traced_passes']} traced "
          f"passes in {record['run_s']:.1f} s on {host['nproc']} x "
          f"{host['cpu_model']}, {host['compiler']} {host['build_type']}")
    for metric_name, metric in record["metrics"].items():
        gated = "" if metric_name in metrics else "  (reported, not gated)"
        print(f"  {metric_name:36s} {metric['value']:.6g} {metric['unit']}"
              f"{gated}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
