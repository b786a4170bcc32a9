#!/usr/bin/env python3
"""Runs one workload of the bufferq benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the benchmark (the
library under src/ plus perfbench/src/) into .bench_build/ with CMake,
runs the named workload, checks that the program emitted every metric
BENCHMARK.json lists for the mode, and prints:

  * a provenance line (source digest and commit when known, build type,
    compiler, CPU model, nproc, load average at start);
  * one line per metric: name, value, unit and sample count;
  * last, one JSON object with exactly the keys correct, attempted,
    failed and metrics.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--smoke (tiny sizes) and --inject (corrupt a reference on purpose) exist
for the benchmark's own tests; see perfbench/test_perfbench.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bin", "perfbench")
WORKLOADS = ("fig_link", "leafspine_deep")
# Keeps the whole invocation, build excluded, inside the 180 s budget.
RUN_TIMEOUT_S = 170
# The longest --seconds whose run, with its set-up, reference requests and
# (traced) layer probes, still ends well inside RUN_TIMEOUT_S.
MAX_SECONDS = 120


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def seed_arg(text):
    if not text.isdigit() or len(text) > 19:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def seconds_arg(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seconds must be a number, got {text!r}") from None
    if not 0 < value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"seconds must be in (0, {MAX_SECONDS}], got {text!r}")
    return text


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--inject", choices=("counter", "digest"),
                   help="corrupt a reference so that checked requests fail (tests only)")
    return p.parse_args()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}: run from a source checkout", 2)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest():
    """sha256 over src/ and perfbench/ sources: names the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(load_at_start):
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"), "--version"]),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main():
    args = parse_args()
    load_at_start = [round(x, 2) for x in os.getloadavg()]
    build()

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd.append(f"--inject={args.inject}")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}", proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result")
    raw = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    got = {m["name"]: m for m in raw["metrics"]}
    for name, unit in expected.items():
        if name not in got:
            fail(f"metric {name} missing from the {args.workload} result")
        if got[name]["unit"] != unit:
            fail(f"metric {name} has unit {got[name]['unit']}, BENCHMARK.json says {unit}")

    print("# provenance " + json.dumps(provenance(load_at_start), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={raw['attempted']} failed={raw['failed']}")
    print(f"# {'metric':<36} {'value':>16} {'unit':<14} samples")
    for name in expected:
        m = got[name]
        print(f"# {name:<36} {m['value']:>16.6g} {m['unit']:<14} {m['samples']}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": got[name]["value"], "unit": got[name]["unit"]}
                    for name in expected},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
