#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench_runner (the library
modules under src/ plus this directory) into .bench_build/, records the
host it runs on, runs the workload in a private directory under
.bench_build/, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("campaign_cold", "campaign_warm", "awd_mixed")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the runner incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at src/; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(RUNNER)


def runner(args, timeout=RUN_TIMEOUT_S):
    return subprocess.run([RUNNER] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)


def source_revision():
    """git revision when the tree is a checkout, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def host_record():
    """Context for reading a run: is the host slow, or is it starved?"""
    probe = runner(["--probe-cores", "0.25"], timeout=30)
    return {
        "nproc": os.cpu_count(),
        "effective_cores": float(probe.stdout.strip() or 0),
        "loadavg_1m": os.getloadavg()[0],
        "build_type": BUILD_TYPE,
        "revision": source_revision(),
    }


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def conform(metrics, spec, section):
    """The run's metrics as BENCHMARK.json lists them under `section`,
    or None when they do not fit. A metric the file does not name there
    with that unit does not fit; nor does an end-to-end metric that is
    missing or not above 0. A per-layer metric the workload did not
    measure (its layer does no work there) reads 0."""
    named = {m["name"]: m["unit"] for m in spec[section]}
    stray = sorted(n for n, m in metrics.items() if named.get(n) != m["unit"])
    if stray:
        log("perfbench: not named in BENCHMARK.json %s with this unit: %s"
            % (section, stray))
        return None
    if section == "end_to_end":
        bad = [n for n in named
               if n not in metrics or not metrics[n]["value"] > 0]
        if bad:
            log("perfbench: end-to-end metrics missing or not above 0: %s"
                % bad)
            return None
    return {n: metrics.get(n, {"value": 0, "unit": u})
            for n, u in named.items()}


def run_workload(opts):
    workdir = os.path.join(BUILD_ROOT, "work",
                           "%s-%d" % (opts.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = runner(["--workload", opts.workload, "--seed", str(opts.seed),
                       "--seconds", str(opts.seconds),
                       "--trace", str(opts.trace), "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        elif line.startswith("PERFBENCH_RECORD "):
            print(json.dumps({"record": json.loads(
                line[len("PERFBENCH_RECORD "):])}))
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        log("perfbench: runner failed (exit %d)" % proc.returncode)
        return None
    metrics = conform(result["metrics"], benchmark_spec(),
                      "per_layer" if opts.trace else "end_to_end")
    if metrics is None:
        return None
    result["metrics"] = metrics
    return result


def selftest():
    """C++ self-tests, then BENCHMARK.json's names and conform()."""
    failures = 0
    workdir = os.path.join(BUILD_ROOT, "work", "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = runner(["--selftest", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(proc.stdout, end="")
    failures += proc.returncode != 0

    def check(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += not ok

    spec = benchmark_spec()
    listed = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in listed]
    check(len(names) == len(set(names)), "metric names are unique")
    check(all(NAME_RE.match(n) for n in names),
          "metric names fit the name grammar")
    check(all(UNIT_RE.match(m["unit"]) for m in listed),
          "units fit the unit grammar")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the runner's workloads")

    e2e = {m["name"]: {"value": 1.5, "unit": m["unit"]}
           for m in spec["end_to_end"]}
    first = next(iter(e2e))
    check(conform(dict(e2e), spec, "end_to_end") == e2e,
          "a run with every end-to-end metric passes unchanged")
    check(conform({n: m for n, m in e2e.items() if n != first}, spec,
                  "end_to_end") is None,
          "a run missing an end-to-end metric fails")
    check(conform(dict(e2e, **{first: {"value": 0, "unit": e2e[first]["unit"]}}),
                  spec, "end_to_end") is None,
          "an end-to-end metric that reads 0 fails the run")
    check(conform(dict(e2e, **{first: {"value": 1.5, "unit": "furlong"}}),
                  spec, "end_to_end") is None,
          "a metric with another unit fails the run")
    check(conform(dict(e2e, stray={"value": 1.5, "unit": "s"}), spec,
                  "end_to_end") is None,
          "a metric BENCHMARK.json does not name fails the run")
    layer = spec["per_layer"][0]
    got = conform({layer["name"]: {"value": 2.5, "unit": layer["unit"]}},
                  spec, "per_layer")
    check(got is not None
          and list(got) == [m["name"] for m in spec["per_layer"]]
          and got[layer["name"]]["value"] == 2.5
          and all(m["value"] == 0 for n, m in got.items()
                  if n != layer["name"]),
          "per-layer metrics a workload does not measure read 0")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    opts = ap.parse_args()
    if not opts.selftest and not opts.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if opts.selftest:
        return 1 if selftest() else 0

    print(json.dumps({"host": host_record()}))
    result = run_workload(opts)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
