#!/usr/bin/env python3
"""Builds and runs the colored-tree engine benchmark (colorbench).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The engine and the benchmark are compiled from source with CMake into
.bench_build/perfbench (Release) on first use. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, including harness.trace_overhead.<metric>: the traced
value of each end-to-end metric relative to an untraced run of the same
workload (a stored result of the same seed when there is one, else a fresh
untraced run), as (traced - untraced) / untraced.

--self-test builds, then runs every workload once at the generators' tiny
scale with all checks on, and checks that a tampered expected digest fails
the run.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("tpcw-olap", "sigmod-oltp", "tpcw-ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "colorbench")
RESULTS = os.path.join(BUILD, "results")

USAGE = (
    "usage: python3 perfbench/run.py --workload <%s> --seed <n> "
    "--seconds <s> --trace <0|1>\n"
    "       python3 perfbench/run.py --self-test\n" % "|".join(WORKLOADS)
)


def die(msg, code=2):
    sys.stderr.write("run.py: %s\n%s" % (msg, USAGE))
    sys.exit(code)


def parse_args(argv):
    if argv == ["--self-test"]:
        return None
    want = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in want:
            die("unknown argument %r" % flag)
        if want[flag] is not None:
            die("%s given twice" % flag)
        if i + 1 >= len(argv):
            die("%s needs a value" % flag)
        want[flag] = argv[i + 1]
        i += 2
    missing = [f for f, v in want.items() if v is None]
    if missing:
        die("missing %s" % ", ".join(missing))
    if want["--workload"] not in WORKLOADS:
        die("unknown workload %r" % want["--workload"])
    for flag in ("--seed", "--seconds"):
        if not want[flag].isdigit():
            die("%s needs a non-negative integer" % flag)
    if int(want["--seconds"]) < 1:
        die("--seconds must be at least 1")
    if want["--trace"] not in ("0", "1"):
        die("--trace must be 0 or 1")
    return want


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("engine sources (src/) not found next to perfbench/", code=3)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "colorbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            die("build step failed: %s" % " ".join(cmd), code=3)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_bench(args, extra=()):
    """Runs colorbench; echoes its output lines except the result line to
    stdout and returns (exit code, result dict or None, comment lines)."""
    cmd = [BINARY] + list(args) + ["--commit", git_commit()] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    sys.stdout.flush()
    return proc.returncode, result, lines


def stored_untraced(workload, seed):
    path = os.path.join(RESULTS, "%s-%s.json" % (workload, seed))
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def store_untraced(workload, seed, result):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-%s.json" % (workload, seed))
    with open(path + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(path + ".tmp", path)


def measure(opts):
    workload, seed = opts["--workload"], opts["--seed"]
    base = ["--workload", workload, "--seed", seed,
            "--seconds", opts["--seconds"]]
    if opts["--trace"] == "0":
        rc, result, _ = run_bench(base + ["--trace", "0"])
        if rc != 0 or result is None:
            sys.exit(rc or 1)
        store_untraced(workload, seed, result)
        print(json.dumps(result))
        return
    untraced = stored_untraced(workload, seed)
    if untraced is None:
        rc, untraced, _ = run_bench(base + ["--trace", "0"])
        if rc != 0 or untraced is None:
            sys.exit(rc or 1)
        store_untraced(workload, seed, untraced)
    rc, result, lines = run_bench(
        base + ["--trace", "1", "--span-dir",
                os.path.join(BUILD, "spans")])
    if rc != 0 or result is None:
        sys.exit(rc or 1)
    traced = None
    for line in lines:
        if line.startswith("# traced-e2e "):
            traced = json.loads(line[len("# traced-e2e "):])
    if traced is None:
        sys.stderr.write("run.py: traced run printed no end-to-end metrics\n")
        sys.exit(1)
    for name, m in untraced["metrics"].items():
        before = m["value"]
        after = traced[name]["value"]
        result["metrics"]["harness.trace_overhead." + name] = {
            "value": (after - before) / before if before else 0.0,
            "unit": "ratio",
        }
    print(json.dumps(result))


def self_test():
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny",
                    "--span-dir", os.path.join(BUILD, "selftest-spans")]
            rc, result, _ = run_bench(args)
            ok = rc == 0 and result is not None and result["correct"] \
                and result["failed"] == 0 and result["metrics"]
            print("# self-test %s trace=%s: %s" % (workload, trace,
                                                   "ok" if ok else "FAILED"))
            if not ok:
                failures.append("%s trace=%s" % (workload, trace))
        # Negative case: a tampered expected digest must fail the run.
        args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", "0", "--tiny", "--tamper-digest"]
        rc, result, _ = run_bench(args)
        caught = rc != 0 and (result is None or not result["correct"])
        print("# self-test %s tampered digest: %s" % (
            workload, "rejected" if caught else "NOT REJECTED"))
        if not caught:
            failures.append("%s tampered digest" % workload)
    # The command line is strict.
    for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                ["--workload", "tpcw-olap", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--help"]):
        rc = subprocess.call([sys.executable, os.path.abspath(__file__)] + bad,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        print("# self-test rejects %s: %s" % (" ".join(bad),
                                             "ok" if rc != 0 else "FAILED"))
        if rc == 0:
            failures.append("accepted %s" % " ".join(bad))
    if failures:
        sys.stderr.write("run.py: self-test failed: %s\n" % "; ".join(failures))
        sys.exit(1)
    print(json.dumps({"self_test": "ok"}))


def main():
    opts = parse_args(sys.argv[1:])
    build()
    if opts is None:
        self_test()
    else:
        measure(opts)


if __name__ == "__main__":
    main()
