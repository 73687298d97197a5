#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 20 --trace 0

Workloads: list-read, tree-update, kv-zipf (see BENCHMARK.json for why each
was chosen), or `all` to run the three in turn. With --trace 0 the run
prints the end-to-end metrics; with --trace 1 it prints the per-layer
metrics (counters, the layer ladder, trace overhead) and writes the spans
of its traced run to .perfbench_out/<workload>-spans.csv.

The script builds perfbench/hohbench.exe from source with dune into
.perfbench_build (dune cache disabled, so the build writes nothing outside
the checkout), records the source revision as provenance, runs the
workload and relays its output. For one workload the last line of stdout
is the result object. Exit status: 0 when every correctness check passed,
1 when a check failed, 2 on a usage or build error, 3 when the run did not
finish in time, 4 when the output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "hohbench.exe")
WORKLOADS = ["list-read", "tree-update", "kv-zipf"]
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--profile", "release",
           "./perfbench/hohbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, stdin=subprocess.DEVNULL)
    except OSError as e:
        fail(2, "cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail(2, "build failed")


def revision():
    """git revision when the checkout is a repository, plus a digest of the
    sources the benchmark builds from, which identifies any checkout."""
    digest = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             stdin=subprocess.DEVNULL)
        rev = git.stdout.strip() if git.returncode == 0 else "nogit"
    except OSError:
        rev = "nogit"
    return "%s+src.%s" % (rev, digest.hexdigest()[:12])


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, args, rev):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(done.returncode or 1, "%s exited with status %d"
             % (workload, done.returncode))
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(4, "%s metrics differ from BENCHMARK.json: %s"
             % (workload, sorted(set(result["metrics"]) ^ want)))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")
    build()
    rev = revision()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = max(status, run_one(w, args, rev))
    sys.exit(status)


if __name__ == "__main__":
    main()
