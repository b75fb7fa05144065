#!/usr/bin/env python3
"""Builds the benchmark and runs one workload against the real ptk_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
ptk library, ptk_server and the benchmark's own programs under
.bench_build/perfbench (from the checkout's sources); later runs only
rebuild what changed. Build output goes to standard error.

--trace 0 prints every end-to-end metric; --trace 1 also records the
request stream, replays it in-process with spans on (ptk_replay) and prints
every per-layer metric instead. Either way, the per-op attempted/failed
counts are printed one line each, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/ptk_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("ptk sources not found (%s missing); run from a full checkout"
                 % needed, 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def last_json_line(text, what):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    fail(what + " printed no result")


# Every run ends within 180 s; the build is not counted.
RUN_BUDGET_S = 170


def run_program(argv, what, deadline):
    timeout = max(1, deadline - time.monotonic())
    # Its own process group, so that a timeout also ends the ptk_server
    # processes it started.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %.0f s" % (what, timeout))
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail("%s exited with %d" % (what, proc.returncode))
    return last_json_line(out, what), err


def select(metrics, specs, what):
    """The metrics named in `specs`, checked for presence and unit."""
    out = {}
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            fail("%s did not report %s" % (what, spec["name"]))
        if got["unit"] != spec["unit"]:
            fail("%s reported %s in %s, expected %s"
                 % (what, spec["name"], got["unit"], spec["unit"]))
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="with --trace 1: also replay untraced and report "
                             "the tracing overhead on standard error")
    args = parser.parse_args()
    if args.workload not in ("long_session", "objectives", "serve_mix"):
        fail("unknown workload " + args.workload, 2)

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    end_to_end, per_layer = metric_specs()
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        loadgen = [os.path.join(BUILD, "ptk_loadgen"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--server", os.path.join(BUILD, "ptk_server"),
                   "--dir", run_dir]
        stream = os.path.join(run_dir, "stream.bin")
        if args.trace:
            loadgen += ["--record", stream]
        result, log = run_program(loadgen, "ptk_loadgen", deadline)
        for line in log.splitlines():
            if line.startswith("CHECK FAILED") or "checked against" in line:
                print(line, file=sys.stderr)
        for op, counts in result["ops"].items():
            print("op %-15s attempted %7d failed %d"
                  % (op, counts["attempted"], counts["failed"]))
        correct = bool(result["correct"])
        if args.trace:
            replay = [os.path.join(BUILD, "ptk_replay"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--csv", os.path.join(run_dir, "catalog.csv"),
                      "--stream", stream, "--dir", run_dir,
                      "--spans", os.path.join(ROOT, ".bench_build",
                                              "spans-%s.tsv" % args.workload)]
            if args.overhead:
                replay += ["--overhead", "1"]
            traced, _ = run_program(replay, "ptk_replay", deadline)
            print("replay " + json.dumps(traced["notes"]), file=sys.stderr)
            if args.overhead:
                print("end-to-end (untraced, through the pipe) "
                      + json.dumps(result["metrics"]), file=sys.stderr)
            correct = correct and bool(traced["correct"])
            metrics = select(traced["metrics"], per_layer, "ptk_replay")
        else:
            metrics = select(result["metrics"], end_to_end, "ptk_loadgen")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
