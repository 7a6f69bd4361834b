#!/usr/bin/env python3
"""End-to-end benchmark of SC-MD (see BENCHMARK.json).

Builds perfbench/ (which compiles the library from ../src) on first use,
then runs one workload and passes its output through; the last line is
the JSON result.

    python3 perfbench/run.py --workload serial_cached --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --selftest                             # gate self-checks

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ at the
repository root; checkpoint files of the TCP workload go to its scratch/
subdirectory.  Exit status: 0 when every correctness check passed, 1 when
one failed, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serial_cached", "inproc4_cached", "tcp4_twophase", "serve_jobs"]
# Slack beyond --seconds for set-up, the last operation and the
# correctness runs; a run still going then has a hung rank and is killed.
KILL_SLACK_S = 150


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configure once, then (re)build `target`; returns the binary path."""
    bdir = os.path.join(build_dir(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    configured = os.path.join(bdir, "configured.stamp")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                sys.exit(2)
            if cmd[1] == "-S":
                open(configured, "w").close()
    return os.path.join(bdir, target)


def run_workload(binary, workload, seed, seconds, trace):
    scratch = os.path.join(build_dir(), "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + KILL_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish\n" % workload)
        sys.exit(2)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("run.py: %s printed no result (exit %d)\n"
                         % (workload, proc.returncode))
        sys.exit(2)
    return proc.stdout, result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench_e2e")
    if args.workload != "all":
        out, _, code = run_workload(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    failed = False
    for w in WORKLOADS:
        out, result, code = run_workload(binary, w, args.seed, args.seconds,
                                         args.trace)
        print("== %s (seed %d, %g s, trace %d)" % (w, args.seed, args.seconds,
                                                   args.trace))
        sys.stdout.write("\n".join(out.rstrip("\n").split("\n")[:-1]) + "\n")
        failed = failed or code != 0 or not result["correct"]
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
