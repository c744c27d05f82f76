#!/usr/bin/env python3
"""Runs one fastnet benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the fastnet
library and the fastnet_trace CLI from the repository's sources) into
.bench_build at the repository root, then runs the workload for S seconds of
whole rounds. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones. The last line of standard output is the result; build and
progress messages go to standard error. --selftest builds and runs the
tests of the benchmark's own output checks. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TMP = ROOT / ".bench_tmp"
WORKLOADS = ("maintenance", "election", "calls", "trace_queries")
TARGETS = ("perfbench", "perfbench_traced", "perfbench_spawn", "fastnet_trace")
# A run must end within 180 s; leave room for the build check and clean-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/fastnet_trace_main.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_workload(args):
    program = "perfbench_traced" if args.trace == 1 else "perfbench"
    scratch = TMP / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(BUILD / program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmp", str(scratch),
           "--spawn", str(BUILD / "perfbench_spawn"),
           "--fastnet-trace", str(BUILD / "tools" / "fastnet_trace")]
    # Its own process group, so a timeout or a SIGTERM to this script can
    # stop the query processes too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        fail(f"{program} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{program} printed no result")
    print(lines[-1], flush=True)


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        build(("perfbench_checks_test",))
        sys.exit(subprocess.run([str(BUILD / "perfbench_checks_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build(TARGETS)
    run_workload(args)


if __name__ == "__main__":
    main()
