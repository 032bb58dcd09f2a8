#!/usr/bin/env python3
# Copyright 2026 The OCTOPUS Reproduction Authors
"""End-to-end benchmark of the OCTOPUS query service.

Builds `octopus_cli` and the load generator from this source tree (Release,
into $CARGO_TARGET_DIR or .bench_build/), then runs one workload against a
child `octopus_cli serve` and passes the load generator's report through.
The last stdout line is the JSON result.

    python3 octobench/run.py --workload lockstep --seed 1 --seconds 10 --trace 0
    python3 octobench/run.py --smoke     # the benchmark's own test

See octobench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the load generator's own budget, build excluded


def fail(message, code=2):
    print("octobench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once and builds incrementally; returns the binaries."""
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "octopus_cli", "octobench_loadgen"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                fail("build failed: " + " ".join(cmd) + " (log: " + log_path + ")")
    return (os.path.join(cmake_dir, "octopus", "octopus_cli"),
            os.path.join(cmake_dir, "octobench_loadgen"))


def describe_commit():
    """`git describe --always --dirty`, or a hash of the sources when the
    tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "octobench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "no-git-sources-sha256-" + digest.hexdigest()[:16]


def run_workload(binaries, out, workload, seed, seconds, trace, commit):
    """Runs the load generator once; returns (exit code, stdout, work dir)."""
    cli, loadgen = binaries
    work = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    artifacts = os.path.join(out, "artifacts", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(artifacts, exist_ok=True)
    cmd = [loadgen, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", cli,
           "--work-dir", work, "--out-dir", artifacts, "--commit", commit]
    # Own session, so a timeout can kill the generator and its servers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("timed out after %d s" % RUN_TIMEOUT_S, 3)
    leftovers = sorted(os.listdir(work))
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, stdout, leftovers


def smoke(binaries, out, commit):
    """Each workload briefly, untraced and traced: every metric named in
    BENCHMARK.json is printed with its unit and a finite value, answers
    check out, and no server or sidecar outlives the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            code, stdout, leftovers = run_workload(binaries, out, workload, 1, 1, trace, commit)
            label = "%s trace %d" % (workload, trace)
            lines = stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(label + ": no JSON result line")
                continue
            if code != 0:
                problems.append(label + ": exit code %d" % code)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(label + ": result keys %s" % sorted(result))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(label + ": correct=%s failed=%s" %
                                (result.get("correct"), result.get("failed")))
            if "self-test (corrupted answer) caught: yes" not in stdout:
                problems.append(label + ": correctness self-test did not run or failed")
            metrics = result.get("metrics", {})
            names = [m["name"] for m in expected[trace]]
            if sorted(metrics) != sorted(names):
                problems.append(label + ": metric names differ from BENCHMARK.json")
            for m in expected[trace]:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(label + ": %s = %s" % (m["name"], got))
            if leftovers:
                problems.append(label + ": left files behind: %s" % leftovers)
            servers = [pid for pid in os.listdir("/proc") if pid.isdigit()
                       and _cmdline(pid).startswith(binaries[0])]
            if servers:
                problems.append(label + ": server process(es) still running: %s" % servers)
            print("smoke %-22s %s" % (label, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("OK" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def _cmdline(pid):
    try:
        with open("/proc/%s/cmdline" % pid, "rb") as f:
            return f.read().split(b"\0")[0].decode(errors="replace")
    except OSError:
        return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["lockstep", "outofcore", "history"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no OCTOPUS source tree next to " + HERE)
    out = build_root()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build/run per build dir
        binaries = build(out)
        commit = describe_commit()
        if args.smoke:
            return smoke(binaries, out, commit)
        code, stdout, leftovers = run_workload(binaries, out, args.workload, args.seed,
                                               args.seconds, args.trace, commit)
    if leftovers:
        fail("the run left files behind: %s" % leftovers, 1)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
