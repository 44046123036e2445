#!/usr/bin/env python3
"""End-to-end benchmark of the LTP repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels|schedule|cold|warm \
        --seed N --seconds S --trace 0|1

Builds the libraries under src/ and the ltp-perfbench binary into
.bench_build/ (CMake, RelWithDebInfo with asserts on, as the repository), runs
one workload in a fresh private directory under .bench_build/runs/ (its
own empty kernel store, socket and TMPDIR), removes that directory, and
prints the binary's output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A traced run also
writes its spans to .bench_build/traces/<workload>-<seed>.json.

See perfbench/README.md for the workloads, metrics and the held-out seed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
# Per-run limits: a run must end within 180 s, the first one (which
# builds) within 900 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    cmake_dir = os.path.join(root, BUILD_DIR, "cmake")
    log_path = os.path.join(root, BUILD_DIR, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", cmake_dir] + generator)
    steps.append(["cmake", "--build", cmake_dir, "--target", "ltp-perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as err:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed: %s" % err)
    return os.path.join(cmake_dir, "ltp-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kernels", "schedule", "cold", "warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of an LTP checkout (%s is missing)"
                 % needed)

    binary = build(root)
    run_dir = os.path.join(root, BUILD_DIR, "runs",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    trace_dir = os.path.join(root, BUILD_DIR, "traces")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=run_dir)
    for inherited in ("LTP_JIT_CACHE_DIR", "LTP_JIT_DISK_CACHE", "LTP_TRACE",
                      "LTP_LOG", "XDG_CACHE_HOME"):
        env.pop(inherited, None)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", run_dir,
               "--trace-file",
               os.path.join(trace_dir,
                            "%s-%d.json" % (args.workload, args.seed))]
    # Own process group, so a timeout also stops the compilers it spawned.
    proc = subprocess.Popen(command, cwd=run_dir, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("ltp-perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    # Every workload reports every metric the manifest lists, in its unit.
    with open(os.path.join(root, "BENCHMARK.json")) as manifest:
        declared = json.load(manifest)["per_layer" if args.trace
                                       else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(n for n in set(got) & set(want)
                                  if got[n] != want[n])))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
