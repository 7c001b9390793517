#!/usr/bin/env python3
"""Builds and runs the fdpcache benchmark.

    python3 fdpperf/run.py --workload kv-read --seed 1 --seconds 25 --trace 0
    python3 fdpperf/run.py --selftest

Builds fdpperf/ (which compiles the library from src/) into .bench_build/
at the repository root, then runs one workload. The benchmark program
prints its notes as '#' lines and, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics. Spans of a
traced run go to .bench_out/. --selftest runs the harness-equivalence
self-test instead. Exits nonzero, without a result line, when the build or
the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fdpperf")
RUN_TIMEOUT_S = 170
# glibc's malloc asks for transparent huge pages (madvise) on the memory it
# maps. With 4 KiB pages the stack's ~600 MiB of index, items and simulated
# NAND took a page fault in the measured loop for up to one op in seven on
# the first stacks of a run, and a TLB miss on nearly every random access;
# the cost of both swung with the load other guests put on the host.
MALLOC_TUNABLES = "glibc.malloc.hugetlb=1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("fdpperf: no src/ tree next to the benchmark; nothing to build")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
    for attempt in range(2):
        if attempt == 1:
            # A build tree left by another checkout or generator: start over.
            shutil.rmtree(BUILD, ignore_errors=True)
        configured = os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or quiet(configure)
        if configured and quiet(compile_):
            return True
    return False


def source_id():
    """The commit when run from a git work tree, else a digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def run(cmd):
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("fdpperf: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("fdpperf: build failed")
        return 1
    if args.selftest:
        return run([os.path.join(BUILD, "fdpperf_selftest")])
    sys.stdout.flush()
    return run([os.path.join(BUILD, "fdpperf_bench"),
                "--workload=" + args.workload,
                "--seed=%d" % args.seed,
                "--seconds=%d" % args.seconds,
                "--trace=%d" % args.trace,
                "--commit=" + source_id(),
                "--out-dir=" + os.path.join(ROOT, ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
