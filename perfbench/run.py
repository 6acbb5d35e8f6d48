#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload lookup_local --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the HABF
library from src/ plus the benchmark) in Release mode under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later calls only
rebuild what changed. The benchmark's output is passed through; its last
line is the result object. Build output goes to stderr.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lookup_local", "serve_query", "serve_mutate")
# One run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(target):
    if not (ROOT / "src" / "core" / "habf.h").is_file():
        fail(f"no HABF sources under {ROOT / 'src'}; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(out), "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return out / target


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()) != ROOT:
            return "unavailable"
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def source_hash():
    """SHA-256 over src/ paths and bytes: names the code when git cannot."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_benchmark(args):
    binary = build("perfbench")
    wal_dir = build_root() / "wal" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--wal-dir", str(wal_dir), "--git-sha", git_sha(),
               "--src-hash", source_hash()]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        shutil.rmtree(wal_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
