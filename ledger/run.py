#!/usr/bin/env python3
"""Build and run the serving-ledger benchmark.

Usage, from the repository root:

    python3 ledger/run.py --workload read_unique --seed 1 --seconds 10 --trace 0

Configures ledger/CMakeLists.txt (which builds the eclipse library from
the repository's sources) into $CARGO_TARGET_DIR/ledger, or
.bench_build/ledger when the variable is unset, builds the ledger_bench
driver, and runs it. The driver's standard output passes through
unchanged; its last line is the result JSON. Build output goes to standard
error. The exit code is the driver's (nonzero when a check failed), or 2
when the sources or the build are missing.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s (the first one in a checkout also builds).
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ledger/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the files that define the measured program and the
    benchmark: the root build file, src/ and ledger/."""
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    """The checked-out commit, read on every run (a sha baked into the build
    at configure time goes stale when one build directory serves several
    commits), with "-dirty" when tracked files differ from it; "unknown"
    when the repository root is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown"
    return sha.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "ledger_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ledger_bench")


def main():
    # ledger_bench validates the values (unknown workload, --seconds out of
    # [1, 600], --trace not 0 or 1: exit 2 without a result).
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: the benchmark builds the program "
                 "from the repository's sources")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "ledger")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    counts_dir = os.path.join(build_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--source-digest", source_digest(), "--git-sha", git_sha(),
               "--counts-dir", counts_dir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # No result line: the partial report goes to standard error.
        sys.stderr.buffer.write(e.stdout or b"")
        print(f"ledger/run.py: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(1)
    sys.stdout.buffer.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
