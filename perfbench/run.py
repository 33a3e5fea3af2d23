#!/usr/bin/env python3
"""Build the levbench program in Release and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3_grid|security_fuzz|sampled_long \
        --seed N --seconds S --trace 0|1

The program is built from the sources in this checkout into
.bench_build/levbench (configured once, rebuilt incrementally on every
call; build output goes to stderr). Its standard output is passed through
unchanged: the last line is the JSON result. See perfbench/README.md.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "levbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the levbench target; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the benchmark build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "levbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(BUILD_DIR, "levbench")


def revision():
    """The git commit when there is one, plus a digest of the sources the
    program is built from (a benchmark checkout is not a git repository)."""
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit + "+src-" + digest.hexdigest()[:12]


def main():
    binary = build()
    os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--root", ROOT,
                                     "--revision", revision()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
