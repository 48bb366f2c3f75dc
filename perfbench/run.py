#!/usr/bin/env python3
"""Builds the wdr benchmark program from this checkout's sources, runs it.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-sat --seed 1 --seconds 30 --trace 0

Workloads: fig3-sat, fig3-ref, server-mix. The first run configures and
builds into .bench_build/perfbench (Release); later runs rebuild only what
changed. Build output goes to stderr, so the last line of standard output
is the program's result object. The exit status is the program's, or 1 when
the build fails.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "wdr_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def main():
    program = build()
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    source = {"commit": commit(), "source_sha256": source_digest()}
    print("source " + json.dumps(source), flush=True)
    return subprocess.run([program] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
