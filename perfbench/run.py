#!/usr/bin/env python3
"""Build and run the splice benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload one-crash --seed 71 --seconds 20 --trace 0
    python3 perfbench/run.py                       # every workload, default seed

The first run configures and builds perfbench/ (which builds splice_core
from the checkout's own sources) into .bench_build/ in Release mode; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Every argument is passed to
the benchmark binary; see perfbench/README.md for workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "splice_perfbench")


def build():
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "splice_perfbench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", BUILD]
    return subprocess.run([BINARY] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
