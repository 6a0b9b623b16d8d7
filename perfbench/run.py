#!/usr/bin/env python3
r"""Builds and runs the simulator-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload families_1us --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds the benchmark (and the simulator library
it links) into .bench_build/; later runs rebuild only what changed. The last
line of standard output is the result as one JSON object. See
perfbench/README.md for the workloads and metrics.

    python3 perfbench/run.py --record 0 63 --workload rack_chaos

prints digest lines for perfbench/digests.txt instead.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
DIGESTS = Path("perfbench") / "digests.txt"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_environment():
    # NICSCHED_* variables reshape what run_experiment simulates; the
    # benchmark measures the program as shipped, so it refuses them.
    for name in sorted(os.environ):
        if name.startswith("NICSCHED_"):
            fail(f"refusing to run with {name} set; it changes what "
                 "run_experiment measures", 2)


def build():
    if not (ROOT / "src" / "core" / "testbed.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    env = dict(os.environ)
    tmp = BUILD / "tmp"  # keep compiler temporaries inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main(argv):
    check_environment()
    if "--seconds" in argv:
        index = argv.index("--seconds") + 1
        seconds = int(argv[index]) if index < len(argv) and \
            argv[index].isdigit() else 0
    else:
        seconds = 0
    build()
    command = [str(BINARY)] + argv
    if "--record" not in argv:
        command += ["--digests", str(DIGESTS)]
        timeout = 4 * seconds + 120
    else:
        timeout = None
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
