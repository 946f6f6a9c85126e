#!/usr/bin/env python3
"""Build the layered benchmark from source and run it.

Run from the root of a checkout:

    python3 layerbench/run.py --workload suite-sim --seed 1 --seconds 10 --trace 0

The arguments go to layerbench/main.exe unchanged (see README.md).  The
script exits non-zero without running anything when the current
directory is not a checkout of the compiler sources.
"""

import os
import subprocess
import sys


def commit():
    """The checkout's git revision, or "unknown" outside a git work tree.

    The search for a repository stops at the current directory, so an
    enclosing repository is never reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "layerbench: no dune-project and lib/ here; run from the root of a checkout\n"
        )
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./layerbench/main.exe"], stdout=sys.stderr
        )
    except OSError as e:
        sys.stderr.write(f"layerbench: cannot run dune: {e}\n")
        return 2
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "layerbench", "main.exe")
    # One CPU for the benchmark and its reference-work helper, so that the
    # reference work measures the speed of the CPU the ops run on.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    cpus = f"nproc {len(allowed)}, pinned to cpu {cpu}"
    os.execv(exe, [exe, *sys.argv[1:], "--commit", commit(), "--cpus", cpus])


if __name__ == "__main__":
    sys.exit(main())
