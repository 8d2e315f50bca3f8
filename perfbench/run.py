#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload aot-corpus|aot-large|service-mix \
        --seed N --seconds S --trace 0|1

Build output goes to standard error; the benchmark's own output goes to
standard output, whose last line is the result object.  Exits non-zero
without a result when the checkout holds no compiler sources to build.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
DBDSC = "_build/default/bin/dbdsc.exe"
NEEDED = ["dune-project", "lib/core", "bin/dbdsc.ml"]


def find_dune():
    """dune from PATH, else from the active or any opam switch; the
    toolchain next to it goes first on PATH for the build."""
    found = shutil.which("dune")
    if not found:
        switch = os.environ.get("OPAM_SWITCH_PREFIX")
        candidates = ([os.path.join(switch, "bin", "dune")] if switch else []) + \
            sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        found = next((c for c in candidates if os.access(c, os.X_OK)), None)
    if not found:
        return None, None
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(found) + os.pathsep + env.get("PATH", "")
    return found, env


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: no compiler sources here (missing %s)\n"
                         % ", ".join(missing))
        return 2
    dune, env = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe", "./bin/dbdsc.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    if "service-mix" in sys.argv[1:] and hasattr(os, "sched_setaffinity"):
        # One core for the benchmark, the compile server and the
        # calibration helper (see perfbench/svc.ml).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A session of its own, so a run that overstays is stopped together
    # with the compile server it started.
    proc = subprocess.Popen([BENCH, "--dbdsc", DBDSC] + sys.argv[1:],
                            start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
