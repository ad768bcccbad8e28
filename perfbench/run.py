#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload revisions|archive|service \
        --seed N --seconds S --trace 0|1 --service-rate R [--small]

Builds perfbench/main.exe and the treediff binary with dune, then runs the
benchmark pinned to one CPU; the daemon it spawns inherits the pin.  One
core for both processes keeps their placement, and so the daemon's
capacity, the same from run to run.  The last
line of standard output is the result object; build output goes to
standard error.  Exits non-zero without a result when the checkout cannot
be built, and with the benchmark's own code otherwise (1 on any wrong
output).
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = "_build/default"
TARGETS = ["perfbench/main.exe", "bin/treediff_cli.exe"]
WORK_DIR = ".perfbench_work"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def git_rev(root):
    # Stop at the checkout: an exported tree must not pick up a parent's repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest(root):
    """SHA-256 over the library, binaries and benchmark sources."""
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv):
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        return fail("run from the root of a treediff checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    env = dict(os.environ,
               PERFBENCH_GIT_REV=git_rev(root),
               PERFBENCH_SOURCE_DIGEST=source_digest(root),
               PERFBENCH_NPROC=str(os.cpu_count()))
    cmd = [os.path.join(BUILD_DIR, TARGETS[0])] + argv + [
        "--treediff", os.path.join(BUILD_DIR, TARGETS[1]),
        "--work", WORK_DIR,
    ]
    proc = subprocess.Popen(cmd, env=env, preexec_fn=pin_to_one_cpu)
    # Pass a stop request on, so the benchmark stops its daemon and exits.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: proc.terminate())
    try:
        return proc.wait()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
