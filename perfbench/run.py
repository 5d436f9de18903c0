#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite|serve|sweep --seed N \
        --seconds S --trace 0|1 [--small]

Run from the root of a source tree.  The last line of standard output is
the result object ({"correct", "attempted", "failed", "metrics"}); the
lines before it record the environment and print every metric by name
with its unit.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
EXE = "_build/default/perfbench/perfbench.exe"
DPCD = "_build/default/bin/dpcd.exe"


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_identity(root):
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-md5:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["suite", "serve", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-test")
    ap.add_argument("--write-expect", action="store_true",
                    help="regenerate perfbench/expect/<workload>.json")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("dune-project", "lib", "bin", "ci/experiments_baseline.json"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a source tree" % need, 3)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH", 3)
    try:
        built = subprocess.run(
            [dune, "build", "--root", ".", "./" + EXE, "./" + DPCD],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if built.returncode != 0:
        die("build failed")

    cmd = [os.path.join(".", EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dpcd", os.path.join(".", DPCD),
           "--commit", source_identity(root)]
    if args.small:
        cmd.append("--small")
    if args.write_expect:
        cmd.append("--write-expect")
    # A session of its own, so a timeout also stops the dpcd children.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
