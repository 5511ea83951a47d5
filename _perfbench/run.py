#!/usr/bin/env python3
"""Build the closed-loop replica benchmark from source and run it.

Run from the root of a checkout:

    python3 _perfbench/run.py --workload dense-arena --seed 1 --seconds 20 --trace 0

The Go build, its caches and the benchmark's state (work-digest book, span
traces) stay in the checkout, under $CARGO_TARGET_DIR (default
.bench_build). Every other argument goes to the benchmark binary; see
README.md for what it measures and prints.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, build_root, "perfbench")
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return 1
    run = subprocess.run([exe, "--state", out] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
