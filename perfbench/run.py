#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's source and run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload read-direct --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and every scratch file live under
.bench_build/ in the checkout, so nothing is written outside it. The
last line of standard output is the result JSON; a failed build exits
non-zero without printing one.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.execve(binary, [binary, "--work", build] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
