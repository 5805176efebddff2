#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binary and the span dumps. The last
line of standard output is the JSON result; the exit code is the
benchmark's (non-zero when an output check failed or the build failed).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:] + ["--out", os.path.join(out, "perfbench-out")]
    try:
        run = subprocess.run([binary] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
