#!/usr/bin/env python3
"""Build the end-to-end Q-BEEP benchmark from source and run it.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go toolchain's cache, the binary and the traced run's spans all go to
.bench_build/ under the repository root, so nothing is written outside it.
The benchmark's arguments are passed through unchanged; see README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")


def source_digest():
    """SHA-256 over the Go sources and module files, standing in for a
    commit hash when the tree is not a git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    return proc.returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("e2ebench: no go.mod at %s; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 1
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, E2EBENCH_SOURCE=source_digest())
    os.chdir(ROOT)
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
