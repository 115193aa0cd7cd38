#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-inproc --seed 1 --seconds 30 --trace 0

Every file the build writes (binary, Go build cache, temporary files) stays
under .bench_build/ at the repository root. The arguments are passed to the
binary unchanged; its last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s is not a checkout of the repository (no go.mod)\n" % ROOT)
        return 2
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                      ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    # Offline, local-toolchain build: never download a toolchain or module.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOTELEMETRY="off")
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
