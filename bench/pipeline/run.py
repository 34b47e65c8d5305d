#!/usr/bin/env python3
"""Build bench_pipeline from this checkout's sources, then run it.

Run from the repository root:

    python3 bench/pipeline/run.py --workload steady64 --seed 1 --seconds 20 --trace 0

Every argument is passed to the bench_pipeline binary (see main.cpp). The
build goes to $CARGO_TARGET_DIR/pipeline/build (default
.bench_build/pipeline/build); models, BENCH_pipeline.json and
TRACE_<workload>.json go to .../pipeline/out. Build output goes to stderr, so
the binary's last stdout line (the JSON result) is the last line printed.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print(f"run.py: no vcaqoe sources under {root}; nothing to build",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = os.path.join(root, target, "pipeline")
    build = os.path.join(base, "build")
    tmp = os.path.join(base, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)

    def step(cmd):
        return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr).returncode

    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    fresh = not os.path.isfile(os.path.join(build, "CMakeCache.txt"))
    if fresh and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if step(configure) != 0:
        return 1
    jobs = str(os.cpu_count() or 1)
    if step(["cmake", "--build", build, "--target", "bench_pipeline",
             "-j", jobs]) != 0:
        return 1

    command = [os.path.join(build, "bench_pipeline"),
               "--spec", os.path.join(root, "BENCHMARK.json"),
               "--out", os.path.join(base, "out"), *sys.argv[1:]]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
