#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload batch_line --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds the
dnsembed libraries and the perfbench program from source under .bench_build/
(or $CARGO_TARGET_DIR); later calls rebuild only what changed. Build output
goes to stderr; the program's stdout ends with one JSON result line. See
perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the dnsembed sources (src/) are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    command = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
               "--workdir", os.path.join(build_root, "perfbench-work")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"perfbench: build step failed: {error}", file=sys.stderr)
        sys.exit(1)
