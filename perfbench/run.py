#!/usr/bin/env python3
"""Build and run the layered pipesched benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the repository root. The script configures and builds perfbench/
(CMake, Release; the pipesched libraries are compiled from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
perfbench binary with the same arguments. Build output goes to stderr.
The binary's report goes to stdout; its last line is the JSON result. With --trace 1 the
spans of the first traced pass are written, as Chrome trace-event JSON, to
spans-<workload>.json in the build directory.

Exit status: the binary's (0 = every output checked correct), or non-zero
without a result when the sources or the build are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no pipesched sources at %s" %
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = "run"
        if "--workload" in args:
            workload = (args[args.index("--workload") + 1:] or ["run"])[0]
            if not workload.replace("_", "").isalnum():
                workload = "run"
        args += ["--spans",
                 os.path.join(build_dir, "spans-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
