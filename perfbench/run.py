#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper256 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ together with the library sources under src/ (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. The benchmark binary then runs with the
pins file perfbench/pins.txt, and a traced run (--trace 1) writes its
Chrome trace-event JSON to .bench_build/traces/. Build output goes to
stderr, so the last stdout line is the binary's JSON result. Exits
non-zero without a result when the build or the run fails.

Extra flags pass through to the binary: --smoke (seconds-sized problems),
--record-pins (print the simulated values as pins.txt lines) and
--saturate (service_mix with every request arriving at once).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under %s/src\n" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def flag_value(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    traces = os.path.join(os.path.dirname(out_dir), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = "%s-seed%s.json" % (flag_value(argv, "--workload", "x"),
                                     flag_value(argv, "--seed", "x"))
    cmd = [os.path.join(out_dir, "perfbench")] + argv
    if "--pins" not in argv:
        cmd += ["--pins", os.path.join(HERE, "pins.txt")]
    if "--trace-out" not in argv:
        cmd += ["--trace-out", os.path.join(traces, trace_file)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
