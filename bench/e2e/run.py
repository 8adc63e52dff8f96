#!/usr/bin/env python3
"""Build wrt_bench from this checkout and run one of its workloads.

Usage, from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds bench/e2e (a CMake package of its own
that compiles the simulator under src/) into bench/e2e/.build/wrt_bench;
later calls only let the build tool confirm it is up to date.  Build output
goes to standard error, so the last line of standard output is wrt_bench's
result object.  --trace 1 makes wrt_bench add a traced pass, report the
per-layer metrics and write the spans to bench/e2e/.build/trace-NAME.json.
The exit status is non-zero, with no result printed, when the build or the
run fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / ".build" / "wrt_bench"


def build() -> pathlib.Path:
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "wrt_bench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr,
                       stdin=subprocess.DEVNULL, env=env)
    return BUILD / "wrt_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--trace={BUILD.parent / f'trace-{args.workload}.json'}")
    return subprocess.run(command, cwd=ROOT, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
