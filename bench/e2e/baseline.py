#!/usr/bin/env python3
"""Run two sets of wrt_bench runs and write them, with a host fingerprint, as JSON.

Usage, from the repository root:

  python3 bench/e2e/baseline.py --out bench/e2e/baseline.json

Each set runs every workload of BENCHMARK.json once per seed in SEEDS,
untraced, for BENCHMARK.json's run_seconds, through run.py; both sets use the
same seeds.  Per workload and end-to-end metric the file keeps every value,
the median and the quartiles (statistics.quantiles, n=4), and the spread:
the distance between the quartiles as a share of the median.  The simulated
metrics (DETERMINISTIC) must repeat exactly between the sets, seed by seed;
the exit status is 1 when they do not.  The table printed at the end shows
each set's median and spread beside the bound in BENCHMARK.json.
"""
import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CACHE = HERE / ".build" / "wrt_bench" / "CMakeCache.txt"
SETS = 2
SEEDS = range(1, 11)
DETERMINISTIC = ("rt_ontime_frac", "goodput")


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in CACHE.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "compiler_version": subprocess.run(
            [cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
            capture_output=True, text=True).stdout.splitlines()[0],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_rev": rev.stdout.strip() if rev.returncode == 0 else "unknown",
    }


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(SETS):
        runs = {}
        for workload in workloads:
            for seed in SEEDS:
                result = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True)
                if result.returncode != 0:
                    print(result.stdout, result.stderr, file=sys.stderr)
                    print(f"{workload} seed {seed} failed", file=sys.stderr)
                    return 1
                line = json.loads(result.stdout.strip().splitlines()[-1])
                if not line["correct"] or line["failed"]:
                    print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
                    return 1
                runs.setdefault(workload, []).append(line["metrics"])
                print(f"set {s} {workload} seed {seed} done", file=sys.stderr)
        sets.append({
            workload: {name: summarize([r[name]["value"] for r in results])
                       for name in results[0]}
            for workload, results in runs.items()})

    repeated = all(st[w][name]["values"] == sets[0][w][name]["values"]
                   for st in sets for w in workloads for name in DETERMINISTIC)
    doc = {"host": fingerprint(), "run_seconds": seconds, "seeds": list(SEEDS),
           "deterministic_repeated": repeated, "sets": sets}
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{'workload':16} {'metric':16} {'bound':>6} " +
          " ".join(f"{'median' + str(s):>12} {'spread' + str(s):>8}"
                   for s in range(SETS)))
    for workload in workloads:
        for name, bound in bounds.items():
            cells = " ".join(
                f"{st[workload][name]['median']:12.6g} "
                f"{st[workload][name]['spread']:8.4f}" for st in sets)
            print(f"{workload:16} {name:16} {bound:6.2f} {cells}")
    if not repeated:
        print("deterministic metrics differ between sets", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
