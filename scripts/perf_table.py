#!/usr/bin/env python3
"""Print the table of one committed parent/change comparison under docs/perf/.

Usage, from the repository root:

  python3 scripts/perf_table.py docs/perf/NAME
  python3 scripts/perf_table.py --host > docs/perf/NAME/host.json

A comparison directory holds host.json, the fingerprint of the host the
runs were taken on (--host prints this host's, from bench/e2e/baseline.py;
it refuses until run.py has configured bench/e2e/.build/wrt_bench, and
outside a git clone, where the fingerprint would name no commit),
and runs.jsonl: one object per run.py result line, {"workload", "seed",
"side": "parent" | "change", "result": <the line>}.  The parent and change
runs of one workload and seed form a pair.

For each workload and end-to-end metric of BENCHMARK.json the table gives
each side's median and quartiles, how many pairs the change won, and a
verdict: "worse" when the change's median is worse than the parent's by
more than the metric's bound (a share of the parent's median), "gain" when
the change won at least nine pairs in ten and the medians differ by more
than the parent's interquartile distance.  The exit status is 1 when any
metric is worse, or when a run failed an operation or its output check.
"""
import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/e2e
sys.path.insert(0, str(ROOT / "bench" / "e2e"))
from baseline import CACHE, fingerprint, summarize  # noqa: E402


def load_pairs(directory: pathlib.Path) -> tuple:
    """({workload: {seed: {side: metrics}}}, [runs that failed]) from
    runs.jsonl."""
    pairs = {}
    broken = []
    for line in (directory / "runs.jsonl").read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        result = run["result"]
        if not result["correct"] or result["failed"]:
            broken.append(f"{run['side']} {run['workload']} seed {run['seed']}")
        pairs.setdefault(run["workload"], {}).setdefault(
            run["seed"], {})[run["side"]] = result["metrics"]
    return pairs, broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=pathlib.Path)
    parser.add_argument("--host", action="store_true",
                        help="print this host's fingerprint as JSON")
    args = parser.parse_args()
    if args.host:
        # The compiler and build type come from the benchmark's own build.
        if not CACHE.is_file():
            print(f"perf_table.py: no {CACHE.relative_to(ROOT)}, so this "
                  "host's compiler and build type are unknown; run "
                  "python3 bench/e2e/run.py first", file=sys.stderr)
            return 1
        host = fingerprint()
        # The commit comes from `git rev-parse` in this checkout.
        if host["git_rev"] == "unknown":
            print(f"perf_table.py: {ROOT} is not a git clone, so host.json "
                  "would name no commit; run --host in a git clone whose "
                  "python3 bench/e2e/run.py build is configured (the "
                  "parent's clone of the comparison)", file=sys.stderr)
            return 1
        print(json.dumps(host, indent=1))
        return 0
    if args.directory is None:
        parser.error("a comparison directory is required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs, broken = load_pairs(args.directory)
    host = json.loads((args.directory / "host.json").read_text())
    print(f"host: {host.get('cpu_model')}, {host.get('nproc')} CPUs, "
          f"{host.get('compiler_version')}, {host.get('build_type')}")
    print(f"{'workload':15} {'metric':15} {'bound':>5} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>6} verdict")
    worse = False
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = [s for s, sides in pairs.get(workload, {}).items()
                 if {"parent", "change"} <= sides.keys()]
        if len(seeds) < 2:
            print(f"{workload:15} fewer than two pairs")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            runs = pairs[workload]
            parent = summarize([runs[s]["parent"][name]["value"] for s in seeds])
            change = summarize([runs[s]["change"][name]["value"] for s in seeds])
            wins = sum(
                (runs[s]["change"][name]["value"] > runs[s]["parent"][name]["value"])
                if higher else
                (runs[s]["change"][name]["value"] < runs[s]["parent"][name]["value"])
                for s in seeds)
            # How much better the change's median is; negative when worse.
            gain = change["median"] - parent["median"]
            if not higher:
                gain = -gain
            verdict = ""
            if -gain > bound * abs(parent["median"]):
                verdict = "worse"
                worse = True
            elif (wins >= 0.9 * len(seeds) and
                  gain > parent["q3"] - parent["q1"]):
                verdict = "gain"
            cells = " ".join(
                f"{side['q1']:9.4g}/{side['median']:9.4g}/{side['q3']:9.4g}"
                for side in (parent, change))
            print(f"{workload:15} {name:15} {bound:5.3g} {cells} "
                  f"{wins:>3}/{len(seeds):<2} {verdict}")
    for run in broken:
        print(f"failed run: {run}")
    return 1 if worse or broken else 0


if __name__ == "__main__":
    sys.exit(main())
