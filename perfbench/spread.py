#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 1,2,3] [--seconds S] [--trace 0|1]

Runs sequentially from the repository root, one seed at a time, and
prints per metric the median and the interquartile range as a share of
the median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. Exits non-zero if a run fails or
reports correct=false.

It is also the benchmark's determinism check across processes: the
exact counts of the per-layer metrics (--trace 1) must be identical in
every run of the set. On the compile workloads they do not depend on the
seed, so every run is compared. On daemon-edit-query they follow the
seed's edits, so only runs of the same seed are compared: list a seed
twice, as in --seeds 7,7,8,8. A differing count makes the exit non-zero.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

# Per-layer metrics that are exact counts: sizes, pass counters,
# simulated work, the allocation of the sequential layers and the
# incremental engine's and session's work per change.
EXACT_SUFFIXES = (".ir_instrs", ".applied", ".mwords", "_mwords")
EXACT_NAMES = {"sim.instrs", "sim.kcycles", "engine.recomputed_procs",
               "opt.session.reuse_ratio", "opt.oracle.queries",
               "opt.oracle.hit_ratio"}
PER_SEED_WORKLOADS = {"daemon-edit-query"}


def is_exact(name):
    return name in EXACT_NAMES or name.endswith(EXACT_SUFFIXES)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    exact = {}  # (group, metric) -> (seed, value) of the first run
    mismatches = []
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", args.trace]
        t0 = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect")
        group = seed if args.workload in PER_SEED_WORKLOADS else None
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            if is_exact(k):
                first = exact.setdefault((group, k), (seed, v["value"]))
                if first[1] != v["value"]:
                    mismatches.append(f"{k}: seed {first[0]} gave {first[1]!r}, "
                                      f"seed {seed} gave {v['value']!r}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{k:32s} median {med:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
    compared = sum(1 for k in values if is_exact(k))
    if compared:
        print(f"exact counts compared: {compared} metrics, "
              f"{len(mismatches)} differences")
    if mismatches:
        sys.exit("exact counts differ between runs:\n  " + "\n  ".join(mismatches))


if __name__ == "__main__":
    main()
