#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workloads a,b] [--log FILE]

Runs the benchmark once per seed on each workload (from the root of a
checkout) and prints, per metric, the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound is marked
"wide", one above the bound "OVER" (setup_s is exempt: its median, not its
spread, is what a later change is held to). Exits 1 when a run fails, is
incorrect, or a spread is over its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    log = open(args.log, "a") if args.log else None
    bad = False
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(w, seed, bench["run_seconds"], args.trace)
            if log:
                log.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result}) + "\n")
                log.flush()
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect result", file=sys.stderr)
                bad = True
            listed = bench["per_layer" if args.trace else "end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in listed}:
                print(f"{w} seed {seed}: metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                bad = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    mark, bad = "OVER", True
                elif spread > bound / 3:
                    mark = "wide"
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}  {mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
