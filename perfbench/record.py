#!/usr/bin/env python3
"""Records benchmark runs into perfbench/results/<workload>.json.

Run from the repository root:

    python3 perfbench/record.py --seeds 101-110 [--trace-seed 7919] [workload ...]

For each workload it runs the untraced benchmark once per seed, one after
another, and stores every run's environment and metrics together with each
end-to-end metric's median and quartile spread (the distance between the
first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them). With --trace-seed it also
stores one traced run's per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    return detail, json.loads(lines[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="e.g. 101-110")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    os.makedirs(os.path.join(ROOT, "perfbench", "results"), exist_ok=True)
    for wl in args.workloads:
        runs = []
        for s in seeds(args.seeds):
            detail, res = run(wl, s, bench["run_seconds"], 0)
            untraced = detail["detail"]["untraced"]
            runs.append({"environment": detail["environment"], "result": res,
                         "classes": untraced["classes"],
                         "latency_tail": untraced["latency_tail_ms"],
                         "first_failures": untraced["first_failures"]})
            print(wl, s, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, file=sys.stderr)
        summary = {}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            summary[m["name"]] = {"median": med, "spread": (q[2] - q[0]) / med, "bound": m["bound"]}
        doc = {"workload": wl, "run_seconds": bench["run_seconds"], "summary": summary, "runs": runs}
        if args.trace_seed is not None:
            detail, res = run(wl, args.trace_seed, bench["run_seconds"], 1)
            doc["traced"] = {"environment": detail["environment"], "result": res}
        with open(os.path.join(ROOT, "perfbench", "results", wl + ".json"), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(wl, json.dumps(summary), file=sys.stderr)


if __name__ == "__main__":
    main()
