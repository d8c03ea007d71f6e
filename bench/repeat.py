#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads crosscheck,certify --seeds 1-5
    python3 bench/repeat.py --seeds 1-10 --sets 2 --json bench/baseline.json
    python3 bench/repeat.py --seeds 1-3 --trace 1 --json bench/baseline.json

Runs are sequential, one at a time.  A set is one run per seed; with
``--sets 2`` every workload gets two sets back to back, as the acceptance
check of the benchmark runs them.  For every set, workload and metric it
prints the median, the spread (q3 - q1) / median with the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the metric's bound
from BENCHMARK.json; for later sets also the median's ratio to the first
set's.  Every run's verdict digest is printed too: runs of the same code
with the same seed must agree on it.

``--json`` writes the summary under the key ``trace0`` or ``trace1`` of
the file, keeping the other key; ``bench/baseline.json`` is made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines:
        if line.startswith("# digest"):
            notes["digest"] = line.split(": ", 1)[1]
        elif line.startswith("# provenance"):
            notes["provenance"] = json.loads(line.split(" ", 2)[2])
    return json.loads(lines[-1]), notes


def summarise(workload: str, seed_list: list[int], seconds: int, trace: int,
              bounds: dict, first: dict | None) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    provenance = None
    for seed in seed_list:
        result, notes = run_once(workload, seed, seconds, trace)
        provenance = provenance or notes.get("provenance")
        runs.append({"seed": seed, "digest": notes.get("digest", ""),
                     "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"]})
        print(f"{workload} seed={seed} digest={runs[-1]['digest']} correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    rows = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                      "spread": spread, "values": vals}
        line = f"  {name:40s} {med:14.6g} {units[name]:6s} spread {spread:7.2%}"
        bound = bounds.get(name)
        if bound is not None:
            flag = " OK" if spread < bound / 3 else " WIDE" if spread < bound else " OVER"
            line += f" (bound {bound:.0%}){flag}"
        if first is not None and first["metrics"][name]["median"]:
            rows[name]["over_first"] = med / first["metrics"][name]["median"]
            line += f" median/first {rows[name]['over_first']:.3f}"
        print(line, flush=True)
    return {"provenance": provenance, "runs": runs, "metrics": rows}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", metavar="PATH", help="also write the summary here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        sets: list[dict] = []
        for k in range(args.sets):
            print(f"{workload} set {k + 1} of {args.sets}", flush=True)
            sets.append(summarise(workload, seeds(args.seeds), args.seconds, args.trace,
                                  bounds, sets[0] if sets else None))
        summary[workload] = sets
    if args.json:
        doc = {}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc[f"trace{args.trace}"] = {"command": ["python3", "bench/repeat.py"] + sys.argv[1:],
                                     "run_seconds": args.seconds, "workloads": summary}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
