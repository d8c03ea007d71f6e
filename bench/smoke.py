#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

For every workload in BENCHMARK.json, a one-second run with ``--trace 0``
must print exactly the end-to-end metrics with their units, and one with
``--trace 1`` exactly the per-layer metrics; both must report no failed
op.  A copy of the benchmark without the package sources must exit
non-zero without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_run(workload: str, trace: int, wanted: dict[str, str]) -> list[str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = last_json(proc.stdout)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                        f" attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {units}")
    return problems


def check_bare_copy() -> list[str]:
    """The benchmark alone, without src/ or tests/, must refuse to run."""
    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                               "--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = check_bare_copy()
    for w in spec["workloads"]:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            found = check_run(w["name"], trace, wanted)
            print(f"{'FAIL' if found else 'ok  '} {w['name']} --trace {trace}", flush=True)
            problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
