#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root)::

    python3 bench/repeat.py [--workloads search screen desk] [--seeds 1-10]
                            [--trace 0] [--out FILE]

Reads the command, run length, metrics and bounds from ``BENCHMARK.json``
and runs the command for every workload and seed, one run at a time.  For
each metric it prints the median of the runs and the spread, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound.  ``--out`` writes every
run's values, the summary and each command's median wall time as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    tagged = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            tagged.update(json.loads(line))
    return {"seed": seed, "result": json.loads(lines[-1]), "env": tagged.get("env"),
            "details": tagged.get("details")}


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(spec, workload, s, args.trace) for s in args.seeds]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry = {"env": runs[0]["env"], "attempted": attempted, "failed": failed,
                 "metrics": {}}
        print(f"{workload}: {len(runs)} runs, {attempted} operations, {failed} failed")
        for m in metrics:
            s = summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            entry["metrics"][m["name"]] = s
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "ok" if s["spread"] <= bound / 3 else "WIDE"
                ok &= s["spread"] <= bound
            print(f"  {m['name']:<24} median {s['median']:<12.6g} spread {s['spread']:<8.4f}"
                  f" bound {bound if bound is not None else '-':<6} {flag}")
        walls = {}
        for r in runs:
            for label, d in r["details"]["by_op"].items():
                walls.setdefault(label, []).append(d["wall_p50_s"])
        entry["op_wall_p50_s"] = {label: statistics.median(v) for label, v in walls.items()}
        ok &= failed == 0
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
