#!/usr/bin/env python3
"""Measure a commit with the benchmark and write the figures as one JSON file.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

For every workload of BENCHMARK.json this makes two sets of `--runs` untraced
runs, seeds 1 to `--runs` in each, one set after the other, and then one traced
run per workload.  For each set and end-to-end metric it records the values,
their median and quartiles, and the spread (quartile distance over median)
that the metric's bound must exceed.  `agreement` compares the two sets'
medians: a metric agrees when the second median is not worse than the first
by more than the metric's bound.  `per_layer` holds the traced values.
Compare two such files only when they come from the same machine, which the
`env` stamp identifies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr.strip()}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def _measure_set(bench: dict, names: list, seeds: list, doc: dict) -> dict:
    out = {}
    for name in names:
        values: dict[str, list] = {}
        failed = attempted = 0
        for seed in seeds:
            result, env = _run(name, seed, bench["run_seconds"], 0)
            doc["env"] = {k: v for k, v in env.items() if k != "seed"}
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        end_to_end = {}
        for spec in bench["end_to_end"]:
            v = values[spec["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            end_to_end[spec["name"]] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": spec["bound"], "values": v,
            }
        out[name] = {"attempted": attempted, "failed": failed, "end_to_end": end_to_end}
        print(name + ": " + "  ".join(
            f"{k} median {e['median']:.4g} spread {e['spread']:.3f}"
            for k, e in end_to_end.items()), flush=True)
    return out


def _agreement(bench: dict, first: dict, second: dict) -> dict:
    out = {}
    for name in first:
        out[name] = {}
        for spec in bench["end_to_end"]:
            a = first[name]["end_to_end"][spec["name"]]["median"]
            b = second[name]["end_to_end"][spec["name"]]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            out[name][spec["name"]] = {"first": a, "second": b, "worse_by": worse,
                                       "bound": spec["bound"], "agrees": worse <= spec["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))
    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds}
    doc["sets"] = [_measure_set(bench, names, seeds, doc) for _ in range(SETS)]
    doc["agreement"] = _agreement(bench, doc["sets"][0], doc["sets"][1])
    for name, metrics in doc["agreement"].items():
        print(name + " agreement: " + "  ".join(
            f"{k} {'+' if a['worse_by'] >= 0 else ''}{a['worse_by']:.3f}"
            f"{'' if a['agrees'] else ' (OUTSIDE BOUND)'}" for k, a in metrics.items()), flush=True)
    doc["per_layer"] = {}
    for name in names:
        traced, _ = _run(name, seeds[0], bench["run_seconds"], 1)
        doc["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
