"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/steady.py --runs 10 [--workloads mub-orders,...] [--out bench/baseline.json]

Runs ``bench/run.py`` once per seed and workload, one run at a time and
seed by seed, with the command and run length from BENCHMARK.json, then one
traced run per workload.  For each end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median against the metric's bound; a spread above a third of the
bound is marked.  The unreferred figures each run prints next to its
metrics are summarized the same way, to show what the host did.
``--out`` writes the environment, every value and the traced per-layer
numbers to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload: str, seed: int, trace: int):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    env = json.loads(lines[0][len("env ") :])
    return env, raw_figures(lines), json.loads(lines[-1])


def raw_figures(lines) -> dict:
    """The "unreferred" line of an untraced run, as {name: value}."""
    line = next((line for line in lines if line.startswith("unreferred")), None)
    if line is None:
        return {}
    pairs = line.split(": ", 1)[1].replace(";", ",").split(", ")
    return {name: float(value) for name, value in (pair.rsplit(" ", 1) for pair in pairs)}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--out", default=None, help="write the record here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    # seeds in the outer loop, so each workload's runs spread over the whole
    # sweep and a slow spell of the host falls on every workload alike
    results = {name: [] for name in names}
    raws = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            env, raw, result = run(spec, name, seed, trace=0)
            results[name].append(result)
            raws[name].append(raw)
    record["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
    for name in names:
        entry = {"attempted": sum(r["attempted"] for r in results[name]),
                 "failed": sum(r["failed"] for r in results[name]), "end_to_end": {}}  # fmt: skip
        print(f"{name}: {args.runs} runs, failed {entry['failed']} of {entry['attempted']} checks")
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in results[name]])
            entry["end_to_end"][metric["name"]] = stats
            flag = "" if stats["spread"] <= metric["bound"] / 3 else "  <-- above bound/3"
            print(
                f"  {metric['name']:14s} median {stats['median']:.6g} {metric['unit']:5s} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                f"(bound {metric['bound']}){flag}"
            )
        entry["raw"] = {key: summarize([raw[key] for raw in raws[name]]) for key in raws[name][0]}
        print("  raw: " + ", ".join(f"{key} median {v['median']:.6g} spread {v['spread']:.4f}" for key, v in entry["raw"].items()))
        _, _, traced = run(spec, name, seeds[0], trace=1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
