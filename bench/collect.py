"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --workloads jh-dynkin,queries-oneoff --seeds 1-10 \
        --out .bench_out/collect.json

For every workload and end-to-end metric this prints the median over the
seeds and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Runs go one at a time,
so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(next(x for x in lines if x.startswith("stamp "))[6:])
    return result


def summarise(runs, spec) -> dict:
    out = {}
    for m in spec:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        row = {"median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[m["name"]] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="jh-dynkin,jh-kronecker,queries-oneoff")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        summary = summarise(runs, metrics)
        report["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "stamp": runs[0]["stamp"],
            "metrics": summary,
        }
        for m in metrics:
            row = summary[m["name"]]
            limit = m.get("bound")
            line = f"  {m['name']:<40} median {row['median']:.6g} {m['unit']}"
            if "spread" in row:
                line += f"  spread {row['spread']:.4f}"
            if limit is not None and "spread" in row:
                line += f" (bound/3 {limit / 3:.4f}{'' if row['spread'] < limit / 3 else ' EXCEEDED'})"
            print(line, flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
