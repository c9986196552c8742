"""The strata benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload jh-dynkin --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Each timed pass is a fresh interpreter
(bench/worker.py), because a command-line user starts with cold caches:
a closed loop of one caller, one process, one thread. Passes repeat while
the next one still fits in --seconds; extra set-up-only interpreters
sample the set-up time. Metric names and units come from BENCHMARK.json.
Every reported time is scaled by the pass's calibration factor (see
calibrate.py), which cancels drift in the shared processor's speed; the
unscaled medians are printed alongside.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, including the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Spans of the last traced pass go
to .bench_out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, scales

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("jh-dynkin", "jh-kronecker", "queries-oneoff")
SETUP_SAMPLES = (3, 10)  # set-up-only interpreters per run: at least, at most
PASS_TIMEOUT_S = 150


class HarnessError(Exception):
    pass


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def stamp(seed: int, child: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), **child,
            "nproc": os.cpu_count(), "seed": seed}


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "STRATA_THREADS"}

    def run_pass(self, trace=False, setup_only=False, spans=None) -> dict:
        a = self.args
        cmd = [sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
               "--workdir", str(self.workdir)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += ["--tiny"] * a.tiny + ["--break-oracle"] * a.break_oracle
        if spans is not None:
            cmd += ["--spans", str(spans)]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"a pass ran longer than {PASS_TIMEOUT_S} s") from None
        end = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"pass exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - start
        out["duration_s"] = end - start
        out["scale"] = REFERENCE_S / statistics.median(e - s for s, e in out["calibration"])
        if "windows" in out:
            out["scaled_s"] = [x * k for x, k in zip(out["latencies_s"],
                                                      scales(out["calibration"], out["windows"]))]
        return out


def measure(runner: Runner, seconds: int, trace: bool):
    """Timed (and traced) passes while the next one fits, then set-up samples."""
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    spans = ROOT / ".bench_out" / f"spans-{runner.args.workload}.jsonl"
    while True:
        untraced.append(runner.run_pass())
        if trace:
            traced.append(runner.run_pass(trace=True, spans=spans))
        step = max(p["duration_s"] for p in untraced + traced) * (2 if trace else 1)
        if time.monotonic() + step > deadline:
            break
    setups = []
    low, high = SETUP_SAMPLES
    while len(setups) < low or (len(setups) < high and time.monotonic() + 2 * max(
            p["duration_s"] for p in setups) <= deadline):
        setups.append(runner.run_pass(setup_only=True))
    return untraced, traced, setups


def wall(p, scaled=True) -> float:
    return sum(p["scaled_s" if scaled else "latencies_s"])


def end_to_end(untraced, setups, scaled=True) -> dict:
    key = "scaled_s" if scaled else "latencies_s"
    # every pass makes the same calls: take each call's median over the
    # passes, then the median and p99 over the calls
    latencies = [statistics.median(p[key][i] for p in untraced)
                 for i in range(len(untraced[0][key]))]
    return {
        "setup_s": statistics.median(p["setup_s"] * (p["scale"] if scaled else 1)
                                     for p in untraced + setups),
        "wall_s": statistics.median(wall(p, scaled) for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p99_ms": 1000 * nearest_rank(latencies, 99),
    }


def per_layer(untraced, traced) -> dict:
    def scaled(p, key):
        value = p["layers"][key]
        return value * p["scale"] if key.endswith(("_s", "_ms")) else value

    layers = {k: statistics.median(scaled(p, k) for p in traced) for k in traced[0]["layers"]}
    traced_wall = statistics.median(wall(p) for p in traced)
    untraced_wall = statistics.median(wall(p) for p in untraced)
    elim = layers["exactlin.qq.elim.self_s"] + layers["exactlin.fp.elim.self_s"]
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.trace_overhead"] = traced_wall / untraced_wall - 1
    layers["exactlin.elim.wall_share"] = elim / traced_wall
    return layers


def report_requests(traced):
    """Calls and distinct inputs per top-level call, from the last traced pass."""
    last = traced[-1]
    labels = last["labels"]
    if len(labels) > 8:
        return
    for name, per_req in last["requests"].items():
        for req, (calls, distinct) in sorted(per_req.items(), key=lambda kv: int(kv[0])):
            print(f"  {labels[int(req)]}: {name} calls={calls} distinct={distinct}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the harness self-test")
    ap.add_argument("--break-oracle", action="store_true",
                    help="expect a wrong value in every oracle, for the harness self-test")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running pass and the
    # finally clause below removes the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "strata" / "__init__.py").is_file():
        print(f"error: no strata sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, workdir)
        untraced, traced, setups = measure(runner, args.seconds, bool(args.trace))
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)

    print("stamp " + json.dumps(stamp(args.seed, setups[0]["stamp"]), sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes, {len(setups)} set-up samples, {attempted} calls, "
          f"fail_frac {failed / attempted:.4f}")
    unscaled = end_to_end(untraced, setups, scaled=False)
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items())
          + f"; speed scale {statistics.median(p['scale'] for p in passes + setups):.4f}")
    for i, p in enumerate(passes):
        calib = statistics.median(e - s for s, e in p["calibration"]) * 1000
        print(f"  pass {i + 1}{' traced' if 'layers' in p else ''}: wall_s {wall(p, False):.4g} "
              f"unscaled, calibration {calib:.4g} ms, setup_s {p['setup_s']:.4g}")
    for problem in sorted({f for p in passes for f in p["failures"]})[:5]:
        print("  failure: " + problem.strip().replace("\n", "\n    "))
    if args.trace:
        report_requests(traced)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
