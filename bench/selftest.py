"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 bench/selftest.py

Checks, for every workload:
- an untraced and a traced run print every metric of BENCHMARK.json with
  its unit, and every oracle holds on the current tree;
- traced runs see calls made inside the package, not only the ones the
  benchmark makes itself;
- a deliberately wrong expected value in every oracle makes calls fail
  (fail_frac > 0) instead of stopping the harness;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run(root: Path, workload: str, *extra: str):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc, label: str) -> dict:
    require(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec, label: str):
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    require(printed == wanted, f"{label}: metrics/units differ from BENCHMARK.json")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        plain = result_of(run(ROOT, name, "--trace", "0"), f"{name} untraced")
        check_metrics(plain, SPEC["end_to_end"], f"{name} untraced")
        require(plain["correct"] and plain["failed"] == 0, f"{name}: an oracle failed")
        require(all(m["value"] > 0 for m in plain["metrics"].values()),
                f"{name}: an end-to-end metric is not positive")

        traced = result_of(run(ROOT, name, "--trace", "1"), f"{name} traced")
        check_metrics(traced, SPEC["per_layer"], f"{name} traced")
        require(traced["correct"], f"{name}: an oracle failed in the traced run")
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        require(layers["exactlin.qq.elim.calls"] + layers["exactlin.fp.elim.calls"] > 0,
                f"{name}: no elimination call was traced")
        if name.startswith("jh-"):
            # the benchmark itself only calls cli.main
            require(layers["perpcat.perp_algebra.calls"] > 0
                    and layers["strat.stratify_along_sequence.calls"] > 0,
                    f"{name}: calls inside the package were not traced")

        broken = result_of(run(ROOT, name, "--trace", "0", "--break-oracle"), f"{name} broken")
        require(broken["failed"] > 0 and not broken["correct"],
                f"{name}: a wrong oracle value did not raise fail_frac")
        print(f"{name}: ok (fail_frac {broken['failed'] / broken['attempted']:.3f} "
              f"with a wrong oracle)")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, SPEC["workloads"][0]["name"])
    shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "without sources the benchmark did not fail")
    print("without sources: fails as it should")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
