"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--trace]
        [--setup-only] [--tiny] [--break-oracle] [--spans FILE]

Imports strata from the checkout's `src`, builds the workload's inputs,
then times each call on its own. The last line of stdout is one JSON
object: the monotonic time at which set-up ended, each call's latency and
[start, end) window, failures, peak RSS, the calibration samples as
[start, end) windows (see calibrate.py) and, with --trace, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import strata  # noqa: E402
import sympy  # noqa: E402
from sympy.external.gmpy import GROUND_TYPES  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--break-oracle", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, args.tiny, args.workdir, args.break_oracle)
    ready = time.monotonic()
    result = {
        "ready": ready,
        "stamp": {
            "python": sys.version.split()[0],
            "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES,
            "strata": strata.__version__,
        },
    }
    calibration = [calibrate.timed_run() for _ in range(3)]
    if args.setup_only:
        result["calibration"] = calibration
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    latencies = []
    windows = []
    failures = []
    with calibrate.Sampler(tracer.exclude if tracer is not None else None) as sampler:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            start = time.perf_counter()
            try:
                value = op.call()
                problem = None
            except Exception:  # one failed call must not stop the pass
                problem = traceback.format_exc(limit=3)
            end = time.perf_counter()
            latencies.append(end - start - sampler.inside(start, end))
            windows.append((start, end))
            if problem is None:
                try:
                    problem = op.check(value)
                except Exception:
                    problem = f"oracle raised: {traceback.format_exc(limit=3)}"
            if problem is not None:
                failures.append(f"{op.label}: {problem}")

    calibration += sampler.intervals + [calibrate.timed_run() for _ in range(3)]
    result.update(
        calibration=calibration,
        latencies_s=latencies,
        windows=windows,
        labels=[op.label for op in ops],
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["requests"] = {
            name: tracer.per_request(name)
            for name in ("perpcat.perp_algebra", "repcat.hom_space", "repcat.decompose")
        }
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
