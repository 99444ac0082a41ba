"""Benchmark of the tduality engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the engine is imported from
``src/``).  Workloads: simplicial-cohomology, bundle-duality, borel-cli (see
README.md).

``--trace 0`` runs the workload in ``WORKERS`` worker processes in turn,
each a fresh interpreter that sets up and then measures ``S / WORKERS``
seconds; the operations of all of them are pooled.  A single process
carries a speed bias of several percent from where its objects happen to
lie in memory, so pooling several processes steadies the figures.
``setup_s`` and ``peak_rss_mb`` are medians over the workers.

``--trace 1`` runs one traced worker for ``S`` seconds, reports the
per-layer metrics instead, and writes the raw per-function table (calls,
inclusive and self seconds) to ``perfbench/results/``.

Times are on the calibrated scale described in worker.py; the readable
lines show the raw values too.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the checkout has no engine source, or a worker fails
or overruns its time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("simplicial-cohomology", "bundle-duality", "borel-cli")
WORKERS = 4
MIN_OPS = 100  # enough operations for a 90th percentile with ten beyond it
# A worker may run this long, or three times its seconds, to reach its share
# of MIN_OPS before it stops, even inside a round; only a program far slower
# than the one the bounds were set on gets there.
HARD_CAP_S = 22.5
SETUP_ALLOWANCE_S = 20  # a worker's time beyond its hard cap before it is killed


class BenchError(Exception):
    pass


def run_worker(root: Path, argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {timeout:.0f} s: {' '.join(argv)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(latencies: list[float], setups: list[float], rss: list[float]) -> dict:
    return {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "tduality" / "__init__.py").is_file():
        print(f"no engine source under {root / 'src'}", file=sys.stderr)
        return 2
    workers = 1 if args.trace else WORKERS
    seconds = args.seconds / workers
    hard_cap = max(HARD_CAP_S, 3 * seconds)
    share = ["--seconds", str(seconds), "--hard-cap", str(hard_cap), "--min-ops", str(math.ceil(MIN_OPS / workers))]
    try:
        shares = [
            run_worker(root, ["--workload", args.workload, "--seed", str(args.seed + 1000 * i),
                              "--trace", str(args.trace), *share], hard_cap + SETUP_ALLOWANCE_S)
            for i in range(workers)
        ]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    def pooled(key):
        return [x for s in shares for x in s[key]]

    setups = [s["setup_s"] for s in shares]
    rss = [s["peak_rss_mb"] for s in shares]
    if args.trace:
        (only,) = shares
        metrics, raw = only["layers"], only["raw_layers"]
        out = root / "perfbench" / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        fields = ("functions", "loop_scale", "setup_scale", "attempted")
        out.write_text(json.dumps({k: only[k] for k in fields}, indent=1, sort_keys=True))
    else:
        metrics = end_to_end(pooled("latencies"), setups, rss)
        raw = end_to_end(pooled("raw_latencies"), [s["raw_setup_s"] for s in shares], rss)
    attempted = sum(s["attempted"] for s in shares)
    failed = sum(s["failed"] for s in shares)
    correct = not any(s["incorrect"] for s in shares)
    for problem in pooled("problems"):
        print(problem, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} workers={workers} attempted={attempted} failed={failed} "
          f"correct={correct} rounds={sum(s['rounds'] for s in shares)} loop_scale="
          + ",".join(f"{s['loop_scale']:.3f}" for s in shares))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:<12.6g} {unit:9s} raw {raw[name][0]:.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
