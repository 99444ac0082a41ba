"""One share of a workload in one process: set-up, the timed loop and the
checks.

Started by ``run.py``; prints one JSON object as its last line, with the
calibrated time of every operation, so that the parent can pool the shares
of several workers.

Times are reported on a calibrated scale.  The speed of the shared machine
drifts by tens of percent within seconds, nearly uniformly for all
pure-Python work, so the worker also times a fixed reference kernel between
operations (outside the timed region).  Each operation's time is scaled by
``REFERENCE_KERNEL_S / median(kernel times nearest to it)``, which gives
seconds on a machine where the kernel takes ``REFERENCE_KERNEL_S``; set-up
is scaled by kernel times taken just before and after it.  The raw times
are reported next to the scaled ones.

The engine and the benchmark's own modules are compiled from source in
every worker, whatever ``__pycache__`` the checkout holds, so that
``setup_s`` does not depend on what an earlier run of Python left behind.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib.machinery as machinery
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

REFERENCE_KERNEL_S = 0.0015  # typical kernel time on the 2-core machine the bounds were set on
CALIBRATE_EVERY_S = 0.05
WINDOW = 7          # kernel samples on each side of an operation


def reference_kernel() -> int:
    """Three small pieces of the engine's kind of work (modular row
    reduction on lists, a tuple-of-tuples matrix product, tuple and dict
    allocation) sharing none of its code.  Several pieces make the kernel
    less sensitive to where one process happens to place its objects."""
    a = [[(i * 7 + j * 13) % 11 - 5 for j in range(20)] for i in range(20)]
    for t in range(20):
        pivot_row = a[t]
        for i in range(t + 1, 20):
            row = a[i]
            q = row[t] - pivot_row[t]
            for k in range(20):
                row[k] = (row[k] - q * pivot_row[k]) % 65521
    m = tuple(tuple((i * 3 + j * 11) % 5 - 2 for j in range(14)) for i in range(14))
    mt = tuple(zip(*m))
    product = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in mt) for row in m)
    table = {}
    for i in range(300):
        key = tuple(range(i % 17))
        table[key] = table.get(key, 0) + len(key)
    return a[-1][-1] + product[-1][-1] + len(table)


class Calibration:
    """Reference-kernel times, each stamped with the moment it was taken."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            reference_kernel()
            elapsed = perf_counter() - start
            self.times.append(start + elapsed / 2)
            self.values.append(elapsed)

    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.values)

    def factor_at(self, moment: float) -> float:
        """Scale for an operation at ``moment``, from the nearest samples."""
        j = bisect.bisect(self.times, moment)
        return REFERENCE_KERNEL_S / statistics.median(self.values[max(0, j - WINDOW):j + WINDOW])


class FromSource(machinery.SourceFileLoader):
    """Reads neither bytecode cache nor writes one: without the source's
    stats, ``get_code`` skips the cache and compiles the source."""

    def path_stats(self, path):
        raise OSError("bytecode cache not used")


def compile_from_source(*dirs: Path) -> None:
    """Import the modules under ``dirs`` with ``FromSource``; every other
    directory, the standard library's too, keeps the usual finder."""
    finder = machinery.FileFinder.path_hook((FromSource, machinery.SOURCE_SUFFIXES))

    def inside(path: str) -> bool:
        resolved = Path(path).resolve()
        return any(d == resolved or d in resolved.parents for d in dirs)

    def hook(path: str):
        if not inside(path):
            raise ImportError(path)
        return finder(path)

    sys.path_hooks.insert(0, hook)
    for path in [p for p in sys.path_importer_cache if inside(p)]:
        del sys.path_importer_cache[path]


def scaled(metrics: dict, factor: float) -> dict:
    out = {}
    for name, (value, unit) in metrics.items():
        if unit == "s" or unit.startswith("s/"):
            value *= factor
        out[name] = (value, unit)
    return out


def main() -> int:
    setup_cal = Calibration()
    setup_cal.sample(WINDOW)
    start = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--hard-cap", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path.insert(0, str(src))
    compile_from_source(src, here)
    import tduality

    if Path(tduality.__file__).resolve().parent != src / "tduality" or not isinstance(tduality.__loader__, FromSource):
        raise SystemExit(f"imported tduality from {tduality.__file__} with {tduality.__loader__}, not from {src}")
    import tracing
    import workloads

    caches = workloads.PackageCaches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        tracer.active = True
    workload = workloads.WORKLOADS[args.workload](args.seed, caches)
    workload.setup()
    gc.collect()
    gc.freeze()
    setup_s = perf_counter() - start
    setup_cal.sample(WINDOW)
    setup_factor = setup_cal.factor()

    if tracer:
        tracer.active = False
        setup_stats, _ = tracer.snapshot()
        setup_cache = caches.counts()
        tracer.reset()
    op_cache = {name: [0, 0] for name in caches.counts()}  # lookups inside the timed operations

    latencies: list[float] = []
    moments: list[float] = []
    failed = incorrect = 0
    problems: list[str] = []
    max_entries = 0
    cal = Calibration()
    cal.sample(WINDOW)
    loop_start = perf_counter()
    index = 0
    while True:
        for op in workload.round(index):
            if tracer:
                before = caches.counts()
                tracer.active = True
            t0 = perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # an engine fault: count it and go on
                out = exc
            latencies.append(perf_counter() - t0)
            moments.append(t0 + latencies[-1] / 2)
            if tracer:
                tracer.active = False
                for name, (hits, misses) in workloads.counts_delta(caches.counts(), before).items():
                    op_cache[name][0] += hits
                    op_cache[name][1] += misses
            if isinstance(out, Exception):
                failed += 1
                problems.append(f"failed: {type(out).__name__}: {out}")
            else:
                try:
                    check, answer = workload.facts(op, out)
                    check(**answer)
                except Exception as exc:  # a wrong or malformed answer
                    incorrect += 1
                    problems.append(f"incorrect: {type(exc).__name__}: {exc}")
            max_entries = max(max_entries, caches.entries())
            workload.reset()
            gc.collect()
            if perf_counter() - cal.times[-1] >= CALIBRATE_EVERY_S:
                cal.sample()
            if perf_counter() - loop_start > args.hard_cap:
                break
        index += 1
        elapsed = perf_counter() - loop_start
        if (elapsed >= args.seconds and len(latencies) >= args.min_ops) or elapsed > args.hard_cap:
            break
    cal.sample(WINDOW)

    calibrated = [dt * cal.factor_at(t) for dt, t in zip(latencies, moments)]
    loop_factor = sum(calibrated) / sum(latencies)
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "incorrect": incorrect,
        "problems": problems[:10],
        "rounds": index,
        "latencies": calibrated,
        "raw_latencies": latencies,
        "setup_s": setup_s * setup_factor,
        "raw_setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "loop_scale": loop_factor,
        "setup_scale": setup_factor,
    }
    if tracer:
        stats, extra = tracer.snapshot()
        cache_counts = {name: tuple(counts) for name, counts in op_cache.items()}
        raw = tracing.layer_metrics(
            stats, extra, cache_counts, len(latencies), sum(latencies), max_entries, setup_stats, setup_cache)
        metrics = scaled({k: v for k, v in raw.items() if k not in tracing.SETUP_METRICS}, loop_factor)
        metrics.update(scaled({k: raw[k] for k in tracing.SETUP_METRICS}, setup_factor))
        result["layers"] = metrics
        result["raw_layers"] = raw
        result["functions"] = {"loop": stats, "setup": setup_stats, "caches": cache_counts}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
