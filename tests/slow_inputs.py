"""Run the slowest admitted inputs, each in a child process with bounded memory.

    python tests/slow_inputs.py

Writes four model files that the input bounds admit and that take the
engine seconds, not milliseconds:

* ``verify`` on the strip of 498 triangles ``i,i+1,i+2`` with a zero bundle;
* ``verify`` on 500 disjoint edges with a zero bundle;
* ``cohom`` on one dense 160 x 160 coboundary, its entries drawn from
  ``{-1, 0, 1}`` by ``random.Random(160)``;
* ``verify --all`` on a ``multi_monopole`` at the Borel bounds,
  ``borel.MAX_CHARGES = 20`` charges just below 10^6 at
  ``borel.MAX_TRUNCATION = 199``.

Each runs as ``python -m tduality`` with ``src`` on ``PYTHONPATH``, under a
1.5 GB address-space limit set in that child only, and a ``TIMEOUT`` of
120 s.  One line per input gives its time and exit code.  The script exits
1 when any input crashes, exits other than 0, writes a traceback or runs out
of time.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1536 * 2**20
TIMEOUT = 120


def _zero_bundle_model(facets: list[tuple[int, ...]]) -> str:
    listed = ";".join(",".join(map(str, f)) for f in facets)
    return (f"[complex k]\nkind = simplicial\nfacets = {listed}\n"
            "[bundle b]\nbase = k\neuler = 0\n")


def _dense_model(size: int) -> str:
    rng = random.Random(size)
    rows = ";".join(",".join(str(rng.choice((-1, 0, 1))) for _ in range(size))
                    for _ in range(size))
    return f"[complex d]\nkind = algebraic\nranks = {size},{size}\ndelta0 = {rows}\n"


# The slowest charges found at the bounds: the 18 largest primes below 10^6
# and the two composites 999849 = 3 * 333283 and 999847 = 467 * 2141, so that
# a signed sum of the 20 vanishes and the charges glue over the 3-sphere.
MONOPOLE_CHARGES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907, 999883,
                    999863, 999853, 999849, 999847, 999809, 999773, 999769, 999763, 999749,
                    999727, 999721)

INPUTS = (
    ("verify, strip of 498 triangles", ["verify"],
     _zero_bundle_model([(i, i + 1, i + 2) for i in range(498)])),
    ("verify, 500 disjoint edges", ["verify"],
     _zero_bundle_model([(2 * i, 2 * i + 1) for i in range(500)])),
    ("cohom, dense 160 x 160 coboundary", ["cohom", "--complex", "d"], _dense_model(160)),
    ("verify --all, multi_monopole of 20 charges at truncation 199", ["verify", "--all"],
     "[action m]\ntype = multi_monopole\n"
     f"charges = {','.join(map(str, MONOPOLE_CHARGES))}\ntruncation = 199\n"),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(label: str, argv: list[str], text: str, model: Path) -> bool:
    model.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "tduality", *argv, str(model)],
                              capture_output=True, text=True, env=env, timeout=TIMEOUT,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        print(f"{label}: timed out after {TIMEOUT} s")
        return False
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0 and "Traceback" not in proc.stderr
    print(f"{label}: {seconds:.2f} s, exit {proc.returncode}" + ("" if ok else " FAILED"))
    if not ok:
        print(proc.stderr[-2000:], end="")
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory() as folder:
        results = [run(label, argv, text, Path(folder) / f"input{i}.tdsl")
                   for i, (label, argv, text) in enumerate(INPUTS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
