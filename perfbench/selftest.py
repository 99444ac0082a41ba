"""Self-test of the output checks: each accepts the engine's real answer and
rejects every corruption of it listed here.

    python3 perfbench/selftest.py

Also compares the independent Smith diagonal with determinantal divisors
(gcds of k x k minors) on small random matrices.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from functools import reduce
from itertools import combinations
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _edit_json(answer, edit):
    payload = json.loads(answer["stdout"])
    edit(payload)
    return dict(answer, stdout=json.dumps(payload))


def _first_route(payload):
    return next(iter(payload["routes"].values()))


def _bump_table(payload):
    payload["total_cohomology"]["0"]["free_rank"] += 1


# corruptions of each check's keyword arguments: (what, answer -> corrupted answer)
CORRUPTIONS = {
    checks.check_manifold: [
        ("extra torsion in H^1", lambda a: dict(a, groups=[a["groups"][0], ((2,), a["groups"][1][1])] + a["groups"][2:])),
        ("free rank off by one", lambda a: dict(a, groups=[((), 2)] + a["groups"][1:])),
        ("Euler characteristic of the faces", lambda a: dict(a, facets=a["facets"] + ((10**6, 10**6 + 1, 10**6 + 2),))),
    ],
    checks.check_duality: [
        ("H^2 of the total", lambda a: dict(a, h2_total=((), a["h2_total"][1]))),
        ("dual Euler class", lambda a: dict(a, dual_euler=(a["h"] + 1,))),
        ("canonical dual flux", lambda a: dict(a, canonical=(0,))),
        ("H^2 of the dual total", lambda a: dict(a, dual_h2=((a["h"] * 2,), a["dual_h2"][1]))),
        ("double-dual Euler sign", lambda a: dict(a, back_euler=(-a["k"],))),
        ("one inexact node", lambda a: dict(a, nodes=a["nodes"][:-1] + [False])),
        ("a missing node", lambda a: dict(a, nodes=a["nodes"][:-1])),
    ],
    checks.check_monopole: [
        ("exit code 3", lambda a: dict(a, code=3)),
        ("lens torsion", lambda a: _edit_json(a, lambda p: p["total_cohomology"]["0"].update(torsion=[2]))),
        ("h2_total", lambda a: _edit_json(a, lambda p: p.update(h2_total="Z"))),
        ("routes disagree", lambda a: _edit_json(a, lambda p: p.update(routes_agree=False))),
        ("dual Euler", lambda a: _edit_json(a, lambda p: _first_route(p).update(dual_euler_coords=[7]))),
        ("dual flux", lambda a: _edit_json(a, lambda p: _first_route(p).update(canonical_flux_coords=[1]))),
    ],
    checks.check_multi_monopole: [
        ("exit code 2", lambda a: dict(a, code=2)),
        ("table entry", lambda a: _edit_json(a, _bump_table)),
        ("table cut short", lambda a: _edit_json(a, lambda p: p["total_cohomology"].pop(str(len(p["total_cohomology"]) - 1)))),
        ("h2_total", lambda a: _edit_json(a, lambda p: p.update(h2_total="Z/7"))),
        ("truncation", lambda a: _edit_json(a, lambda p: p.update(truncation=p["truncation"] + 1))),
    ],
    checks.check_unsignable: [
        ("exit code 0", lambda a: dict(a, code=0)),
        ("traceback exit 1", lambda a: dict(a, code=1, stderr="Traceback ...")),
        ("a report on stdout", lambda a: dict(a, stdout="{}")),
    ],
    checks.check_verify: [
        ("exit code 3", lambda a: dict(a, code=3)),
        ("a failed check", lambda a: _edit_json(a, lambda p: p["checks"][0].update(ok=False))),
        ("a missing check", lambda a: _edit_json(a, lambda p: p["checks"].pop())),
    ],
}


def determinantal_diagonal(rows):
    """Invariant factors as ratios of gcds of k x k minors (small inputs only)."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))

    divisors = [1]
    n_rows, n_cols = len(rows), len(rows[0])
    for k in range(1, min(n_rows, n_cols) + 1):
        minors = [det([[rows[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(n_rows), k) for cs in combinations(range(n_cols), k)]
        g = reduce(gcd, minors, 0)
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[i] // divisors[i - 1] for i in range(1, len(divisors)))


def main() -> int:
    misses = []
    rng = random.Random(0)
    for trial in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.choice((0, 0, 1, -1, 2, 3, -4, 6)) for _ in range(c)] for _ in range(r)]
        if checks.smith_diagonal(m) != determinantal_diagonal(m):
            misses.append(f"smith_diagonal {m}: {checks.smith_diagonal(m)} != {determinantal_diagonal(m)}")

    caches = workloads.PackageCaches()
    tried = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, caches)
        workload.setup()
        for op in workload.round(1):
            check, answer = workload.facts(op, workload.run(op))
            workload.reset()
            if tried.get(check, 0) >= 2:
                continue
            tried[check] = tried.get(check, 0) + 1
            try:
                check(**answer)
            except checks.CheckError as exc:
                misses.append(f"{name}: a real answer was rejected: {exc}")
            for what, corrupt in CORRUPTIONS[check]:
                try:
                    check(**corrupt(copy.deepcopy(answer)))
                except checks.CheckError:
                    continue
                misses.append(f"{name}: {check.__name__} accepted a corrupted {what}")
    untried = [c.__name__ for c in CORRUPTIONS if c not in tried]
    if untried:
        misses.append(f"no operation reached {untried}")
    for miss in misses:
        print(miss)
    print(f"selftest: {sum(len(v) for v in CORRUPTIONS.values())} corruptions of "
          f"{len(CORRUPTIONS)} checks, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
