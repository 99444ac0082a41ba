"""Output checks that share no code with the engine.

Each check takes the engine's answer as plain data and raises ``CheckError``
when it disagrees with an answer obtained apart from the engine: the
classification of closed surfaces and spheres, Euler characteristics from
face counts, the lens-space and nilmanifold swap law (k, h) -> (h, k) of
Bouwknegt-Evslin-Mathai, and an integer Smith diagonal computed here by
Bezout elimination (the engine uses smallest-pivot division instead).
"""

from __future__ import annotations

import json
from itertools import combinations
from math import gcd
from typing import Sequence

Group = tuple[tuple[int, ...], int]  # (torsion factors, free rank)


class CheckError(AssertionError):
    """An engine answer disagreed with the independent one."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Independent integer Smith diagonal.
# ---------------------------------------------------------------------------


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _combination(p: int, q: int) -> tuple[int, int, int, int]:
    """Unimodular (s, t, u, v) with s*p + t*q = gcd and u*p + v*q = 0.

    When p divides q the first line is left alone; otherwise |gcd| < |p|, so
    every combination either clears an entry or shrinks the pivot.
    """
    if q % p == 0:
        return 1, 0, -(q // p), 1
    g, s, t = _bezout(p, q)
    return s, t, q // g, -(p // g)


def smith_diagonal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Pivots are cleared with unimodular 2x2 Bezout combinations of rows and
    columns, then the diagonal is turned into a divisibility chain by
    replacing pairs with their gcd and lcm.
    """
    a = [list(r) for r in rows if any(r)]
    diagonal = []
    while a:
        j = next(c for c, x in enumerate(a[0]) if x)
        dirty = True
        while dirty:
            dirty = False
            for i in range(1, len(a)):
                if a[i][j]:
                    s, t, u, v = _combination(a[0][j], a[i][j])
                    r0, ri = a[0], a[i]
                    a[0] = [s * x + t * y for x, y in zip(r0, ri)]
                    a[i] = [u * x + v * y for x, y in zip(r0, ri)]
            for c in range(len(a[0])):
                if c != j and a[0][c]:
                    s, t, u, v = _combination(a[0][j], a[0][c])
                    for r in a:
                        x, y = r[j], r[c]
                        r[j], r[c] = s * x + t * y, u * x + v * y
                    dirty = True
        diagonal.append(abs(a[0][j]))
        a = [r[:j] + r[j + 1:] for r in a[1:]]
        a = [r for r in a if any(r)]
    for i in range(len(diagonal)):
        for k in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[k])
            diagonal[i], diagonal[k] = g, diagonal[i] * diagonal[k] // g
    return tuple(diagonal)


def cohomology_table(ranks: Sequence[int], deltas: Sequence[Sequence[Sequence[int]]]) -> list[Group]:
    """H^n of a cochain complex from Smith diagonals of its coboundaries.

    ``deltas[n]`` maps C^n -> C^{n+1}.  Since ker(delta_n) is a saturated
    sublattice, the torsion of H^n is the torsion of coker(delta_{n-1}), and
    the free rank is rank C^n - rank delta_n - rank delta_{n-1}.
    """
    diags = [smith_diagonal(d) for d in deltas]
    table = []
    for n, rank in enumerate(ranks):
        below = diags[n - 1] if 0 < n <= len(diags) else ()
        above = diags[n] if n < len(diags) else ()
        torsion = tuple(d for d in below if d > 1)
        table.append((torsion, rank - len(above) - len(below)))
    return table


# ---------------------------------------------------------------------------
# simplicial-cohomology
# ---------------------------------------------------------------------------


def face_counts(facets: Sequence[Sequence[int]]) -> list[int]:
    dim = max(len(f) for f in facets) - 1
    levels = [set() for _ in range(dim + 1)]
    for f in facets:
        for d in range(len(f)):
            levels[d].update(combinations(f, d + 1))
    return [len(level) for level in levels]


def manifold_table(family: str, dim: int) -> list[Group]:
    """Integral cohomology of the closed manifold each family triangulates."""
    if family == "torus":
        return [((), 1), ((), 2), ((), 1)]
    if family == "klein":
        return [((), 1), ((), 1), ((2,), 0)]
    if family == "rp2":
        return [((), 1), ((), 0), ((2,), 0)]
    if family == "sphere":
        return [((), 1)] + [((), 0)] * (dim - 1) + [((), 1)]
    raise ValueError(f"unknown family {family!r}")


def check_manifold(family: str, facets, groups: Sequence[Group]) -> None:
    counts = face_counts(facets)
    dim = len(counts) - 1
    want = manifold_table(family, dim)
    expect(list(groups) == want, f"{family}: H^* = {list(groups)}, expected {want}")
    chi_faces = sum((-1) ** d * c for d, c in enumerate(counts))
    chi_ranks = sum((-1) ** d * free for d, (_, free) in enumerate(groups))
    expect(chi_faces == chi_ranks,
           f"{family}: Euler characteristic {chi_ranks} from ranks, {chi_faces} from faces")


# ---------------------------------------------------------------------------
# bundle-duality
# ---------------------------------------------------------------------------


def lens_group(k: int) -> tuple[int, ...]:
    return (k,) if abs(k) > 1 else ()


def check_duality(base: str, k: int, h: int, h2_total: Group, dual_euler, canonical,
                  dual_h2: Group, back_euler, nodes: Sequence[bool], window: tuple[int, int]) -> None:
    """Over cp(1) the total is the lens space L(k, 1); over the torus it is
    the nilmanifold of degree k, with H^2 = Z^2 + Z/k.  T-duality swaps
    (k, h) -> (h, k) up to the sign of the H^2 and H^3 generators."""
    free = {"cp1": 0, "torus": 2}[base]
    expect(h2_total == (lens_group(k), free), f"{base} k={k}: H^2(E) = {h2_total}")
    expect(tuple(dual_euler) in ((h,), (-h,)), f"{base} ({k},{h}): dual Euler {dual_euler}")
    expect(tuple(canonical) in ((k,), (-k,)), f"{base} ({k},{h}): dual flux {canonical}")
    expect(dual_h2 == (lens_group(h), free), f"{base} ({k},{h}): H^2(E^) = {dual_h2}")
    expect(tuple(back_euler) == (k,), f"{base} ({k},{h}): double dual Euler {back_euler}")
    lo, hi = window
    expect(len(nodes) == 3 * (hi - lo + 1), f"{base} k={k}: {len(nodes)} Gysin nodes")
    expect(all(nodes), f"{base} k={k}: Gysin sequence not exact at every node")


# ---------------------------------------------------------------------------
# borel-cli
# ---------------------------------------------------------------------------


def _groups(table: dict) -> list[Group]:
    return [
        (tuple(table[str(d)]["torsion"]), table[str(d)]["free_rank"])
        for d in range(len(table))
    ]


def _pretty(group: Group) -> str:
    torsion, free = group
    parts = [f"Z/{f}" for f in torsion]
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    return " + ".join(parts) or "0"


def _payload(code: int, stdout: str, stderr: str) -> dict:
    expect(code == 0, f"exit code {code}, expected 0: {stderr.strip()[:200]}")
    return json.loads(stdout)


def check_monopole(code: int, stdout: str, stderr: str, k: int, truncation: int, flux) -> None:
    """The monopole of charge k has the lens table: Z, then Z/k in even and
    0 in odd degrees through the valid window 2N - 1.  With flux h the dual
    has Euler class h and flux k; without, it is the trivial bundle."""
    payload = _payload(code, stdout, stderr)
    want = [((), 1)] + [
        (lens_group(k), 0) if d % 2 == 0 else ((), 0) for d in range(1, 2 * truncation)
    ]
    expect(_groups(payload["total_cohomology"]) == want,
           f"monopole k={k} N={truncation}: table {payload['total_cohomology']}")
    expect(payload["h2_total"] == _pretty((lens_group(k), 0)),
           f"monopole k={k}: h2_total {payload['h2_total']}")
    expect(payload.get("routes_agree") is True, f"monopole k={k}: routes do not agree")
    h = 0 if flux is None else flux
    for name, route in payload["routes"].items():
        expect(route["dual_euler_coords"] in ([h], [-h]), f"{name}: dual Euler {route}")
        expect(route["canonical_flux_coords"] in ([k], [-k]), f"{name}: dual flux {route}")
        expect(route["h2_dual_total"] == ("Z" if h == 0 else _pretty((lens_group(h), 0))),
               f"{name}: H^2 of the dual total {route['h2_dual_total']}")
        expect(route["defining_equation"] == "ok", f"{name}: defining equation failed")


def check_multi_monopole(code: int, stdout: str, stderr: str, truncation: int,
                         independent: Sequence[Group]) -> None:
    """The reported table must equal the one computed here from the engine's
    glued total complex by ``cohomology_table``."""
    payload = _payload(code, stdout, stderr)
    got = _groups(payload["total_cohomology"])
    expect(payload["truncation"] == truncation, f"truncation {payload['truncation']}")
    expect(len(got) == min(2 * truncation, len(independent)) and got == list(independent[: len(got)]),
           f"multi-monopole table {got}, independent {list(independent)}")
    expect(payload["h2_total"] == _pretty(independent[2]),
           f"multi-monopole h2_total {payload['h2_total']}")
    route = payload["routes"]["mathai_wu"]
    expect(not any(route["dual_euler_coords"]), f"zero flux dualized to {route}")
    expect(route["defining_equation"] == "ok", "defining equation failed")


def check_unsignable(code: int, stdout: str, stderr: str) -> None:
    """Charges with an odd sum cannot be signed to zero: bad user data, exit 2."""
    expect(code == 2, f"exit code {code}, expected 2: {stderr.strip()[:200]}")
    expect(stdout == "", "an unsignable charge set printed a report")
    expect("no orientation assignment" in stderr, f"unexpected message {stderr.strip()[:200]}")


def check_verify(code: int, stdout: str, stderr: str, expected_checks: int) -> None:
    payload = _payload(code, stdout, stderr)
    checks = payload["checks"]
    expect(len(checks) == expected_checks, f"verify printed {len(checks)} checks, expected {expected_checks}")
    expect(payload["failures"] == 0 and all(c["ok"] for c in checks),
           f"verify failures: {[c['name'] for c in checks if not c['ok']]}")
