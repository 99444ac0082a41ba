"""Seeded input generators for the benchmark workloads.

Nothing here imports the engine: triangulations, charge sets and model texts
are built from first principles, so the checks can compare the engine's
answers against facts about these inputs that do not come from the engine.
"""

from __future__ import annotations

import random
from itertools import product

Facets = tuple[tuple[int, ...], ...]


def workload_rng(workload: str, seed: int) -> random.Random:
    """Deterministic generator for one workload and seed (str seeds hash with
    SHA-512, so the stream does not depend on PYTHONHASHSEED)."""
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Triangulated closed manifolds.  Grids split every unit square along its
# main diagonal; m, n >= 3 keeps every grid a simplicial complex.
# ---------------------------------------------------------------------------


def _grid(m: int, n: int, vertex) -> list[tuple[int, ...]]:
    facets = []
    for i in range(m):
        for j in range(n):
            facets.append((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)))
            facets.append((vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)))
    return facets


def torus_grid(m: int, n: int) -> list[tuple[int, ...]]:
    return _grid(m, n, lambda i, j: (i % m) * n + (j % n))


def klein_grid(m: int, n: int) -> list[tuple[int, ...]]:
    """Rows wrap plainly; the last row is glued to the first with j -> -j."""

    def vertex(i, j):
        if i == m:
            i, j = 0, -j
        return i * n + (j % n)

    return _grid(m, n, vertex)


def rp2_grid(m: int) -> list[tuple[int, ...]]:
    """The m x m square with antipodal boundary points identified.

    The two corner squares next to (0, m) and (m, 0) take the other diagonal:
    with the main diagonal their corner triangles would both lie on the
    boundary and be identified with each other.
    """
    ids: dict[tuple[int, int], int] = {}

    def vertex(x, y):
        key = (x, y)
        if x in (0, m) or y in (0, m):
            key = min(key, (m - x, m - y))
        return ids.setdefault(key, len(ids))

    facets = []
    for x in range(m):
        for y in range(m):
            if (x, y) in ((0, m - 1), (m - 1, 0)):
                facets.append((vertex(x, y), vertex(x + 1, y), vertex(x, y + 1)))
                facets.append((vertex(x + 1, y), vertex(x, y + 1), vertex(x + 1, y + 1)))
            else:
                facets.append((vertex(x, y), vertex(x + 1, y), vertex(x + 1, y + 1)))
                facets.append((vertex(x, y), vertex(x, y + 1), vertex(x + 1, y + 1)))
    return facets


def cross_polytope(d: int) -> list[tuple[int, ...]]:
    """Boundary of the d-dimensional cross-polytope, a (d-1)-sphere; vertices
    2i and 2i+1 are antipodal."""
    return [tuple(2 * i + b for i, b in enumerate(bits)) for bits in product((0, 1), repeat=d)]


def simplex_boundary(d: int) -> list[tuple[int, ...]]:
    """Boundary of the d-simplex, a (d-1)-sphere."""
    return [tuple(v for v in range(d + 1) if v != skip) for skip in range(d + 1)]


def relabel(facets, rng: random.Random) -> Facets:
    """Map the vertices injectively to random labels below 4 * #vertices;
    facets come back sorted.

    Only the relative order of the labels reaches the engine's matrices, so
    the cost is that of a random permutation; the wider label range keeps
    even very symmetric complexes (the octahedron has 15 labellings by
    0..5) from running out of distinct inputs in a long run.
    """
    vertices = sorted({v for f in facets for v in f})
    image = rng.sample(range(4 * len(vertices)), len(vertices))
    mapping = dict(zip(vertices, image))
    return tuple(sorted(tuple(sorted(mapping[v] for v in f)) for f in facets))


# ---------------------------------------------------------------------------
# Charge sets for multi-monopoles.  The engine scans sign patterns in mask
# order, bit i negating charge i, and takes the first with zero signed sum.
# ---------------------------------------------------------------------------


def signable_charges(m: int, late: bool, rng: random.Random) -> tuple[int, ...]:
    """m distinct positive charges whose only zero-sum signings are
    {v_i all +, S -} and its negation, with S = sum(v).

    ``late`` puts S last, so the first zero-sum mask is 2^(m-1) - 1 and the
    scan visits half of all patterns; otherwise S comes first and mask 1
    already works.  With m >= 3 the values are distinct (S > max(v)); m = 2
    gives the pair (v, v), the only kind of pair that signs to zero.  The
    values come from 1 .. m+1: the engine's Smith forms on the glued total
    grow with the charges, and a narrow range keeps the cost of one size
    close to the same from seed to seed.
    """
    values = rng.sample(range(1, m + 2), m - 1)
    total = sum(values)
    return tuple(values + [total]) if late else tuple([total] + values)


def unsignable_charges(m: int, rng: random.Random) -> tuple[int, ...]:
    """m distinct positive charges with an odd sum, so no signing vanishes
    (a signed sum has the parity of the plain sum)."""
    values = rng.sample(range(1, m + 3), m)
    if sum(values) % 2 == 0:
        rest = sum(values) - values[-1]
        values[-1] = max(values) + 1
        if (rest + values[-1]) % 2 == 0:
            values[-1] += 1
    return tuple(values)


def action_text(kind: str, charges, truncation: int, flux=None) -> str:
    lines = [
        "[action a]",
        f"type = {kind}",
        f"charges = {','.join(str(k) for k in charges)}",
        f"truncation = {truncation}",
    ]
    if flux is not None:
        lines.append(f"h = {flux}")
    return "\n".join(lines) + "\n"


def verify_model_text(cp_level: int, euler: int, flux: int, charge: int,
                      pair: int, truncation: int) -> tuple[str, int]:
    """A model with one section of every kind, and the number of checks
    ``verify --all`` must print for it.

    Count per section, from the verify command's contract: one per complex,
    two per bundle (total valid, Gysin exact), one per flux, two per action
    (builds, stable) plus a route-agreement check for point_fixed, monopole
    and free_hopf actions, and 7 catalog complexes plus 15 lens
    cross-checks under ``--all``.
    """
    text = f"""[complex cpn]
kind = catalog
name = cp
params = {cp_level}

[complex circle]
kind = algebraic
ranks = 1,1

[complex torus]
kind = catalog
name = torus2

[bundle b]
base = cpn
euler = {euler}*u

[bundle flat]
base = torus
euler = 0

[flux j]
h = {flux}

[action m]
type = monopole
charges = {charge}
truncation = {truncation}

[action hopf]
type = free_hopf
truncation = {truncation}

[action pair]
type = multi_monopole
charges = {pair},{pair}
truncation = {truncation}

[action flat_t2]
type = free_bundle
base = torus
euler = 0
truncation = {truncation}
"""
    checks = 3 * 1 + 2 * 2 + 1 + (3 + 3 + 2 + 2) + 7 + 15
    return text, checks
