"""Finite simplicial complexes with ordered vertices and cup structure.

These are the geometric oracles for the algebraic models: integral cochain
complexes come from the standard alternating-sign coboundary, and products
use the Alexander-Whitney front-face/back-face formula

    (f ~ g)(v_0 .. v_{p+q}) = f(v_0 .. v_p) * g(v_p .. v_{p+q}),

which satisfies the Leibniz rule exactly at the cochain level.  One routine
applies it, as the matrix of ``g -> f ~ g``: ``cup_product`` applies that
matrix to ``g`` and ``cup_operator`` is that matrix in every degree.
Cochain-level representatives depend on the vertex order; only
cohomology-level outputs are contractual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .complexes import CochainMap, GradedComplex, require_cocycle
from .errors import PreconditionError
from .matrices import IntMatrix, Vector

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed complex; ``faces[d]`` lists the d-simplices lexicographically."""

    vertex_count: int
    facets: tuple[Simplex, ...]
    faces: tuple[tuple[Simplex, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def n_faces(self, d: int) -> int:
        if 0 <= d < len(self.faces):
            return len(self.faces[d])
        return 0


# Bounds on a facet list from a model file, checked before its closure is
# built: a facet of s vertices has 2^s - 1 faces.  They bound the closure, at
# most MAX_FACETS * (2^MAX_FACET_SIZE - 1) faces.  Both lie above every
# complex the tests and the benchmark build (at most 9 vertices in a facet,
# at most 200 facets).
MAX_FACET_SIZE = 10
MAX_FACETS = 500
# Bound on the entries of each dense coboundary, len(faces[d]) *
# len(faces[d + 1]), checked once the closure is built.  It admits 500
# disjoint edges, the largest 1-dimensional list the facet bounds admit.
MAX_COBOUNDARY_ENTRIES = 500_000


def from_facets(facets: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Build the closure of a facet list.

    Vertices within each facet must be strictly increasing; violations are
    parse-level errors so the DSL can surface them with positions.
    """
    if not facets:
        raise PreconditionError("empty facet list")
    if len(facets) > MAX_FACETS:
        raise PreconditionError(
            f"{len(facets)} facets exceed simplicial.MAX_FACETS = {MAX_FACETS}"
        )
    norm: list[Simplex] = []
    for f in facets:
        if len(f) > MAX_FACET_SIZE:
            raise PreconditionError(
                f"a facet of {len(f)} vertices exceeds simplicial.MAX_FACET_SIZE = "
                f"{MAX_FACET_SIZE}"
            )
        t = tuple(int(v) for v in f)
        if not t:
            raise PreconditionError("empty facet")
        if any(v < 0 for v in t):
            raise PreconditionError(f"negative vertex in facet {t}")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise PreconditionError(
                f"facet {t} must list strictly increasing vertices"
            )
        norm.append(t)
    dim = max(len(f) for f in norm) - 1
    levels: list[set[Simplex]] = [set() for _ in range(dim + 1)]
    for f in norm:
        for d in range(len(f)):
            for face in combinations(f, d + 1):
                levels[d].add(face)
    for d in range(dim):
        entries = len(levels[d]) * len(levels[d + 1])
        if entries > MAX_COBOUNDARY_ENTRIES:
            raise PreconditionError(
                f"the coboundary from degree {d} has {len(levels[d + 1])} x {len(levels[d])} "
                f"= {entries} entries, above simplicial.MAX_COBOUNDARY_ENTRIES = "
                f"{MAX_COBOUNDARY_ENTRIES}"
            )
    faces = tuple(tuple(sorted(level)) for level in levels)
    vertex_count = max(v for f in norm for v in f) + 1
    return SimplicialComplex(vertex_count, tuple(sorted(set(norm))), faces)


def _face_index(k: SimplicialComplex, d: int) -> dict[Simplex, int]:
    return {s: i for i, s in enumerate(k.faces[d])} if 0 <= d < len(k.faces) else {}


@lru_cache(maxsize=32)
def cochain_complex_of(k: SimplicialComplex) -> GradedComplex:
    """Simplicial cochain complex with standard alternating signs."""
    ranks = tuple(len(level) for level in k.faces)
    deltas = []
    for n in range(k.dim):
        rows = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        idx = _face_index(k, n)
        for r, sigma in enumerate(k.faces[n + 1]):
            for i in range(len(sigma)):
                tau = sigma[:i] + sigma[i + 1:]
                rows[r][idx[tau]] += -1 if i % 2 else 1
        deltas.append(IntMatrix._computed(rows, ranks[n]))
    return GradedComplex(ranks, tuple(deltas))


@dataclass(frozen=True)
class Cochain:
    complex: SimplicialComplex
    degree: int
    values: Vector

    def __post_init__(self):
        if len(self.values) != self.complex.n_faces(self.degree):
            raise PreconditionError(
                f"cochain of length {len(self.values)} in degree {self.degree} "
                f"with {self.complex.n_faces(self.degree)} simplices"
            )


def _same_complex(a: Cochain, b: Cochain):
    if a.complex != b.complex:
        raise PreconditionError("cochains live on different complexes")


def _cup_matrix(f: Cochain, n: int) -> IntMatrix:
    """Matrix of ``g -> f ~ g`` from degree ``n``, the Alexander-Whitney
    rule: row ``sigma`` holds ``f(sigma[:p+1])`` at the column of its back
    face ``sigma[p:]``, ``p`` the degree of ``f``."""
    k, p = f.complex, f.degree
    rows = [[0] * k.n_faces(n) for _ in range(k.n_faces(p + n))]
    if rows and rows[0]:
        front, back = _face_index(k, p), _face_index(k, n)
        for row, sigma in zip(rows, k.faces[p + n]):
            row[back[sigma[p:]]] += f.values[front[sigma[:p + 1]]]
    return IntMatrix._computed(rows, k.n_faces(n))


def cup_product(f: Cochain, g: Cochain) -> Cochain:
    """Alexander-Whitney product of cochains on one complex."""
    _same_complex(f, g)
    return Cochain(f.complex, f.degree + g.degree, _cup_matrix(f, g.degree).apply(g.values))


def cup_operator(e: Cochain) -> CochainMap:
    """The degree +2 cochain map ``f -> e ~ f`` for a 2-cocycle ``e``.

    Commutes with the coboundary because ``delta e = 0`` and ``e`` has even
    degree, by the Leibniz rule.
    """
    if e.degree != 2:
        raise PreconditionError(f"cup operator needs a 2-cochain, got degree {e.degree}")
    cx = cochain_complex_of(e.complex)
    require_cocycle(cx, 2, e.values, "cup operator's 2-cochain")
    return CochainMap(cx, cx, 2, tuple(_cup_matrix(e, n) for n in range(len(cx.ranks))))
