"""Graded integer cochain complexes and their cohomology.

A ``GradedComplex`` is a finite sequence of free abelian groups ``C^0..C^D``
with coboundaries ``delta[n] : C^n -> C^{n+1}``.  Degrees outside ``0..D``
are treated as zero groups; ``rank_at``/``delta_at`` clamp accordingly, which
keeps constructions at the truncation edge uniform.

``cohomology`` presents ``H^n = ker(delta[n]) / im(delta[n-1])`` with explicit
generator cocycles and an exact coordinate map.  Generator ordering is fixed:
torsion generators first (ascending invariant factor, then pivot position),
then free generators, so coordinates are canonical and reports diff cleanly.

``cohomology_shapes`` gives only the shape ``(torsion, free_rank)`` of each
degree, from the invariant factors of the coboundaries: the torsion of
``H^n`` is the factors ``>= 2`` of ``delta[n-1]``, and the free rank is
``rank C^n - rank delta[n] - rank delta[n-1]``.  The factors come from
``matrices.invariant_factors``, which splits off unit pivots first and runs
the Smith routine only on the core left; invariant factors are unique, so
the shapes equal those of the full elimination.  It reads no
transform and forms no product, so reports that print or compare shapes only
use it.  ``cohomology`` keeps the full ``smith_normal_form``, whose step logs
fix the printed generators, and eliminates each coboundary once per complex
(``_smith``; ``solve_coboundary`` solves on the same form).  It forms no
whole transform: the kernel of ``delta[n]`` and its coordinate rows are the
column log of its form applied to the kernel slab alone
(``SNFDecomposition.kernel_columns`` and ``kernel_coordinate_rows``), and
the row log of the form of ``delta[n-1]`` in kernel coordinates is applied
to those two.  A degree whose outgoing coboundary is zero (every top
degree, every degree of ``cp(N)``) has the identity as its slab, so it
reuses the form of degree ``n-1``.
``first_shape_difference`` compares two complexes by their shapes, for the
stability and lens certificates.
``describe_shape`` formats a shape as ``Z/k + Z^r``.  ``validate_complex``
returns its witness, ``""`` for a cochain complex or else the first
``delta[n+1] @ delta[n] != 0``; ``require_complex`` raises with that witness
(``cohomology``, ``cohomology_shapes`` and ``gysin.total_space`` call it),
``require_cocycle`` a given cochain (length, then the first nonzero entry of
its coboundary) and ``CohomologyGroup.require_coords`` a class's coordinate
count, for every engine caller.  ``mapping_cone`` builds the cone of a
cochain map of any degree ``d >= 0``, whose inclusion and projection are
``functools.cached_property`` values built on first read, as are a complex's
zero edge maps; ``gysin.total_space`` and ``borel.mayer_vietoris_glue``
return such cones.  Cones and
``tensor_product`` assemble their coboundaries with ``IntMatrix.from_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .errors import PreconditionError
from .matrices import (IntMatrix, SNFDecomposition, Vector, hash_once, invariant_factors,
                       smith_normal_form)

_ZERO_BY_ZERO = IntMatrix.zeros(0, 0)  # delta_at beyond both edges, shared by every complex


@hash_once
@dataclass(frozen=True)
class GradedComplex:
    """Integer cochain complex, truncated at degree ``len(ranks) - 1``.

    Shape compatibility is enforced at construction; the cochain condition
    ``delta[n+1] @ delta[n] == 0`` is checked by ``validate_complex`` so that
    broken complexes can still be built and reported on.
    """

    ranks: tuple[int, ...]
    deltas: tuple[IntMatrix, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        expected = max(len(self.ranks) - 1, 0)
        if len(self.deltas) != expected:
            raise ValueError(f"expected {expected} coboundaries, got {len(self.deltas)}")
        for n, d in enumerate(self.deltas):
            if d.shape != (self.ranks[n + 1], self.ranks[n]):
                raise ValueError(
                    f"delta[{n}] has shape {d.shape}, expected "
                    f"({self.ranks[n + 1]}, {self.ranks[n]})"
                )

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank_at(self, n: int) -> int:
        if 0 <= n < len(self.ranks):
            return self.ranks[n]
        return 0

    def delta_at(self, n: int) -> IntMatrix:
        if 0 <= n < len(self.deltas):
            return self.deltas[n]
        return self._edge_deltas.get(n, _ZERO_BY_ZERO)

    @cached_property
    def _edge_deltas(self) -> dict[int, IntMatrix]:
        """The zero maps into degree 0 and out of the top degree ``t``, built once."""
        t = self.top_degree
        return {-1: IntMatrix.zeros(self.rank_at(0), 0), t: IntMatrix.zeros(0, self.rank_at(t))}

    @staticmethod
    def with_zero_deltas(ranks: Sequence[int]) -> "GradedComplex":
        ranks = tuple(int(r) for r in ranks)
        deltas = tuple(
            IntMatrix.zeros(ranks[n + 1], ranks[n]) for n in range(max(len(ranks) - 1, 0))
        )
        return GradedComplex(ranks, deltas)

    @staticmethod
    def empty() -> "GradedComplex":
        return GradedComplex((), ())


# Cache bounds are a few times the largest working set measured for one
# command: ``verify --all`` on the shipped sample validates 49 complexes.
@lru_cache(maxsize=256)
def validate_complex(c: GradedComplex) -> str:
    """``""`` when ``delta[n+1] @ delta[n] == 0`` in every degree, otherwise
    the first that is not, as ``delta[n+1] @ delta[n] != 0``; never raises."""
    for n in range(len(c.deltas) - 1):
        comp = c.deltas[n + 1] @ c.deltas[n]
        if not comp.is_zero():
            return f"delta[{n + 1}] @ delta[{n}] != 0"
    return ""


@dataclass(frozen=True)
class CohomologyGroup:
    """Invariant-factor presentation of ``H^n`` with explicit generators.

    ``generators`` are cocycle vectors in ``C^n``, torsion generators first,
    and ``_coord_rows`` holds one coordinate row per generator in the same
    order.  ``coordinates`` expresses any cocycle in the generator basis,
    torsion coordinates reduced into ``[0, factor)``.  Coboundaries map to
    zero coordinates.
    """

    degree: int
    torsion: tuple[int, ...]
    free_rank: int
    generators: tuple[Vector, ...]
    _coord_rows: IntMatrix

    @property
    def coord_dim(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def shape(self) -> tuple[tuple[int, ...], int]:
        return (self.torsion, self.free_rank)

    def coordinates(self, cocycle: Sequence[int]) -> Vector:
        return self.reduce(self._coord_rows.apply(cocycle))

    def reduce(self, w: Vector) -> Vector:
        """Coordinates ``w`` with each torsion entry reduced into ``[0, factor)``."""
        return tuple(x % f for x, f in zip(w, self.torsion)) + w[len(self.torsion):]

    def require_coords(self, coords: Sequence[int], what: str, space: str) -> None:
        """Raise ``PreconditionError`` naming both counts unless ``coords`` fits the generators."""
        if len(coords) != self.coord_dim:
            raise PreconditionError(f"{what} has {len(coords)} coordinates but H^{self.degree} "
                                    f"of {space} has {self.coord_dim} generators")

    def rep_from_coords(self, coords: Sequence[int]) -> Vector:
        """The generator combination with ``coords`` (``require_coords`` first)."""
        out = [0] * self._coord_rows.cols  # rank C^n
        for c, gen in zip(coords, self.generators, strict=True):
            for k, g in enumerate(gen):
                out[k] += c * g
        return tuple(out)

    def relation_rows(self) -> tuple[Vector, ...]:
        """Rows spanning the relation lattice of the coordinate group."""
        dim = self.coord_dim
        rows = []
        for i, f in enumerate(self.torsion):
            row = [0] * dim
            row[i] = f
            rows.append(tuple(row))
        return tuple(rows)

    def describe(self) -> str:
        return describe_shape(self.shape)


Shape = tuple[tuple[int, ...], int]


def describe_shape(shape: Shape) -> str:
    """``Z/k`` per torsion factor, then ``Z`` or ``Z^r``, joined by `` + ``;
    ``0`` for the zero group."""
    torsion, free_rank = shape
    parts = [f"Z/{f}" for f in torsion]
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    return " + ".join(parts) if parts else "0"


def require_complex(c: GradedComplex) -> None:
    """Raise ``PreconditionError`` unless ``c`` is a cochain complex."""
    witness = validate_complex(c)
    if witness:
        raise PreconditionError(f"not a cochain complex: {witness}")


# Forms read from empty caches, dualize's delta[3] included: a double dual and Gysin
# check over cp(200) 811, ``verify --all`` on the sample 45, the 498-triangle strip 12.
@lru_cache(maxsize=2048)
def _smith(c: GradedComplex, n: int) -> SNFDecomposition:
    """``smith_normal_form(c.delta_at(n))``, eliminated once per complex."""
    return smith_normal_form(c.delta_at(n))


def solve_coboundary(c: GradedComplex, n: int, b: Sequence[int]) -> Optional[Vector]:
    """``solve_integer_system(c.delta_at(n), b)`` on the form ``_smith`` keeps."""
    return _smith(c, n).solve(b)


# A Gysin check over cp(200) presents 807 groups.
@lru_cache(maxsize=2048)
def cohomology(c: GradedComplex, n: int) -> CohomologyGroup:
    """Present ``H^n(c)`` per the conventions above.

    Requires a valid complex.  Degrees outside ``0..D`` yield the zero group.
    """
    require_complex(c)
    rank_n = c.rank_at(n)
    snf_a = _smith(c, n)     # of delta[n] : C^n -> C^{n+1}
    # kernel basis = last k columns of V; kernel coordinates = last k rows of V^-1
    kernel = snf_a.kernel_columns()
    coordinate_rows = snf_a.kernel_coordinate_rows()
    k = len(coordinate_rows)

    # image of delta[n-1] in kernel coordinates (top coordinates vanish since
    # delta[n] @ delta[n-1] == 0); when delta[n] is zero its kernel slab is
    # the identity, so the image is delta[n-1], whose form degree n-1 made
    snf_p = (smith_normal_form(IntMatrix._computed(coordinate_rows, rank_n) @ c.delta_at(n - 1))
             if snf_a.rank else _smith(c, n - 1))
    # generators: the columns of (kernel basis) @ U_p^-1, from snf_p's step log;
    # their coordinate rows: the rows of U_p @ (kernel coordinates)
    gens_all = snf_p.times_inverse_u(kernel)
    rows_all = snf_p.u_times(coordinate_rows)
    # the unit factors come first on D and present nothing; the torsion and
    # then the free generators follow in order
    factors = snf_p.factors
    units = factors.count(1)

    # normalize: first nonzero entry of each generator positive, coordinate
    # row flipped along with it, so coordinates(generator_i) stays e_i
    generators, coord_rows = [], []
    for gen, row in zip(gens_all[units:], rows_all[units:]):
        if next((x for x in gen if x), 1) < 0:
            gen, row = [-x for x in gen], [-x for x in row]
        generators.append(tuple(gen))
        coord_rows.append(row)

    return CohomologyGroup(
        degree=n,
        torsion=factors[units:],
        free_rank=k - len(factors),
        generators=tuple(generators),
        _coord_rows=IntMatrix._computed(coord_rows, rank_n),
    )


# The stability check of a monopole at truncation 199 reads 1999.
@lru_cache(maxsize=4096)
def _coboundary_factors(c: GradedComplex, n: int) -> Vector:
    """Invariant factors of ``delta[n]``; empty outside the complex."""
    if not 0 <= n < len(c.deltas):
        return ()
    return invariant_factors(c.deltas[n])


def cohomology_shapes(c: GradedComplex, top: int) -> tuple[Shape, ...]:
    """``cohomology(c, d).shape`` for ``d`` in ``0..top``, one comparison
    entry per degree; degrees above the complex give ``((), 0)``.

    Computed from the invariant factors of ``delta[-1..top]`` alone (see the
    module docstring); ``require_complex`` gates ``c`` as in ``cohomology``.
    """
    require_complex(c)
    factors = [_coboundary_factors(c, d) for d in range(-1, top + 1)]
    return tuple(
        (tuple(f for f in below if f >= 2), c.rank_at(d) - len(out) - len(below))
        for d, below, out in zip(range(top + 1), factors, factors[1:])
    )


def first_shape_difference(
    a: GradedComplex, b: GradedComplex, top: int
) -> Optional[tuple[int, Shape, Shape]]:
    """The first degree in ``0..top`` where ``a`` and ``b`` differ in shape,
    with the shape of each; ``None`` when every degree agrees."""
    pairs = zip(cohomology_shapes(a, top), cohomology_shapes(b, top))
    return next(((d, x, y) for d, (x, y) in enumerate(pairs) if x != y), None)


def require_cocycle(c: GradedComplex, n: int, z: Sequence[int], what: str) -> None:
    """Raise ``PreconditionError`` naming ``what`` unless ``z`` is a cocycle in degree ``n``."""
    if len(z) != c.rank_at(n):
        raise PreconditionError(f"{what} of length {len(z)} in degree {n} of rank {c.rank_at(n)}")
    for i, x in enumerate(c.delta_at(n).apply(z)):
        if x:
            raise PreconditionError(
                f"{what} is not a cocycle: (delta z)[{i}] = {x} in degree {n + 1}"
            )


def class_coordinates(c: GradedComplex, n: int, z: Sequence[int]) -> Vector:
    """Coordinates of the class ``[z]`` in the generator basis of ``H^n``;
    ``require_cocycle`` checks ``z`` first."""
    require_cocycle(c, n, z, "cochain")
    return cohomology(c, n).coordinates(z)


@hash_once
@dataclass(frozen=True)
class CochainMap:
    """Degree-``degree`` map of graded complexes, one matrix per source degree.

    Strict commuting ``delta_T @ f_n == f_{n+1} @ delta_S`` is enforced at
    construction (signs belonging to cones and twisted totals live in those
    differentials, not in the maps).
    """

    source: GradedComplex
    target: GradedComplex
    degree: int
    mats: tuple[IntMatrix, ...]

    def __post_init__(self):
        n_mats = len(self.source.ranks)
        if len(self.mats) != n_mats:
            raise ValueError(f"expected {n_mats} matrices, got {len(self.mats)}")
        for n, m in enumerate(self.mats):
            want = (self.target.rank_at(n + self.degree), self.source.rank_at(n))
            if m.shape != want:
                raise ValueError(f"map matrix at degree {n} has shape {m.shape}, expected {want}")
        for n in range(n_mats):
            lhs = self.target.delta_at(n + self.degree) @ self.mat_at(n)
            rhs = self.mat_at(n + 1) @ self.source.delta_at(n)
            if lhs != rhs:
                raise PreconditionError(
                    f"not a cochain map: commuting fails at source degree {n}"
                )

    def mat_at(self, n: int) -> IntMatrix:
        if 0 <= n < len(self.mats):
            return self.mats[n]
        return IntMatrix.zeros(
            self.target.rank_at(n + self.degree), self.source.rank_at(n)
        )

    def apply(self, n: int, vec: Sequence[int]) -> Vector:
        return self.mat_at(n).apply(vec)

    @staticmethod
    def zero(source: GradedComplex, target: GradedComplex, degree: int) -> "CochainMap":
        mats = tuple(
            IntMatrix.zeros(target.rank_at(n + degree), source.rank_at(n))
            for n in range(len(source.ranks))
        )
        return CochainMap(source, target, degree, mats)


def cochain_map_sum(terms: Sequence[tuple[int, CochainMap]]) -> CochainMap:
    """Integer combination of cochain maps sharing source, target and degree."""
    if not terms:
        raise PreconditionError("empty combination")
    base = terms[0][1]
    for _, f in terms[1:]:
        if (f.source, f.target, f.degree) != (base.source, base.target, base.degree):
            raise PreconditionError("combination of incompatible maps")
    mats = []
    for n in range(len(base.mats)):
        acc = IntMatrix.zeros(*base.mats[n].shape)
        for c, f in terms:
            acc = acc + f.mats[n].scale(c)
        mats.append(acc)
    return CochainMap(base.source, base.target, base.degree, tuple(mats))


@dataclass(frozen=True)
class MappingCone:
    """Cone of a cochain map ``f : A -> C`` of degree ``d >= 0``,
    ``Cone^n = C^{n+k} (+) A^{n+k+1-d}`` with ``k = min(0, d - 1)``, the
    largest shift that keeps both ``A^0`` and ``C^0``.

    Differential ``D(c, a) = (delta c + (-1)^n f(a), delta a)``.
    ``inclusion`` is ``c -> (c, 0)`` of degree ``-k`` and ``projection`` is
    ``(c, a) -> a`` of degree ``k + 1 - d``, unsigned, so with ``f`` they
    form a triangle whose degrees add up to 1.  Each is built, and checked
    to commute, the first time it is read.
    """

    total: GradedComplex
    f: CochainMap

    @property
    def shift(self) -> int:
        return min(0, self.f.degree - 1)

    @cached_property
    def inclusion(self) -> CochainMap:
        c_cx, k = self.f.target, self.shift
        return CochainMap(c_cx, self.total, -k, tuple(
            IntMatrix.eye(self.total.rank_at(m - k), c_cx.rank_at(m), 0)
            for m in range(len(c_cx.ranks))
        ))

    @cached_property
    def projection(self) -> CochainMap:
        a_cx, c_cx, k = self.f.source, self.f.target, self.shift
        d = k + 1 - self.f.degree
        return CochainMap(self.total, a_cx, d, tuple(
            IntMatrix.eye(a_cx.rank_at(n + d), self.total.rank_at(n), c_cx.rank_at(n + k))
            for n in range(len(self.total.ranks))
        ))


def mapping_cone(f: CochainMap) -> MappingCone:
    """The cone of ``f``, its structural maps built on first read; a map of
    negative degree raises ``PreconditionError``."""
    if f.degree < 0:
        raise PreconditionError(f"mapping cones take maps of degree >= 0, not degree {f.degree}")
    a_cx, c_cx, d = f.source, f.target, f.degree
    k = min(0, d - 1)
    top = max(c_cx.top_degree - k, a_cx.top_degree + d - k - 1)
    ranks = tuple(c_cx.rank_at(n + k) + a_cx.rank_at(n + k + 1 - d) for n in range(top + 1))
    deltas = tuple(
        IntMatrix.from_blocks([
            [c_cx.delta_at(n + k), f.mat_at(n + k + 1 - d).scale(-1 if n % 2 else 1)],
            [IntMatrix.zeros(a_cx.rank_at(n + k + 2 - d), c_cx.rank_at(n + k)),
             a_cx.delta_at(n + k + 1 - d)],
        ])
        for n in range(top)
    )
    return MappingCone(GradedComplex(ranks, deltas), f)


def direct_sum(*parts: GradedComplex) -> GradedComplex:
    """Degreewise direct sum, the parts' bases concatenated in order."""
    top = max(p.top_degree for p in parts)
    ranks = tuple(sum(p.rank_at(n) for p in parts) for n in range(top + 1))
    deltas = tuple(
        IntMatrix.block_diag([p.delta_at(n) for p in parts]) for n in range(top)
    )
    return GradedComplex(ranks, deltas)


def _kron(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """Kronecker product, ``x[i][j] * y[k][l]`` at ``(i * y.rows + k, j * y.cols + l)``."""
    return IntMatrix(x.rows * y.rows, x.cols * y.cols, tuple(
        tuple((j * y.cols + l, s * t) for j, s in xrow for l, t in yrow)
        for xrow in x.nonzeros for yrow in y.nonzeros
    ))


def tensor_product(a: GradedComplex, b: GradedComplex) -> GradedComplex:
    """Graded tensor product with Koszul signs, ``(A (x) B)^n`` the sum of
    ``A^p (x) B^{n-p}`` over ``p = 0..n`` in order.

    ``delta(x (x) y) = delta x (x) y + (-1)^{|x|} x (x) delta y``, assembled
    by ``IntMatrix.from_blocks`` from the blocks ``delta_A (x) I`` and
    ``(-1)^p I (x) delta_B``.
    """
    if a.top_degree < 0 or b.top_degree < 0:
        return GradedComplex.empty()

    def block(n: int, p2: int, p: int) -> IntMatrix:  # A^p B^{n-p} -> A^p2 B^{n+1-p2}
        ra, rb = a.rank_at(p), b.rank_at(n - p)
        if p2 == p + 1:
            return _kron(a.delta_at(p), IntMatrix.eye(rb, rb, 0))
        if p2 == p:
            return _kron(IntMatrix.eye(ra, ra, 0), b.delta_at(n - p)).scale(-1 if p % 2 else 1)
        return IntMatrix.zeros(a.rank_at(p2) * b.rank_at(n + 1 - p2), ra * rb)

    top = a.top_degree + b.top_degree
    ranks = [sum(a.rank_at(p) * b.rank_at(n - p) for p in range(n + 1)) for n in range(top + 1)]
    return GradedComplex(tuple(ranks), tuple(
        IntMatrix.from_blocks([[block(n, p2, p) for p in range(n + 1)] for p2 in range(n + 2)])
        for n in range(top)
    ))
