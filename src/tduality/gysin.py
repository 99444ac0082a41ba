"""Twisted total-space models of circle bundles and their Gysin sequence.

Given a base complex ``B``, a degree-2 cocycle ``e`` and a chain-level cup
operator ``mu = (e ~ .)``, the total space of the corresponding circle bundle
is modelled by the twisted total ``total_space``, the mapping cone of ``mu``

    T^n = B^n (+) B^{n-1},    D(phi, psi) = (delta phi + (-1)^n mu(psi), delta psi).

Its cohomology is computed from this complex directly, never assembled from
the exact sequence, so exactness of the induced long exact sequence

    ... -> H^n(B) -> H^n(T) -> H^{n-1}(B) -> H^{n+1}(B) -> ...

is a machine-checked statement rather than an assumption.  The connecting map
is ``(-1)^{m+1} (e ~ .)`` on ``H^m(B)``; the transfer orientation is the
``+`` convention, projecting ``(phi, psi)`` to ``psi``.

A base's ``CupStructure`` carries one operator ``z -> (z ~ .)`` on its
degree-2 cocycles, so the Euler model of a class is its generator
combination ``e`` with the operator of ``e``, on every kind of base.
``complexes.require_cocycle`` checks an ``EulerModel``'s representative, and
``CohomologyGroup.require_coords`` the coordinates of every class given.

One verifier, ``cone_exactness``, checks the long exact sequence of a
mapping cone through its inclusion, its projection and the map it cones.
``gysin_sequence`` gives it the total, whose inclusion and projection are
the pullback and the transfer; ``pullback`` and ``fiber_integration`` apply
their ``induced_matrix`` to coordinates.  For a ``borel.mayer_vietoris_glue``
it is the Mayer-Vietoris sequence.
Exactness at a node compares the Hermite forms of the image and kernel
lattices in its coordinates, both found by Hermite forms alone, so the
certificate shares no elimination with the Smith forms that built the
presentations it checks.  Neither lattice changes when a map is multiplied by -1, so the
connecting map goes in unsigned.  A node that is not exact carries a
witness: a kernel vector outside the image, or else an image vector outside
the kernel.

Three pure functions of immutable, hash-once arguments keep their results in
bounded LRU caches: ``total_space`` (``maxsize=128``), ``realize_euler_class``
(``maxsize=64``, through ``_realize_euler_class``) and ``induced_matrix``
(``maxsize=4096``).  So a warm dualization builds each dual Euler model and
each induced matrix once.  Exactness verdicts are not cached: every
``cone_exactness`` call decides its nodes again, with three Hermite forms
at each nonzero node (a zero node is exact at once), and finds a witness
only for a node that is not exact.  A cone builds its structural maps, and
checks that they commute, the first time each is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .complexes import (
    CochainMap,
    CohomologyGroup,
    GradedComplex,
    MappingCone,
    class_coordinates,
    cohomology,
    mapping_cone,
    require_cocycle,
    validate_complex,
)
from .errors import InternalCheckError, PreconditionError
from .matrices import IntMatrix, Vector, hash_once, hermite_normal_form, lattice_member
from .simplicial import Cochain, SimplicialComplex, cup_operator

PROVENANCE_AW = "simplicial-AW"
PROVENANCE_ALGEBRAIC = "catalog-algebraic"

SIGN_CONVENTION = (
    "twisted differential D(phi, psi) = (delta phi + (-1)^n e~psi, delta psi); "
    "transfer orientation +, (phi, psi) -> psi; "
    "connecting map (-1)^(m+1) e~ on degree m of the base"
)

NO_CUP_PRODUCT = "base carries no cup structure; only the zero Euler class is realizable"

GYSIN_LABELS = ("H^{}(B)", "H^{}(E)", "H^{}(B) [transfer target]")


@hash_once
@dataclass(frozen=True)
class CupStructure:
    """Declared degree-2 labels of a base with their cocycles, and the cup
    operator ``z -> (z ~ .)`` on the degree-2 cocycles of the base.

    The operator is the Alexander-Whitney product when ``simplicial`` is
    set; otherwise ``product`` is ``(function, *args)`` and the operator of
    ``z`` is ``function(*args, z)``, with ``function`` defined at module
    level so that a structure compares, hashes and pickles by what
    determines its operator.  An empty ``product`` on a non-simplicial base
    declares no cup product.  Every operator is linear in ``z``.
    """

    labels: tuple[str, ...]
    reps: tuple[Vector, ...]
    product: tuple = ()
    simplicial: Optional[SimplicialComplex] = None

    def __post_init__(self):
        if len(self.labels) != len(self.reps):
            raise ValueError("cup structure arity mismatch")

    def operator(self, z: Sequence[int]) -> CochainMap:
        """The degree +2 cochain map ``(z ~ .)`` of a degree-2 cocycle ``z``."""
        if self.simplicial is not None:
            return cup_operator(Cochain(self.simplicial, 2, tuple(z)))
        if not self.product:
            raise PreconditionError(NO_CUP_PRODUCT)
        function, *args = self.product
        return function(*args, tuple(z))


@hash_once
@dataclass(frozen=True)
class EulerModel:
    """Base complex plus a 2-cocycle and the cup operator it induces; the
    default, empty ``cup`` declares no cup product."""

    base: GradedComplex
    euler_rep: Vector
    mu: CochainMap
    provenance: str
    cup: CupStructure = CupStructure((), (), ())

    def __post_init__(self):
        if self.provenance not in (PROVENANCE_AW, PROVENANCE_ALGEBRAIC):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        require_cocycle(self.base, 2, self.euler_rep, "Euler representative")
        if self.mu.source != self.base or self.mu.target != self.base:
            raise PreconditionError("mu must be an endomap of the base")
        if self.mu.degree != 2:
            raise PreconditionError("mu must have degree +2")
        # chain-map identity is enforced by CochainMap itself


def zero_euler_model(base: GradedComplex, cup: CupStructure = CupStructure((), (), ()),
                     provenance: str = PROVENANCE_ALGEBRAIC) -> EulerModel:
    zeros = (0,) * base.rank_at(2)
    return EulerModel(base, zeros, CochainMap.zero(base, base, 2), provenance, cup)


def realize_euler_class(
    base: GradedComplex,
    cup: CupStructure,
    coords: Sequence[int],
    provenance: str,
) -> EulerModel:
    """Euler model for the class with the given coordinates in H^2(base).

    The representative is the combination of the H^2 generators with these
    coordinates and the operator the cup operator of that representative.
    Fails when the class is nonzero and the base has no cup product.  Equal
    arguments give the same model object; a failure is not kept, so it is
    raised again on every call.
    """
    return _realize_euler_class(base, cup, tuple(coords), provenance)


# ``verify --all`` on the shipped sample realizes 18 models.
@lru_cache(maxsize=64)
def _realize_euler_class(
    base: GradedComplex,
    cup: CupStructure,
    coords: Vector,
    provenance: str,
) -> EulerModel:
    group = cohomology(base, 2)
    group.require_coords(coords, "Euler class", "the base")
    if all(c == 0 for c in coords):
        return zero_euler_model(base, cup, provenance)
    rep = group.rep_from_coords(coords)
    return EulerModel(base, rep, cup.operator(rep), provenance, cup)


# ``verify --all`` builds 23 totals.
@lru_cache(maxsize=128)
def total_space(model: EulerModel) -> MappingCone:
    """The twisted total, the cone of ``mu``; it satisfies ``validate_complex``."""
    report = validate_complex(model.base)
    if not report.valid:
        raise PreconditionError(
            f"base is not a cochain complex at degree {report.degree}: {report.detail}"
        )
    cone = mapping_cone(model.mu)
    report = validate_complex(cone.total)
    if not report.valid:
        raise InternalCheckError(f"twisted total complex broken: {report.detail}")
    return cone


def _induced_class(f: CochainMap, n: int, coords: Vector, space: str) -> Vector:
    """``f`` on the class with ``coords`` in ``H^n`` of ``space``, by ``induced_matrix``."""
    cohomology(f.source, n).require_coords(coords, "class", space)
    return cohomology(f.target, n + f.degree).reduce(induced_matrix(f, n).apply(coords))


def pullback(model: EulerModel, n: int, coords: Vector) -> Vector:
    """Induced map H^n(B) -> H^n(E) of the bundle projection, the total's
    ``inclusion``; a degree outside the complexes is the zero group."""
    return _induced_class(total_space(model).inclusion, n, coords, "the base")


def fiber_integration(model: EulerModel, n: int, coords: Vector) -> Vector:
    """Transfer H^n(E) -> H^{n-1}(B), the total's ``projection`` to the psi
    component; a degree outside the complexes is the zero group."""
    return _induced_class(total_space(model).projection, n, coords, "the total model")


# ---------------------------------------------------------------------------
# Exactness machinery for long exact sequences of finitely generated groups.
# Groups are presented by CohomologyGroup coordinates; a homomorphism is the
# integer matrix of generator images.  im == ker is decided by comparing the
# Hermite forms of the corresponding lattices in coordinate space; the kernel
# comes from one Hermite form of the map's graph with the target relations,
# with no Smith form.
# ---------------------------------------------------------------------------


# A Gysin check over cp(200) reads 1207 matrices.
@lru_cache(maxsize=4096)
def induced_matrix(f: CochainMap, n: int) -> IntMatrix:
    """Matrix of ``H^n(source) -> H^{n+d}(target)`` induced by ``f`` of
    degree ``d``: column ``j`` is the target coordinates of the image of
    generator ``j``."""
    m = n + f.degree
    src, dst = cohomology(f.source, n), cohomology(f.target, m)
    cols = [class_coordinates(f.target, m, f.apply(n, gen)) for gen in src.generators]
    rows = (tuple(col[i] for col in cols) for i in range(dst.coord_dim))
    return IntMatrix._computed(rows, src.coord_dim)


def _lattices(incoming: IntMatrix, node: CohomologyGroup, outgoing: IntMatrix,
              nxt: CohomologyGroup) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Hermite forms of ``im(incoming)`` and ``ker(outgoing)`` inside ``node``.

    The kernel ``{x : outgoing x in R'}``, ``R'`` the relations of ``nxt``,
    is the right part of the rows with a zero left part in the Hermite form
    of the rows ``(outgoing e_j | e_j)`` and ``(r' | 0)``.  Both lattices
    contain the relations of ``node``.
    """
    dim, width = node.coord_dim, nxt.coord_dim
    relations = node.relation_rows()
    image = hermite_normal_form([*zip(*incoming.entries), *relations], dim)
    graph = [outgoing.col(j) + (0,) * j + (1,) + (0,) * (dim - j - 1) for j in range(dim)]
    graph += [r + (0,) * dim for r in nxt.relation_rows()]
    kernel_rows = [row[width:] for row in hermite_normal_form(graph, width + dim)
                   if not any(row[:width])]
    return image, hermite_normal_form(kernel_rows + list(relations), dim)


def exact_at(incoming: IntMatrix, node: CohomologyGroup, outgoing: IntMatrix,
             nxt: CohomologyGroup) -> bool:
    """Check ``im(incoming) == ker(outgoing)`` inside ``node``; a zero ``node`` is exact."""
    image, kernel = _lattices(incoming, node, outgoing, nxt) if node.coord_dim else ((), ())
    return image == kernel


def exactness_witness(incoming: IntMatrix, node: CohomologyGroup, outgoing: IntMatrix,
                      nxt: CohomologyGroup) -> Optional[Vector]:
    """A vector of ``node`` in one lattice of ``exact_at`` and not the other:
    the first Hermite row of the kernel outside the image, or else the first
    Hermite row of the image outside the kernel; ``None`` at an exact node."""
    image, kernel = _lattices(incoming, node, outgoing, nxt)
    outside = [row for row in kernel if not lattice_member(row, image)]
    outside += [row for row in image if not lattice_member(row, kernel)]
    return outside[0] if outside else None


@dataclass(frozen=True)
class SequenceNode:
    """One node of a long exact sequence; a node that is not exact carries
    ``exactness_witness``'s vector in its coordinates."""

    label: str
    exact: bool
    witness: Optional[Vector] = None


@dataclass(frozen=True)
class SequenceReport:
    """Nodewise exactness of a long exact sequence, three nodes per degree."""

    degree_range: tuple[int, int]
    nodes: tuple[SequenceNode, ...]

    @property
    def exact(self) -> bool:
        return all(node.exact for node in self.nodes)


def cone_exactness(
    cone: MappingCone, labels: tuple[str, str, str], lo: int, hi: int,
) -> SequenceReport:
    """Exactness of the long exact sequence of the cone of ``f : A -> C`` of
    degree ``d`` and shift ``k`` (``complexes.MappingCone``),
    ``-> H^n(C) -> H^{n-k}(Cone) -> H^{n+1-d}(A) -> H^{n+1}(C) ->``, through
    ``inclusion``, ``projection`` and ``f``, for ``n`` in ``lo + k..hi``.

    Starting at ``n = lo + k`` makes degree ``lo`` of every term a node once
    ``hi >= lo + d - 1``.  ``labels`` name the ``C``, ``Cone`` and ``A`` nodes,
    each a format string receiving its node's degree.
    """
    if lo < 0 or hi < lo:
        raise PreconditionError(f"bad degree range {lo}..{hi}")
    maps = (cone.inclusion, cone.projection, cone.f)
    nodes = []
    for n in range(lo + cone.shift, hi + 1):
        d = n
        for into, out, label in zip(maps[-1:] + maps[:-1], maps, labels):
            args = (
                induced_matrix(into, d - into.degree),
                cohomology(out.source, d),
                induced_matrix(out, d),
                cohomology(out.target, d + out.degree),
            )
            exact = exact_at(*args)
            witness = None if exact else exactness_witness(*args)
            nodes.append(SequenceNode(label.format(d), exact, witness))
            d += out.degree
    return SequenceReport((lo + cone.shift, hi), tuple(nodes))


def gysin_sequence(model: EulerModel, lo: int, hi: int) -> SequenceReport:
    """Exactness at every node of the Gysin sequence in degrees ``lo..hi`` of
    the total space: pullback, transfer, then cup with ``e`` unsigned."""
    return cone_exactness(total_space(model), GYSIN_LABELS, lo, hi)
