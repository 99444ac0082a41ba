"""Truncated homotopy-quotient models for semi-free circle actions.

The contractible total space of the universal circle bundle is replaced by
the sphere S^{2N+1}, so every statement here is valid in degrees <= 2N-1 and
``stability_check`` certifies that window by comparing truncation levels.

Catalog closed forms (homotopy-equivalent replacements, not cell structures
on literal associated bundles):

* ``point_fixed``   -> base cp(N), Euler class u;
* ``monopole(k)``   -> base cp(N), Euler class k*u; the twisted total then
  has the rank-one torsion profile of the explicit (0, k) model in every
  degree, in particular H^2 = Z/k;
* ``free_hopf``     -> base sphere2 (boundary of the tetrahedron), Euler
  class the degree-2 generator; free actions admit an N-independent model
  because the homotopy quotient is the honest quotient;
* ``free_bundle``   -> its own Euler model, unchanged;
* ``multi_monopole``-> Mayer-Vietoris assembly: one cp(N) piece per fixed
  point glued over cp(1) boundary spheres to a wedge-of-spheres model of the
  free part of the quotient 3-sphere.

Two dualization routes are provided.  ``mathai_wu_dual`` feeds the catalog
Borel bundle to the transform directly.  ``bunke_route_dual`` returns the
same dual once ``lens_certificate`` has compared the twisted total degree by
degree with the explicit ``lens(k, N)`` model of each supported kind.  The
routes share the model and the transform, so only that certificate is
independent, and a caller wanting both routes dualizes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Optional

from .catalog import MAX_LEVEL, catalog_build, cp_restriction, euler_model_from_label_coeffs
from .complexes import (
    CochainMap,
    GradedComplex,
    MappingCone,
    direct_sum,
    first_shape_difference,
    mapping_cone,
)
from .errors import InternalCheckError, PreconditionError
from .gysin import (
    PROVENANCE_ALGEBRAIC,
    CupStructure,
    EulerModel,
    total_space,
)
from .matrices import IntMatrix, Vector
from .tdual import TDualResult, dualize, triple, triple_from_flux_coords

KINDS = ("point_fixed", "monopole", "free_hopf", "multi_monopole", "free_bundle")

# Most charges of a multi-monopole: the glued model grows with their number.  The
# slowest 20 found take ``verify --all`` under 3 s at MAX_TRUNCATION (tests/slow_inputs.py).
MAX_CHARGES = 20


@dataclass(frozen=True)
class SemiFreeSpace:
    """Decomposition record of a semi-free circle action.

    ``charges`` are the positive local charges at the fixed points
    (one entry for ``monopole``, at least one for ``multi_monopole``);
    ``flux`` is an optional H^3 class of the associated total model, given in
    generator coordinates at dualization time.
    """

    kind: str
    charges: tuple[int, ...] = ()
    bundle: Optional[EulerModel] = None
    flux: Optional[Vector] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown action kind {self.kind!r}")
        if self.kind == "monopole":
            if len(self.charges) != 1:
                raise PreconditionError("monopole takes exactly one charge")
        elif self.kind == "multi_monopole":
            if len(self.charges) < 1:
                raise PreconditionError("multi_monopole needs at least one charge")
            if len(self.charges) > MAX_CHARGES:
                raise PreconditionError(
                    f"{len(self.charges)} charges exceed borel.MAX_CHARGES = {MAX_CHARGES}"
                )
        elif self.charges:
            raise PreconditionError(f"{self.kind} takes no charges")
        if any(k <= 0 for k in self.charges):
            raise PreconditionError("charges must be positive integers")
        if self.kind == "free_bundle":
            if self.bundle is None:
                raise PreconditionError("free_bundle requires bundle data")
        elif self.bundle is not None:
            raise PreconditionError(f"{self.kind} takes no bundle data")


@dataclass(frozen=True)
class BorelBundle:
    """The Borel model of an action at one truncation level: the Euler model
    of its circle bundle, whose base is ``base_model``."""

    euler_s1: EulerModel

    @property
    def base_model(self) -> GradedComplex:
        return self.euler_s1.base


def mayer_vietoris_glue(
    a: GradedComplex,
    b: GradedComplex,
    overlap: GradedComplex,
    r_a: CochainMap,
    r_b: CochainMap,
) -> MappingCone:
    """Cochain model of the union of two pieces glued over an overlap.

    Returns the mapping cone of the restriction difference
    ``(x, y) -> r_a(x) - r_b(y)`` from ``A (+) B`` to the overlap, a
    degree-0 map, so ``Cone^n = overlap^{n-1} (+) (A (+) B)^n``.  Its
    ``total`` computes the cohomology of the union, and its long exact
    sequence is the Mayer-Vietoris sequence: ``gysin.cone_exactness(glue,
    labels, lo, hi)`` checks it node by node.
    """
    if r_a.degree != 0 or r_b.degree != 0:
        raise PreconditionError("restriction maps must have degree 0")
    if r_a.source != a or r_b.source != b:
        raise PreconditionError("restriction map sources do not match the pieces")
    if r_a.target != overlap or r_b.target != overlap:
        raise PreconditionError("restriction maps must land in the overlap")
    summed = direct_sum(a, b)
    mats = tuple(
        IntMatrix.from_blocks([[r_a.mat_at(n), r_b.mat_at(n).scale(-1)]])
        for n in range(len(summed.ranks))
    )
    return mapping_cone(CochainMap(summed, overlap, 0, mats))


def _wedge_of_spheres(count: int) -> GradedComplex:
    """Model of the 3-sphere with ``count + 1`` open balls removed."""
    return GradedComplex.with_zero_deltas((1, 0, count))


# Bound on the subset sums ``_sign_pattern`` stores (about 110 bytes each), so
# that no charge set can exhaust memory; 18 charges up to 10^6 stay below it.
MAX_SIGN_SEARCH_SUMS = 250_000


def _sign_pattern(charges: tuple[int, ...]) -> tuple[int, ...]:
    """First orientation assignment (lexicographic, +1 preferred) whose
    signed charge sum vanishes, as required for the free part of the quotient
    3-sphere to carry a bundle with the prescribed boundary data.

    "First" is the smallest mask of the scan ``signs[i] = -1`` iff bit ``i``
    is set, so the signs are fixed from the last charge down: +1 whenever the
    charges before it still reach the remaining half of the total.
    """
    half, odd = divmod(sum(charges), 2)
    first = {0: 0}  # subset sum <= half -> length of the shortest prefix reaching it
    for i, k in enumerate(() if odd else charges):
        new = [s + k for s in first if s + k <= half and s + k not in first]
        if len(first) + len(new) > MAX_SIGN_SEARCH_SUMS:
            raise PreconditionError(
                f"orientation search for {len(charges)} charges needs more than "
                f"{MAX_SIGN_SEARCH_SUMS} stored subset sums"
            )
        first.update(zip(new, repeat(i + 1)))
    if odd or half not in first:
        raise PreconditionError(
            f"no orientation assignment of charges {charges} glues over the 3-sphere "
            "(signed charge sum cannot vanish)"
        )
    signs = []
    for i in reversed(range(len(charges))):
        signs.append(1 if first.get(half, i + 1) <= i else -1)
        half -= charges[i] if signs[-1] < 0 else 0
    return tuple(reversed(signs))


def _glued_cup(glued: GradedComplex, free_part: GradedComplex, piece: GradedComplex,
               sphere: GradedComplex, signs: tuple[int, ...], z: Vector) -> CochainMap:
    """Cup operator of a degree-2 cocycle ``z`` of a glued multi-monopole base.

    C^2 of the glued base is free part, then pieces (the overlap has no
    degree-1 cochains), so ``z = (c, b)``.  Componentwise the operator cups
    with ``c`` on the free part (only the unit pairs nontrivially), with
    ``b_i * u`` on piece i, and with the common restriction on overlap sphere
    i, which sits one degree lower inside the cone.  This commutes with the
    cone differential because the restrictions are ring maps on the models
    involved.
    """
    split = free_part.rank_at(2)
    free_coeffs, piece_coeffs = z[:split], z[split:]
    return CochainMap(glued, glued, 2, tuple(
        IntMatrix.block_diag(
            [IntMatrix.from_rows([[x] for x in free_coeffs], cols=1) if d == 0
             else IntMatrix.zeros(free_part.rank_at(d + 2), free_part.rank_at(d))]
            + [IntMatrix.eye(piece.rank_at(d + 2), piece.rank_at(d), 0).scale(b)
               for b in piece_coeffs]
            + [IntMatrix.eye(sphere.rank_at(d + 1), sphere.rank_at(d - 1), 0).scale(s * b)
               for s, b in zip(signs, piece_coeffs)]
        )
        for d in range(len(glued.ranks))
    ))


# A command reads levels N and N + 1 of one charge set.
@lru_cache(maxsize=32)
def _multi_monopole_bundle(charges: tuple[int, ...], n: int) -> BorelBundle:
    """Glued Borel base of the charges at level N, with the ``_glued_cup``
    product and the Euler class of the signed charges."""
    m = len(charges)
    signs = _sign_pattern(charges)
    free_part = _wedge_of_spheres(m - 1)
    piece = catalog_build("cp", (n,)).complex
    sphere = catalog_build("cp", (1,)).complex
    pieces = direct_sum(*(piece,) * m)
    overlaps = direct_sum(*(sphere,) * m)

    # free part restricts with differences c_j - c_{j-1} to consecutive
    # boundary spheres; unit restricts to every component
    r_a = CochainMap(free_part, overlaps, 0, (
        IntMatrix.from_rows([[1]] * m, cols=1),
        IntMatrix.zeros(0, 0),
        IntMatrix.eye(m, m - 1, 0) + IntMatrix.eye(m, m - 1, -1).scale(-1),
    ))

    # each cp(N) piece restricts to its boundary sphere through the skeleton
    # truncation, with the orientation sign on the degree-2 generator
    trunc = cp_restriction(n, 1)
    r_b = CochainMap(pieces, overlaps, 0, tuple(
        IntMatrix.block_diag([trunc.mat_at(d).scale(s if d == 2 else 1) for s in signs])
        for d in range(len(pieces.ranks))
    ))
    glued = mayer_vietoris_glue(free_part, pieces, overlaps, r_a, r_b).total
    cup = CupStructure((), (), (_glued_cup, glued, free_part, piece, sphere, signs))

    # Euler cocycle: k_i * u_i on piece i plus the free-part class whose
    # boundary values match the signed charges
    free_coeffs = tuple(accumulate(s * k for s, k in zip(signs[:-1], charges[:-1])))
    euler = free_coeffs + charges
    return BorelBundle(EulerModel(glued, euler, cup.operator(euler), PROVENANCE_ALGEBRAIC, cup))


# Largest truncation N of an action whose model is built at level N: the
# stability check also builds level N + 1, which catalog.MAX_LEVEL bounds.
MAX_TRUNCATION = MAX_LEVEL - 1


def _check_truncation(space: SemiFreeSpace, n: int) -> None:
    """Reject an action's truncation before anything is built, so that every
    command reading the action fails at the same levels."""
    if n < 1:
        raise PreconditionError("truncation level must be at least 1")
    if n > MAX_TRUNCATION and space.kind not in ("free_hopf", "free_bundle"):
        raise PreconditionError(
            f"truncation N = {n} exceeds borel.MAX_TRUNCATION = catalog.MAX_LEVEL - 1 "
            f"= {MAX_TRUNCATION} (the stability check builds level N + 1)"
        )


def truncated_borel(space: SemiFreeSpace, n: int) -> BorelBundle:
    """Catalog closed form of the truncated homotopy quotient at level N."""
    _check_truncation(space, n)
    return _borel_bundle(space, n)


def _borel_bundle(space: SemiFreeSpace, n: int) -> BorelBundle:
    if space.kind == "free_hopf":
        model = catalog_build("sphere2")
        return BorelBundle(euler_model_from_label_coeffs(model, {"vol": 1}))
    if space.kind == "free_bundle":
        return BorelBundle(space.bundle)
    if len(space.charges) > 1:
        return _multi_monopole_bundle(space.charges, n)
    # point_fixed is charge 1; monopole and a one-charge multi_monopole are charge k
    (k,) = space.charges or (1,)
    return BorelBundle(euler_model_from_label_coeffs(catalog_build("cp", (n,)), {"u": k}))


def mathai_wu_dual(space: SemiFreeSpace, n: int) -> TDualResult:
    """Dualize the truncated Borel bundle of the action."""
    model = truncated_borel(space, n).euler_s1
    flux = space.flux
    return dualize(triple(model) if flux is None else triple_from_flux_coords(model, flux))


# The lens(k, N) parameters whose twisted-cone shapes certify each kind that
# has a second route.
_SIMPLICIAL_ROUTE = {
    "point_fixed": lambda n, charges: (1, n),
    "monopole": lambda n, charges: (charges[0], n),
    "free_hopf": lambda n, charges: (1, 1),
}


def lens_certificate(space: SemiFreeSpace, n: int) -> str:
    """Empty when the twisted total of the action's Borel bundle has, in
    every degree, the shape of the explicit lens model of the same space;
    otherwise the first degree that differs with both shapes."""
    _check_truncation(space, n)
    if space.kind not in _SIMPLICIAL_ROUTE:
        raise PreconditionError(
            f"kind {space.kind!r} has no declared simplicial-space route"
        )
    total = total_space(_borel_bundle(space, n).euler_s1).total
    reference = catalog_build("lens", _SIMPLICIAL_ROUTE[space.kind](n, space.charges)).complex
    diff = first_shape_difference(total, reference, max(total.top_degree, reference.top_degree))
    if diff is None:
        return ""
    d, got, want = diff
    return (f"simplicial-route certification failed in degree {d}: "
            f"total gives {got}, independent model gives {want}")


def bunke_route_dual(space: SemiFreeSpace, n: int) -> TDualResult:
    """The dual of ``mathai_wu_dual``, returned once the lens certificate
    holds; a failed certificate is an engine fault."""
    failure = lens_certificate(space, n)
    if failure:
        raise InternalCheckError(failure)
    return mathai_wu_dual(space, n)


def multi_monopole_dual(charges: tuple[int, ...], n: int) -> TDualResult:
    """Assemble the glued Borel base for the given charges and dualize."""
    space = SemiFreeSpace("multi_monopole", charges=tuple(charges))
    return mathai_wu_dual(space, n)


def stability_check(space: SemiFreeSpace, n: int) -> str:
    """Compare truncations N and N+1 in degrees <= 2N-1.

    Both the base model and the twisted total must have equal cohomology in
    the window; this certifies the finite approximation level.  Degrees above
    every compared complex are zero on both sides and are not compared.
    Empty when stable; otherwise the lowest degree whose groups differ, base
    before total, with the shapes (torsion, free rank) at both levels.
    """
    _check_truncation(space, n)
    lo_bundle = _borel_bundle(space, n)
    hi_bundle = _borel_bundle(space, n + 1)
    lo_total = total_space(lo_bundle.euler_s1).total
    hi_total = total_space(hi_bundle.euler_s1).total
    top = min(2 * n - 1, max(lo_total.top_degree, hi_total.top_degree))
    diffs = [(side, diff) for side, diff in (
        ("base", first_shape_difference(lo_bundle.base_model, hi_bundle.base_model, top)),
        ("total", first_shape_difference(lo_total, hi_total, top)),
    ) if diff is not None]
    if not diffs:
        return ""
    # min keeps the first of equal degrees: base before total
    side, (d, lo, hi) = min(diffs, key=lambda e: e[1][0])
    return f"{side} H^{d} differs: {lo} at N={n}, {hi} at N={n + 1}"
