"""The T-duality transform on (base, Euler class, flux) triples.

Input: an Euler model for a circle bundle and a degree-3 cocycle ``H`` of its
twisted total complex, stored as the pair (phi_3, psi_2) of base cochains.
The transform:

* dual Euler class  ``e_hat = [psi_2]``, the fiber integration of ``[H]``;
* dual flux         ``H_hat = (phi_hat_3, e_rep)`` on the dual total space,
  where ``delta phi_hat_3 = e_hat ~ e_rep`` is solved over the integers on
  the base's kept Smith form of ``delta[3]``.  Solvability follows from Gysin
  exactness whenever ``e_hat`` is the pushforward of an honest flux class;
  failure is reported as the obstruction ``[e_hat ~ e] != 0``.

The dual flux is determined only modulo the pullback of H^3(base); that coset
(the ambiguity lattice) is reported explicitly, and a separate operation
picks the canonical representative, so nothing is silently chosen.
``complexes.require_cocycle`` checks a given flux and ``require_coords`` its
coordinates; the dual flux ``dualize`` builds fails as an engine fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (class_coordinates, cohomology, cohomology_shapes, require_cocycle,
                        solve_coboundary)
from .errors import InternalCheckError, PreconditionError
from .gysin import (
    EulerModel,
    induced_matrix,
    realize_euler_class,
    total_space,
)
from .matrices import (
    Vector,
    hermite_normal_form,
    lattice_member,
    reduce_mod_lattice,
)


@dataclass(frozen=True)
class TDualityTriple:
    """Bundle data plus a flux cocycle on its total space."""

    model: EulerModel
    flux_rep: Vector  # vector in T^3 = B^3 (+) B^2

    def __post_init__(self):
        require_cocycle(total_space(self.model).total, 3, self.flux_rep, "flux")

    @property
    def psi2(self) -> Vector:
        return self.flux_rep[self.model.base.rank_at(3):]


def triple(model: EulerModel) -> TDualityTriple:
    """Triple with the zero flux."""
    return TDualityTriple(model, (0,) * total_space(model).total.rank_at(3))


def triple_from_flux_coords(model: EulerModel, coords: Vector) -> TDualityTriple:
    """Triple whose flux is the H^3 class with the given coordinates."""
    group = cohomology(total_space(model).total, 3)
    group.require_coords(coords, "flux", "the total model")
    return TDualityTriple(model, group.rep_from_coords(coords))


def push_flux(t: TDualityTriple) -> Vector:
    """Coordinates of the dual Euler class, the transfer of the flux class."""
    return class_coordinates(t.model.base, 2, t.psi2)


@dataclass(frozen=True)
class TDualResult:
    triple: TDualityTriple
    dual_euler: Vector              # coordinates in H^2(base)
    dual_model: EulerModel
    dual_flux: Vector               # vector in the dual T^3
    ambiguity: tuple[Vector, ...]   # pullback generators, coordinates in H^3(dual total)
    ambiguity_lattice: tuple[Vector, ...]  # HNF of the ambiguity plus H^3 torsion relations
    ambiguity_rank: int

    def dual_flux_coords(self) -> Vector:
        dual_total = total_space(self.dual_model).total
        return class_coordinates(dual_total, 3, self.dual_flux)


def dualize(t: TDualityTriple) -> TDualResult:
    """Apply the transform; a dual flux that is not a cocycle of the dual
    twisted complex raises an internal error."""
    base = t.model.base
    e_hat_coords = push_flux(t)
    dual_model = realize_euler_class(
        base, t.model.cup, e_hat_coords, t.model.provenance
    )

    # dual flux (phi_hat, psi_hat): psi_hat = original Euler representative;
    # cocycle condition in the dual twisted complex: delta phi_hat = e_hat ~ psi_hat
    psi_hat = t.model.euler_rep
    rhs = dual_model.mu.apply(2, psi_hat)
    phi_hat = solve_coboundary(base, 3, rhs)
    if phi_hat is None:
        raise PreconditionError(
            "obstruction [e_hat ~ e] != 0: the dual flux equation has no integer solution"
        )
    dual_cone = total_space(dual_model)
    dual_flux = phi_hat + psi_hat

    dz = dual_cone.total.delta_at(3).apply(dual_flux)
    if any(dz):
        raise InternalCheckError("constructed dual flux is not a cocycle")

    dual_h3 = cohomology(dual_cone.total, 3)
    amb = ()
    if base.rank_at(3) and cohomology_shapes(base, 3)[3] != ((), 0):  # else H^3(B) = 0
        pulled = induced_matrix(dual_cone.inclusion, 3)
        amb = pulled.columns()
    relations = dual_h3.relation_rows()
    full = hermite_normal_form(list(amb) + list(relations), dual_h3.coord_dim)
    # the relations f_i e_i (f_i >= 2) are independent, so they span a
    # lattice of rank len(relations)
    ambiguity_rank = len(full) - len(relations)

    return TDualResult(
        triple=t,
        dual_euler=e_hat_coords,
        dual_model=dual_model,
        dual_flux=dual_flux,
        ambiguity=amb,
        ambiguity_lattice=full,
        ambiguity_rank=ambiguity_rank,
    )


def canonical_flux_rep(result: TDualResult) -> Vector:
    """Canonical coordinates of the dual flux class modulo the ambiguity
    lattice: the unique coset representative produced by Hermite reduction,
    lexicographically least with nonnegative pivot coordinates."""
    coords = result.dual_flux_coords()
    return reduce_mod_lattice(coords, result.ambiguity_lattice)


def flux_congruent(result: TDualResult, coords_a: Vector, coords_b: Vector) -> bool:
    """Do two H^3 classes of the dual total space agree modulo the ambiguity?"""
    diff = tuple(a - b for a, b in zip(coords_a, coords_b))
    return lattice_member(diff, result.ambiguity_lattice)


@dataclass(frozen=True)
class DoubleDualReport:
    euler_exact: bool
    flux_congruent: bool
    flux_comparable: bool
    first: TDualResult
    second: TDualResult

    @property
    def ok(self) -> bool:
        return self.euler_exact and self.flux_comparable and self.flux_congruent


def double_dual_check(t: TDualityTriple) -> DoubleDualReport:
    """Dualize twice; the Euler class must return exactly and the flux must
    return modulo the reported ambiguity lattice.

    The flux comparison needs the double-dual total complex to coincide with
    the original one, which holds whenever the input model's Euler
    representative came from class coordinates (all catalog constructors).
    Hand-built representatives that differ from the reduced one make the
    comparison unavailable, which the report flags rather than hiding.
    """
    first = dualize(t)
    second = dualize(TDualityTriple(first.dual_model, first.dual_flux))

    original_euler = class_coordinates(t.model.base, 2, t.model.euler_rep)
    euler_exact = second.dual_euler == original_euler

    second_total = total_space(second.dual_model).total
    first_total = total_space(t.model).total
    if second_total != first_total:
        return DoubleDualReport(euler_exact, False, False, first, second)
    original_coords = class_coordinates(first_total, 3, t.flux_rep)
    roundtrip_coords = second.dual_flux_coords()
    congruent = flux_congruent(second, roundtrip_coords, original_coords)
    return DoubleDualReport(euler_exact, congruent, True, first, second)
