"""Byte-exact shipped models.

Algebraic models:

* ``cp(N)`` - truncated complex projective space: ranks 1,0,1,...,1 through
  degree 2N, zero coboundaries, cup with ``c u`` acting as ``c`` times the
  identity degree shift.  The product is declared data, justified by
  uniqueness of the truncated polynomial ring on one degree-2 generator; the
  lens cross-check validates it indirectly.
* ``lens(k, N)`` - explicit model with rank 1 in each degree 0..2N+1 and
  alternating (0, k) coboundaries.  Used as the independent oracle for
  twisted-cone totals; it carries no cup product.
* ``circle``, ``point`` - the obvious zero-coboundary models.

Simplicial models (fixed facet lists, so goldens are stable):

* ``sphere2`` - boundary of the tetrahedron.
* ``torus2`` - the 7-vertex triangulation with facets {i, i+1, i+3} and
  {i, i+2, i+3} mod 7.
* ``rp2`` - the minimal 6-vertex triangulation.

Simplicial models declare the computed H^2 generator cocycle as their
degree-2 label and cup through the Alexander-Whitney product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .complexes import CochainMap, GradedComplex, cohomology, require_cocycle
from .errors import PreconditionError
from .gysin import (
    PROVENANCE_ALGEBRAIC,
    PROVENANCE_AW,
    CupStructure,
    EulerModel,
    realize_euler_class,
)
from .matrices import IntMatrix, Vector
from .simplicial import SimplicialComplex, cochain_complex_of, from_facets

SPHERE2_FACETS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

TORUS7_FACETS = tuple(
    sorted(
        {tuple(sorted(((i % 7), ((i + 1) % 7), ((i + 3) % 7)))) for i in range(7)}
        | {tuple(sorted(((i % 7), ((i + 2) % 7), ((i + 3) % 7)))) for i in range(7)}
    )
)

RP2_FACETS = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
)

CATALOG_NAMES = ("cp", "lens", "circle", "point", "sphere2", "torus2", "rp2")

SHIPPED_LENS_PARAMETERS = tuple((k, n) for k in (1, 2, 3, 5, 7) for n in (1, 2, 3))

# Largest level N of cp(N) and lens(k, N), which have 2N+1 and 2N+2 degrees:
# levels come from model files, and one must not exhaust memory or time.
MAX_LEVEL = 200


@dataclass(frozen=True)
class CatalogModel:
    name: str
    params: tuple[int, ...]
    complex: GradedComplex
    cup: CupStructure

    @property
    def simplicial(self) -> Optional[SimplicialComplex]:
        return self.cup.simplicial

    @property
    def provenance(self) -> str:
        """Alexander-Whitney exactly when the model is simplicial."""
        return PROVENANCE_AW if self.simplicial is not None else PROVENANCE_ALGEBRAIC

    @property
    def display_name(self) -> str:
        return display_name(self.name, self.params)


def display_name(name: str, params: tuple[int, ...] = ()) -> str:
    """``name(p1, p2)`` of a model and its parameters, ``name`` without any."""
    return f"{name}({', '.join(map(str, params))})" if params else name


def _cp_complex(n: int) -> GradedComplex:
    ranks = tuple(1 if d % 2 == 0 else 0 for d in range(2 * n + 1))
    return GradedComplex.with_zero_deltas(ranks)


def _cp_cup(cx: GradedComplex, z: Vector) -> CochainMap:
    """Cup with ``c u`` on cp(N): ``c`` times the identity degree shift."""
    (c,) = z
    return CochainMap(cx, cx, 2, tuple(
        IntMatrix.eye(cx.rank_at(d + 2), cx.rank_at(d), 0).scale(c) for d in range(len(cx.ranks))
    ))


def _lens_complex(k: int, n: int) -> GradedComplex:
    ranks = (1,) * (2 * n + 2)
    deltas = tuple(
        IntMatrix._computed([[k if d % 2 == 1 else 0]], 1) for d in range(2 * n + 1)
    )
    return GradedComplex(ranks, deltas)


def _simplicial_model(name: str, facets) -> CatalogModel:
    k = from_facets(facets)
    cx = cochain_complex_of(k)
    h2 = cohomology(cx, 2)
    label = "w" if name == "rp2" else "vol"
    labels = (label,) if h2.coord_dim else ()
    return CatalogModel(name, (), cx, CupStructure(labels, h2.generators[:1], (), simplicial=k))


def _check_level(n: int) -> None:
    if n > MAX_LEVEL:
        raise PreconditionError(f"level N = {n} exceeds catalog.MAX_LEVEL = {MAX_LEVEL}")


# The models without parameters.
_FIXED_MODELS = {
    "circle": lambda: CatalogModel(
        "circle", (), GradedComplex.with_zero_deltas((1, 1)), CupStructure((), (), ())
    ),
    "point": lambda: CatalogModel(
        "point", (), GradedComplex.with_zero_deltas((1,)), CupStructure((), (), ())
    ),
    "sphere2": lambda: _simplicial_model("sphere2", SPHERE2_FACETS),
    "torus2": lambda: _simplicial_model("torus2", TORUS7_FACETS),
    "rp2": lambda: _simplicial_model("rp2", RP2_FACETS),
}


# ``verify --all`` builds 25 models.
@lru_cache(maxsize=128)
def catalog_build(name: str, params: tuple[int, ...] = ()) -> CatalogModel:
    """Build a shipped model by name; deterministic for fixed arguments."""
    params = tuple(int(p) for p in params)
    if name == "cp":
        if len(params) != 1 or params[0] < 1:
            raise PreconditionError("cp requires one parameter N >= 1")
        (n,) = params
        _check_level(n)
        cx = _cp_complex(n)
        return CatalogModel(name, params, cx, CupStructure(("u",), ((1,),), (_cp_cup, cx)))
    if name == "lens":
        if len(params) != 2 or params[0] < 1 or params[1] < 1:
            raise PreconditionError("lens requires parameters k >= 1, N >= 1")
        k, n = params
        _check_level(n)
        return CatalogModel(name, params, _lens_complex(k, n), CupStructure((), (), ()))
    if name in _FIXED_MODELS:
        if params:
            raise PreconditionError(f"{name} takes no parameters")
        return _FIXED_MODELS[name]()
    raise PreconditionError(f"unknown catalog model {name!r}")


def euler_model_from_label_coeffs(
    model: CatalogModel, coeffs: dict[str, int]
) -> EulerModel:
    """Euler model for an integer combination of the declared degree-2 labels."""
    unknown = sorted(set(coeffs) - set(model.cup.labels))
    if unknown:
        raise PreconditionError(
            f"unknown degree-2 labels {unknown} on {model.display_name}; "
            f"declared: {list(model.cup.labels) or 'none'}"
        )
    rep = [0] * model.complex.rank_at(2)
    for label, c in coeffs.items():
        for k, x in enumerate(model.cup.reps[model.cup.labels.index(label)]):
            rep[k] += c * x
    coords = cohomology(model.complex, 2).coordinates(rep)
    return realize_euler_class(model.complex, model.cup, coords, model.provenance)


def euler_model_from_cocycle(model: CatalogModel, rep: Vector) -> EulerModel:
    """Euler model for an explicit 2-cocycle representative, gated by ``require_cocycle``.

    Simplicial models keep any cocycle (Alexander-Whitney operator);
    algebraic models replace it by the generator combination of its class.
    """
    require_cocycle(model.complex, 2, rep, "Euler representative")
    if model.simplicial is not None:
        mu = model.cup.operator(rep)
        return EulerModel(model.complex, tuple(rep), mu, model.provenance, model.cup)
    coords = cohomology(model.complex, 2).coordinates(rep)
    return realize_euler_class(model.complex, model.cup, coords, model.provenance)


def cp_restriction(n_from: int, n_to: int) -> CochainMap:
    """Chain-level truncation cp(N) -> cp(M) for M <= N, identity through
    degree 2M.  Shipped for Mayer-Vietoris gluing; the chain-map identity is
    checked at construction."""
    if n_to > n_from:
        raise PreconditionError("restriction goes to a smaller truncation")
    src = catalog_build("cp", (n_from,)).complex
    dst = catalog_build("cp", (n_to,)).complex
    return CochainMap(src, dst, 0, tuple(
        IntMatrix.eye(dst.rank_at(d), src.rank_at(d), 0) for d in range(len(src.ranks))
    ))
