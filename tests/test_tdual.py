import random

import pytest

from tduality.catalog import catalog_build, euler_model_from_cocycle, euler_model_from_label_coeffs
from tduality.complexes import class_coordinates, cohomology
from tduality.errors import PreconditionError
from tduality.gysin import total_space, zero_euler_model
from tduality.tdual import (
    TDualityTriple,
    canonical_flux_rep,
    double_dual_check,
    dualize,
    flux_congruent,
    push_flux,
    triple,
    triple_from_flux_coords,
)


def cp_bundle(n, k):
    return euler_model_from_label_coeffs(catalog_build("cp", (n,)), {"u": k})


def torus_trivial():
    torus = catalog_build("torus2")
    return zero_euler_model(torus.complex, torus.cup)


def torus_flux_triple(j):
    model = torus_trivial()
    vol = cohomology(model.base, 2).generators[0]
    rep = (0,) * model.base.rank_at(3) + tuple(j * x for x in vol)
    return TDualityTriple(model, rep)


def test_push_flux_zero():
    t = triple(cp_bundle(2, 4))
    assert push_flux(t) == (0,)


def test_push_flux_torus_volume():
    t = torus_flux_triple(3)
    assert push_flux(t) == (3,)


def test_flux_must_be_cocycle():
    model = cp_bundle(2, 2)
    # T^3 = B^3 (+) B^2 = 0 (+) Z and the twisted differential sends psi to
    # -k psi u^2 in degree 4, so psi = 1 is not closed
    with pytest.raises(PreconditionError, match="not a cocycle"):
        TDualityTriple(model, (1,))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dualize_monopole_bundles(k, n):
    result = dualize(triple(cp_bundle(n, k)))
    assert result.dual_euler == (0,)
    assert all(x == 0 for x in result.dual_model.euler_rep)
    assert canonical_flux_rep(result) == (k,)
    assert result.ambiguity_rank == 0
    dual_total = total_space(result.dual_model).total
    assert not any(dual_total.delta_at(3).apply(result.dual_flux))


def test_dualize_unit_charge_gives_generator():
    result = dualize(triple(cp_bundle(3, 1)))
    assert canonical_flux_rep(result) == (1,)


def test_dualize_torus_flux():
    for j in (1, 2, 5):
        result = dualize(torus_flux_triple(j))
        assert result.dual_euler == (j,)
        # original bundle is trivial, so the dual flux vanishes exactly
        assert canonical_flux_rep(result) == (0,) * len(canonical_flux_rep(result))


def test_dualize_trivial_triple():
    for name, params in (("torus2", ()), ("sphere2", ()), ("cp", (2,))):
        model_data = catalog_build(name, params)
        result = dualize(triple(zero_euler_model(model_data.complex, model_data.cup)))
        assert all(x == 0 for x in result.dual_euler)
        assert all(x == 0 for x in result.dual_flux)


def test_defining_equation_holds_after_dualize():
    from tduality.gysin import fiber_integration

    for k in (1, 3):
        t = triple(cp_bundle(2, k))
        result = dualize(t)
        flux_coords = result.dual_flux_coords()
        back = fiber_integration(result.dual_model, 3, flux_coords)
        assert back == class_coordinates(t.model.base, 2, t.model.euler_rep)


def test_canonical_flux_rep_is_identity_without_ambiguity():
    result = dualize(triple(cp_bundle(2, 3)))
    assert result.ambiguity == ()
    assert canonical_flux_rep(result) == result.dual_flux_coords()


def sphere3_trivial():
    # rank-one model of the 3-sphere: H^3 nonzero, so the ambiguity lattice
    # of duals over it is visible
    base_model = catalog_build("lens", (1, 1))
    return zero_euler_model(base_model.complex, base_model.cup)


def test_ambiguity_over_three_sphere_base():
    model = sphere3_trivial()
    t = triple_from_flux_coords(model, (1,))
    result = dualize(t)
    assert result.dual_euler == ()  # H^2 of the base is trivial
    assert result.ambiguity_rank == 1
    # the flux class itself is pure pullback, so its canonical form vanishes
    dd = double_dual_check(t)
    assert dd.euler_exact and dd.flux_comparable and dd.flux_congruent
    roundtrip = dd.second.dual_flux_coords()
    original = class_coordinates(total_space(model).total, 3, t.flux_rep)
    assert roundtrip != original or True  # congruence is the contract
    assert flux_congruent(dd.second, roundtrip, original)


def test_canonical_flux_rep_coset_invariance():
    model = sphere3_trivial()
    result = dualize(triple_from_flux_coords(model, (1,)))
    group = cohomology(total_space(result.dual_model).total, 3)
    base_coords = result.dual_flux_coords()
    canonical = canonical_flux_rep(result)
    rng = random.Random(83)
    for _ in range(10):
        shift = list(base_coords)
        for gen in result.ambiguity:
            c = rng.randint(-3, 3)
            shift = [s + c * g for s, g in zip(shift, gen)]
        shifted_rep = group.rep_from_coords(tuple(shift))
        shifted = TDualityTriple(result.dual_model, shifted_rep)
        # same class family modulo ambiguity reduces to the same canonical form
        from tduality.matrices import reduce_mod_lattice, hermite_normal_form

        lattice = hermite_normal_form(
            list(result.ambiguity) + list(group.relation_rows()), group.coord_dim
        )
        assert reduce_mod_lattice(tuple(shift), lattice) == canonical


@pytest.mark.parametrize(
    "make",
    [
        lambda: triple(cp_bundle(2, 3)),
        lambda: torus_flux_triple(2),
        lambda: triple(torus_trivial()),
    ],
)
def test_double_dual_examples(make):
    report = double_dual_check(make())
    assert report.euler_exact
    assert report.flux_comparable
    assert report.flux_congruent


def test_double_dual_of_a_hand_built_representative_is_flagged_unavailable():
    # the Euler cocycle is the H^2 generator plus the coboundary of the
    # indicator of edge 0; the double dual rebuilds the reduced
    # representative, so its total differs from the original one and the
    # flux cannot be compared, which the report says instead of passing
    torus = catalog_build("torus2")
    base = torus.complex
    edge = tuple(int(i == 0) for i in range(base.rank_at(1)))
    rep = tuple(g + d for g, d in
                zip(cohomology(base, 2).generators[0], base.delta_at(1).apply(edge)))
    model = euler_model_from_cocycle(torus, rep)
    report = double_dual_check(triple_from_flux_coords(model, (1,)))
    assert report.euler_exact
    assert not report.flux_comparable and not report.flux_congruent
    assert not report.ok
    assert total_space(report.second.dual_model).total != total_space(model).total


def test_push_flux_additive():
    model = sphere3_trivial()
    cone = total_space(model)
    g = cohomology(cone.total, 3)
    rng = random.Random(89)
    for _ in range(10):
        c1 = tuple(rng.randint(-3, 3) for _ in range(g.coord_dim))
        c2 = tuple(rng.randint(-3, 3) for _ in range(g.coord_dim))
        t1 = triple_from_flux_coords(model, c1)
        t2 = triple_from_flux_coords(model, c2)
        t12 = TDualityTriple(
            model, tuple(a + b for a, b in zip(t1.flux_rep, t2.flux_rep))
        )
        p1, p2, p12 = push_flux(t1), push_flux(t2), push_flux(t12)
        assert p12 == tuple(a + b for a, b in zip(p1, p2))


def test_dual_flux_depends_only_on_pushforward_mod_ambiguity():
    # fluxes with zero pushforward dualize to the same canonical flux as zero
    model = sphere3_trivial()
    base_result = dualize(triple(model))
    base_canonical = canonical_flux_rep(base_result)
    for coords in ((1,), (2,), (-3,)):
        result = dualize(triple_from_flux_coords(model, coords))
        assert push_flux(result.triple) == ()
        assert canonical_flux_rep(result) == base_canonical


def test_result_carries_the_hermite_form_of_its_ambiguity():
    from tduality.matrices import hermite_normal_form

    cases = [triple_from_flux_coords(cp_bundle(2, 5), ()), torus_flux_triple(3),
             triple_from_flux_coords(sphere3_trivial(), (1,))]
    for t in cases:
        result = dualize(t)
        group = cohomology(total_space(result.dual_model).total, 3)
        want = hermite_normal_form(
            list(result.ambiguity) + list(group.relation_rows()), group.coord_dim
        )
        assert result.ambiguity_lattice == want
        rel_only = hermite_normal_form(group.relation_rows(), group.coord_dim)
        assert result.ambiguity_rank == len(want) - len(rel_only)


def test_a_second_dualize_of_a_triple_eliminates_nothing(monkeypatch):
    # the flux equation delta phi_hat = e_hat ~ e is solved on the base's
    # Smith form of delta3, which the first dualize leaves in the cache
    import tduality.complexes as complexes_module
    import tduality.matrices as matrices_module
    from tduality.gysin import CupStructure
    from tduality.simplicial import cochain_complex_of, from_facets

    simplex = from_facets([(0, 1, 2, 3, 4)])  # delta3 : C^3 -> C^4 is 1 x 5 and nonzero
    four_simplex = zero_euler_model(cochain_complex_of(simplex),
                                    CupStructure((), (), (), simplicial=simplex))
    assert not four_simplex.base.delta_at(3).is_zero()
    cases = [triple(cp_bundle(2, 3)), torus_flux_triple(2), triple(four_simplex)]
    for t in cases:
        first = dualize(t)
        calls = []
        with monkeypatch.context() as patched:
            for module in (matrices_module, complexes_module):
                eliminate = module.smith_normal_form

                def counted(m, eliminate=eliminate):
                    calls.append(m.shape)
                    return eliminate(m)

                patched.setattr(module, "smith_normal_form", counted)
            assert dualize(t) == first
        assert calls == [], t.model.base.ranks
