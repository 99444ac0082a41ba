import json
import random
import time
from pathlib import Path

import pytest

from oracles import degree0_cone, first_sign_pattern
from tduality import borel, gysin
from tduality.borel import (
    SemiFreeSpace,
    bunke_route_dual,
    lens_certificate,
    mathai_wu_dual,
    mayer_vietoris_glue,
    multi_monopole_dual,
    stability_check,
    truncated_borel,
)
from tduality.catalog import CatalogModel, catalog_build, cp_restriction, euler_model_from_label_coeffs
from tduality.complexes import (
    CochainMap, GradedComplex, MappingCone, cochain_map_sum, cohomology, mapping_cone,
)
from tduality.errors import InternalCheckError, PreconditionError
from tduality.gysin import (
    CupStructure, cone_exactness, realize_euler_class, total_space,
)
from tduality.matrices import IntMatrix
from tduality.simplicial import Cochain, cup_operator
from tduality.tdual import canonical_flux_rep

# the cone of the restriction difference: overlap, union, pieces
MV_LABELS = ("H^{}(U n V)", "H^{}(U u V)", "H^{}(U (+) V)")


def shapes_of(cx, top=None):
    top = cx.top_degree if top is None else top
    return [cohomology(cx, n).shape for n in range(top + 1)]


def test_space_validation():
    with pytest.raises(PreconditionError):
        SemiFreeSpace("monopole", charges=())
    with pytest.raises(PreconditionError):
        SemiFreeSpace("monopole", charges=(0,))
    with pytest.raises(PreconditionError):
        SemiFreeSpace("multi_monopole", charges=())
    with pytest.raises(PreconditionError):
        SemiFreeSpace("free_bundle")
    with pytest.raises(PreconditionError):
        SemiFreeSpace("unknown_kind")


def test_truncated_borel_point_fixed():
    bundle = truncated_borel(SemiFreeSpace("point_fixed"), 3)
    cp3 = catalog_build("cp", (3,)).complex
    assert bundle.base_model == cp3
    assert bundle.euler_s1.euler_rep == (1,)


def test_truncated_borel_monopole_total_is_rank_one_model():
    bundle = truncated_borel(SemiFreeSpace("monopole", charges=(3,)), 2)
    total = total_space(bundle.euler_s1).total
    lens = catalog_build("lens", (3, 2)).complex
    assert shapes_of(total) == shapes_of(lens)


def test_truncated_borel_free_hopf_is_quotient_sphere():
    for n in (1, 2, 5):
        bundle = truncated_borel(SemiFreeSpace("free_hopf"), n)
        sphere = catalog_build("sphere2").complex
        assert bundle.base_model == sphere
        coords = cohomology(sphere, 2).coordinates(bundle.euler_s1.euler_rep)
        assert coords == (1,)


def test_truncated_borel_requires_positive_truncation():
    with pytest.raises(PreconditionError):
        truncated_borel(SemiFreeSpace("point_fixed"), 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monopole_torsion_for_all_truncations(n):
    for k in (2, 5):
        bundle = truncated_borel(SemiFreeSpace("monopole", charges=(k,)), n)
        total = total_space(bundle.euler_s1).total
        assert cohomology(total, 2).shape == ((k,), 0)


def test_mathai_wu_monopole_flux_units():
    for k in (1, 2, 4):
        result = mathai_wu_dual(SemiFreeSpace("monopole", charges=(k,)), 2)
        assert result.dual_euler == (0,)
        assert canonical_flux_rep(result) == (k,)


def test_mathai_wu_point_fixed_unit_flux():
    result = mathai_wu_dual(SemiFreeSpace("point_fixed"), 2)
    assert canonical_flux_rep(result) == (1,)


def test_mathai_wu_free_hopf():
    for n in (1, 2, 3):
        result = mathai_wu_dual(SemiFreeSpace("free_hopf"), n)
        assert result.dual_euler == (0,)
        assert canonical_flux_rep(result) == (1,)


@pytest.mark.parametrize(
    "space",
    [
        SemiFreeSpace("point_fixed"),
        SemiFreeSpace("monopole", charges=(2,)),
        SemiFreeSpace("monopole", charges=(5,)),
        SemiFreeSpace("free_hopf"),
    ],
    ids=lambda s: f"{s.kind}{s.charges}",
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_route_agreement(space, n):
    assert lens_certificate(space, n) == ""
    mw = mathai_wu_dual(space, n)
    bk = bunke_route_dual(space, n)
    assert mw.dual_euler == bk.dual_euler
    assert canonical_flux_rep(mw) == canonical_flux_rep(bk)


def test_bunke_route_rejects_undeclared_kinds():
    with pytest.raises(PreconditionError):
        bunke_route_dual(SemiFreeSpace("multi_monopole", charges=(1, 1)), 2)
    bundle = truncated_borel(SemiFreeSpace("free_hopf"), 1)
    with pytest.raises(PreconditionError):
        bunke_route_dual(SemiFreeSpace("free_bundle", bundle=bundle.euler_s1), 2)


def test_monopole_flux_input_dualizes():
    # at N=1 the total model has H^3 = Z, so flux coordinates are meaningful
    space = SemiFreeSpace("monopole", charges=(2,), flux=(1,))
    result = mathai_wu_dual(space, 1)
    dual_total = total_space(result.dual_model).total
    assert not any(dual_total.delta_at(3).apply(result.dual_flux))
    with pytest.raises(PreconditionError):
        mathai_wu_dual(SemiFreeSpace("monopole", charges=(2,), flux=(1,)), 2)


# --- Mayer-Vietoris ------------------------------------------------------


def test_glue_two_disks_into_sphere():
    pt = GradedComplex.with_zero_deltas((1,))
    circle = GradedComplex.with_zero_deltas((1, 1))
    restriction = CochainMap(pt, circle, 0, (IntMatrix.from_rows([[1]]),))
    glue = mayer_vietoris_glue(pt, pt, circle, restriction, restriction)
    assert shapes_of(glue.total) == [((), 1), ((), 0), ((), 1)]
    sphere = catalog_build("sphere2").complex
    assert shapes_of(glue.total) == shapes_of(sphere)
    assert cone_exactness(glue, MV_LABELS, 0, 3).exact


def test_glue_is_the_cone_of_the_restriction_difference():
    pt = GradedComplex.with_zero_deltas((1,))
    circle = GradedComplex.with_zero_deltas((1, 1))
    restriction = CochainMap(pt, circle, 0, (IntMatrix.from_rows([[1]]),))
    glue = mayer_vietoris_glue(pt, pt, circle, restriction, restriction)
    assert isinstance(glue, MappingCone)
    assert glue.f.mat_at(0) == IntMatrix.from_rows([[1, -1]])
    assert glue == mapping_cone(glue.f)


def test_glue_disjoint_union_over_empty_overlap():
    pt = GradedComplex.with_zero_deltas((1,))
    empty = GradedComplex.empty()
    to_empty = CochainMap(pt, empty, 0, (IntMatrix.zeros(0, 1),))
    glue = mayer_vietoris_glue(pt, pt, empty, to_empty, to_empty)
    assert cohomology(glue.total, 0).shape == ((), 2)


def test_glue_two_cones_over_boundary_model():
    # monopole-pair base: two cp(2) pieces sharing the cp(1) skeleton
    cp2 = catalog_build("cp", (2,)).complex
    cp1 = catalog_build("cp", (1,)).complex
    restriction = cp_restriction(2, 1)
    glue = mayer_vietoris_glue(cp2, cp2, cp1, restriction, restriction)
    assert shapes_of(glue.total) == [
        ((), 1), ((), 0), ((), 1), ((), 0), ((), 2),
    ]
    assert cone_exactness(glue, MV_LABELS, 0, 6).exact


def test_glued_base_is_the_block_degree_zero_cone_entry_for_entry(monkeypatch):
    # each degree of a glued multi-monopole base holds pieces only or
    # overlaps only, and every coboundary there is zero, so the cone's block
    # order and signs leave the glued complex as the old construction built it
    glues = []
    real = borel.mayer_vietoris_glue

    def recording(*args):
        glues.append(real(*args))
        return glues[-1]

    monkeypatch.setattr(borel, "mayer_vietoris_glue", recording)
    for charges in ((1, 1), (1, 2, 3), (2, 2, 4), (1, 2, 3, 4)):
        for n in (1, 2, 3):
            base = borel._multi_monopole_bundle.__wrapped__(charges, n).base_model
            a, c, f = glues[-1].f.source, glues[-1].f.target, glues[-1].f
            want = degree0_cone(list(a.ranks), [d.entries for d in a.deltas],
                                list(c.ranks), [d.entries for d in c.deltas],
                                [m.entries for m in f.mats])
            assert (list(base.ranks), [[list(row) for row in d.entries] for d in base.deltas]) == want


def test_glue_rejects_wrong_degree_or_targets():
    pt = GradedComplex.with_zero_deltas((1,))
    circle = GradedComplex.with_zero_deltas((1, 1))
    restriction = CochainMap(pt, circle, 0, (IntMatrix.from_rows([[1]]),))
    with pytest.raises(PreconditionError):
        # r_a's source is the point, not the declared first piece
        mayer_vietoris_glue(circle, pt, circle, restriction, restriction)
    bad_degree = CochainMap.zero(pt, circle, 1)
    with pytest.raises(PreconditionError):
        mayer_vietoris_glue(pt, pt, circle, bad_degree, restriction)


# --- multi-monopole ------------------------------------------------------


def test_multi_single_charge_reduces_to_monopole():
    direct = multi_monopole_dual((4,), 2)
    mono = mathai_wu_dual(SemiFreeSpace("monopole", charges=(4,)), 2)
    assert direct.dual_euler == mono.dual_euler
    assert canonical_flux_rep(direct) == canonical_flux_rep(mono)


@pytest.mark.parametrize("charges", [(1, 1), (2, 2), (1, 1, 2)])
def test_multi_monopole_dual_trivial_bundle_nonzero_flux(charges):
    result = multi_monopole_dual(charges, 2)
    assert all(x == 0 for x in result.dual_euler)
    assert any(x != 0 for x in canonical_flux_rep(result))


def test_multi_monopole_base_is_valid_and_exact():
    bundle = truncated_borel(SemiFreeSpace("multi_monopole", charges=(1, 1)), 2)
    from tduality.gysin import gysin_sequence

    report = gysin_sequence(
        bundle.euler_s1, 0, total_space(bundle.euler_s1).total.top_degree
    )
    assert report.exact


def test_multi_monopole_model_is_built_once_per_level():
    space = SemiFreeSpace("multi_monopole", charges=(5, 2, 3))
    first = truncated_borel(space, 2)
    assert truncated_borel(space, 2) is first
    assert truncated_borel(SemiFreeSpace("multi_monopole", charges=(5, 2, 3)), 2) is first
    assert truncated_borel(space, 3) is not first


def test_multi_monopole_rejects_unglueable_charges():
    with pytest.raises(PreconditionError, match="orientation"):
        multi_monopole_dual((2, 3), 2)
    with pytest.raises(PreconditionError, match="orientation"):
        multi_monopole_dual((2, 2, 2), 1)


def _sign_pattern_or_none(charges):
    try:
        return borel._sign_pattern(charges)
    except PreconditionError as exc:
        assert "no orientation assignment" in str(exc)
        return None


def test_sign_pattern_matches_the_mask_scan():
    rng = random.Random(1312)
    signable = 0
    for trial in range(600):
        m = rng.randint(1, 11)
        top = rng.choice((3, 10, 1000, 10**6))
        charges = [rng.randint(1, top) for _ in range(m)]
        if trial % 2 and m > 1:
            # make a signing exist: the last charge balances a random subset
            lhs = sum(k for k in charges[:-1] if rng.random() < 0.5)
            rhs = sum(charges[:-1]) - lhs
            if lhs != rhs:
                charges[-1] = abs(lhs - rhs)
        charges = tuple(charges)
        want = first_sign_pattern(charges)
        assert _sign_pattern_or_none(charges) == want, charges
        signable += want is not None
    assert signable > 200


def test_sign_pattern_scales_past_the_scan():
    rng = random.Random(40)
    charges = tuple(rng.randint(1, 63) for _ in range(40))
    if sum(charges) % 2:
        charges = charges[:-1] + (charges[-1] + 1,)
    start = time.perf_counter()
    signs = borel._sign_pattern(charges)
    assert time.perf_counter() - start < 1.0
    assert sum(s * k for s, k in zip(signs, charges)) == 0
    # an odd total fails at once, whatever the number of charges
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="no orientation assignment"):
        borel._sign_pattern((1,) * 31)
    assert time.perf_counter() - start < 1.0
    assert borel._sign_pattern((1,) * 30) == (-1,) * 15 + (1,) * 15


def test_sign_search_is_bounded(monkeypatch):
    monkeypatch.setattr(borel, "MAX_SIGN_SEARCH_SUMS", 50)
    with pytest.raises(PreconditionError, match="more than 50 stored subset sums"):
        borel._sign_pattern(tuple(range(1, 21)))
    assert borel._sign_pattern((1, 2, 3)) == (-1, -1, 1)


def test_point_fixed_monopole_and_single_charge_share_one_model():
    for n in (1, 2, 3):
        unit = truncated_borel(SemiFreeSpace("point_fixed"), n)
        assert unit == truncated_borel(SemiFreeSpace("monopole", charges=(1,)), n)
        for k in (1, 4):
            mono = truncated_borel(SemiFreeSpace("monopole", charges=(k,)), n)
            assert mono == truncated_borel(SemiFreeSpace("multi_monopole", charges=(k,)), n)
            assert mono.base_model is mono.euler_s1.base


def test_free_bundle_zero_data_dualizes_to_zero():
    torus = catalog_build("torus2")
    from tduality.gysin import zero_euler_model

    space = SemiFreeSpace("free_bundle", bundle=zero_euler_model(torus.complex, torus.cup))
    result = mathai_wu_dual(space, 2)
    assert all(x == 0 for x in result.dual_euler)
    assert all(x == 0 for x in canonical_flux_rep(result))


def test_free_action_base_equals_quotient_model():
    sphere = catalog_build("sphere2").complex
    for n in (1, 2):
        bundle = truncated_borel(SemiFreeSpace("free_hopf"), n)
        window = 2 * n - 1
        for d in range(window + 1):
            assert (
                cohomology(bundle.base_model, d).shape == cohomology(sphere, d).shape
            )


# --- stability -----------------------------------------------------------


@pytest.mark.parametrize(
    "space",
    [
        SemiFreeSpace("point_fixed"),
        SemiFreeSpace("monopole", charges=(5,)),
        SemiFreeSpace("free_hopf"),
        SemiFreeSpace("multi_monopole", charges=(1, 1)),
    ],
    ids=lambda s: f"{s.kind}{s.charges}",
)
@pytest.mark.parametrize("n", [1, 2])
def test_stability_under_truncation_increase(space, n):
    assert stability_check(space, n) == ""


def test_stability_monopole_example():
    assert stability_check(SemiFreeSpace("monopole", charges=(5,)), 2) == ""


def test_stability_compares_only_degrees_the_models_reach(monkeypatch):
    # the free Hopf model does not depend on N, so a high level compares
    # the four degrees of its total and stops
    tops = []
    real = borel.first_shape_difference

    def recording(a, b, top):
        tops.append(top)
        return real(a, b, top)

    monkeypatch.setattr(borel, "first_shape_difference", recording)
    assert stability_check(SemiFreeSpace("free_hopf"), 1000) == ""
    assert tops == [3, 3]


def test_stability_witness_names_the_first_unstable_degree(monkeypatch):
    space = SemiFreeSpace("monopole", charges=(5,))
    assert stability_check(space, 2) == ""
    lower_base = truncated_borel(space, 2).base_model
    base_2, base_3 = (2, ((), 1), ((), 2)), (3, ((), 0), ((), 1))
    total_2 = (2, ((5,), 0), ((), 1))
    # (difference of the bases, difference of the totals) -> witness: the
    # lower degree first, the base before the total in the same degree
    cases = {
        (None, total_2): "total H^2 differs: ((5,), 0) at N=2, ((), 1) at N=3",
        (base_3, None): "base H^3 differs: ((), 0) at N=2, ((), 1) at N=3",
        (base_3, total_2): "total H^2 differs: ((5,), 0) at N=2, ((), 1) at N=3",
        (base_2, total_2): "base H^2 differs: ((), 1) at N=2, ((), 2) at N=3",
    }
    for (base, total), witness in cases.items():
        monkeypatch.setattr(borel, "first_shape_difference",
                            lambda a, b, top, base=base, total=total:
                            base if a == lower_base else total)
        assert stability_check(space, 2) == witness


def test_stability_presents_no_h2_of_the_glued_base_at_the_next_level(monkeypatch):
    import sys

    presented = []

    def recording(c, n, _cohomology=cohomology):
        presented.append(c)
        return _cohomology(c, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("tduality") and getattr(module, "cohomology", None) is cohomology:
            monkeypatch.setattr(module, "cohomology", recording)
    space = SemiFreeSpace("multi_monopole", charges=(3, 2, 1))
    borel._multi_monopole_bundle.cache_clear()
    assert stability_check(space, 2) == ""
    upper = truncated_borel(space, 3).euler_s1
    assert upper.base not in presented


def test_failed_lens_certificate_names_the_degree(monkeypatch):
    space = SemiFreeSpace("monopole", charges=(3,))
    assert lens_certificate(space, 2) == ""
    monkeypatch.setitem(borel._SIMPLICIAL_ROUTE, "monopole", lambda n, charges: (5, n))
    witness = ("simplicial-route certification failed in degree 2: "
               "total gives ((3,), 0), independent model gives ((5,), 0)")
    assert lens_certificate(space, 2) == witness
    with pytest.raises(InternalCheckError) as err:
        bunke_route_dual(space, 2)
    assert str(err.value) == witness
    with pytest.raises(PreconditionError, match="no declared simplicial-space route"):
        lens_certificate(SemiFreeSpace("multi_monopole", charges=(1, 1)), 2)


def engine_cup_bases():
    # every base whose cup basis the engine declares: the catalog models and
    # the glued multi-monopole bases
    for name, params in (("cp", (1,)), ("cp", (2,)), ("cp", (3,)), ("cp", (5,)),
                         ("sphere2", ()), ("torus2", ()), ("rp2", ())):
        model = catalog_build(name, params)
        yield model.display_name, model.complex, model.cup, model.provenance
    for charges in ((1, 1), (2, 1, 1), (4, 2, 2), (3, 5, 2, 6), (1,) * 6,
                    (287, 10, 44, 40, 23, 11, 36, 39, 12, 25, 19, 28)):
        for n in (1, 2, 3):
            euler = truncated_borel(SemiFreeSpace("multi_monopole", charges=charges), n).euler_s1
            yield f"{charges} at N = {n}", euler.base, euler.cup, euler.provenance


def test_every_engine_cup_basis_is_the_generator_basis():
    for key, base, cup, provenance in engine_cup_bases():
        generators = cohomology(base, 2).generators
        assert list(cup.reps) == list(generators[:len(cup.reps)]), key
        # the class with coordinates e_i is realized by generator i
        for i, gen in enumerate(generators):
            coords = tuple(int(i == j) for j in range(len(generators)))
            real = realize_euler_class(base, cup, coords, provenance)
            assert real.euler_rep == gen and real.mu == cup.operator(gen), (key, i)


def test_realized_operator_is_the_combination_of_the_generator_operators():
    # the construction with one operator per generator, kept as the oracle
    rng = random.Random(16)
    for key, base, cup, provenance in engine_cup_bases():
        generators = cohomology(base, 2).generators
        ops = [cup.operator(gen) for gen in generators]
        for _ in range(3):
            coords = tuple(rng.randint(-3, 3) for _ in generators)
            if not any(coords):
                continue
            real = realize_euler_class(base, cup, coords, provenance)
            assert real.mu == cochain_map_sum(list(zip(coords, ops))), (key, coords)


def test_a_negated_declared_label_realizes_its_class():
    # the operator acts on the declared cocycle itself, so a label need not
    # be a generator: vol = -generator is the class with coordinates (-1,)
    torus = catalog_build("torus2")
    negated = tuple(-x for x in cohomology(torus.complex, 2).generators[0])
    cup = CupStructure(("vol",), (negated,), (), torus.simplicial)
    model = CatalogModel("torus2", (), torus.complex, cup)
    real = euler_model_from_label_coeffs(model, {"vol": 1})
    assert cohomology(torus.complex, 2).coordinates(real.euler_rep) == (-1,)
    assert real.euler_rep == negated
    assert real.mu == cup_operator(Cochain(torus.simplicial, 2, negated))


def test_realized_models_of_every_kind_pickle():
    import pickle

    glued = truncated_borel(SemiFreeSpace("multi_monopole", charges=(1, 2, 3, 4)), 2).euler_s1
    models = [
        euler_model_from_label_coeffs(catalog_build("cp", (2,)), {"u": 3}),
        euler_model_from_label_coeffs(catalog_build("torus2"), {"vol": 2}),
        glued,
        realize_euler_class(glued.base, glued.cup, (1, 0, 2), glued.provenance),
    ]
    for model in models:
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and copy.cup == model.cup
        assert copy.cup.operator(model.euler_rep) == model.mu


# --- cup operators of the generators -----------------------------------------

CUP_GOLDEN = Path(__file__).parent / "data" / "golden_cup_operators.json"
GLUED_KEY = "multi_monopole(1, 2, 3, 4) at N = 2"


def glued_model():
    return truncated_borel(SemiFreeSpace("multi_monopole", charges=(1, 2, 3, 4)), 2).euler_s1


def assert_operator(op, base, want):
    assert op.source == op.target == base
    assert op.degree == want["degree"]
    assert [m.entries for m in op.mats] == [tuple(map(tuple, m)) for m in want["mats"]]


def test_cup_operators_built_on_demand_equal_the_eager_ones():
    # golden_cup_operators.json holds the operators of the H^2 generators as
    # an eager construction with one operator per generator built them
    golden = json.loads(CUP_GOLDEN.read_text(encoding="utf-8"))
    catalog_build.cache_clear()
    borel._multi_monopole_bundle.cache_clear()
    cases = [(catalog_build(name, params), None) for name, params in
             (("cp", (3,)), ("torus2", ()), ("rp2", ()))]
    cases.append((None, glued_model()))
    for catalog_model, euler_model in cases:
        if catalog_model is not None:
            key, base, cup = catalog_model.display_name, catalog_model.complex, catalog_model.cup
        else:
            key, base, cup = GLUED_KEY, euler_model.base, euler_model.cup
        want = golden[key]
        assert list(base.ranks) == want["ranks"]
        generators = cohomology(base, 2).generators
        assert len(generators) == len(want["mus"])
        for gen, op in zip(generators, want["mus"]):
            assert_operator(cup.operator(gen), base, op)
    assert_operator(glued_model().mu, glued_model().base, golden[GLUED_KEY]["euler_mu"])
    assert list(glued_model().euler_rep) == golden[GLUED_KEY]["euler_rep"]


def test_realized_class_on_a_glued_base_matches_the_golden_model():
    golden = json.loads(CUP_GOLDEN.read_text(encoding="utf-8"))[GLUED_KEY]["realized"]
    borel._multi_monopole_bundle.cache_clear()
    gysin._realize_euler_class.cache_clear()
    model = glued_model()
    real = realize_euler_class(model.base, model.cup, tuple(golden["coords"]), model.provenance)
    assert list(real.euler_rep) == golden["euler_rep"]
    assert_operator(real.mu, model.base, golden["mu"])


def test_flux_free_borel_on_sixteen_charges_builds_no_generator_operator(
        tmp_path, capsys, monkeypatch, request):
    from tduality.cli import main

    # no later test may read a bundle whose cup holds the counting operator
    request.addfinalizer(borel._multi_monopole_bundle.cache_clear)
    built = []
    real_glued_cup = borel._glued_cup

    def counting(*args):
        built.append(args[-1])
        return real_glued_cup(*args)

    monkeypatch.setattr(borel, "_glued_cup", counting)
    charges = (1,) * 16
    model = tmp_path / "sixteen.tdsl"
    model.write_text("[action a]\ntype = multi_monopole\ncharges = "
                     + ",".join(map(str, charges)) + "\ntruncation = 2\n", encoding="utf-8")
    borel._multi_monopole_bundle.cache_clear()
    assert main(["--json", "borel", "--action", "a", str(model)]) == 0
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert routes["mathai_wu"]["dual_euler_coords"] == [0] * 15
    euler = truncated_borel(SemiFreeSpace("multi_monopole", charges=charges), 2).euler_s1
    # the one operator built is the Euler class's own
    assert built == [euler.euler_rep]
    assert isinstance(euler.mu, CochainMap)
