import random

import pytest

from generators import random_euler_model
from oracles import brute_solutions, canonical_shape, group_direct_sum, smith_exact_at, twisted_total
from tduality import gysin
from tduality.borel import SemiFreeSpace, truncated_borel
from tduality.catalog import catalog_build, euler_model_from_cocycle, euler_model_from_label_coeffs
from tduality.complexes import (
    CochainMap,
    CohomologyGroup,
    GradedComplex,
    MappingCone,
    class_coordinates,
    cohomology,
    validate_complex,
)
from tduality.errors import PreconditionError
from tduality.gysin import (
    GYSIN_LABELS,
    PROVENANCE_AW,
    CupStructure,
    EulerModel,
    _realize_euler_class,
    cone_exactness,
    exact_at,
    exactness_witness,
    fiber_integration,
    gysin_sequence,
    induced_matrix,
    pullback,
    realize_euler_class,
    total_space,
    zero_euler_model,
)
from tduality.matrices import IntMatrix, hermite_normal_form, lattice_member
from tduality.tdual import double_dual_check, triple_from_flux_coords

CONE_LABELS = ("H^{}(C)", "H^{}(Cone)", "H^{}(A)")


def cp_bundle(n, k):
    return euler_model_from_label_coeffs(catalog_build("cp", (n,)), {"u": k})


def shapes_of(cx):
    return [cohomology(cx, n).shape for n in range(len(cx.ranks))]


def test_trivial_bundle_splits_groupwise():
    for name, params in (("torus2", ()), ("rp2", ()), ("lens", (3, 1))):
        base = catalog_build(name, params).complex
        model = zero_euler_model(base)
        cone = total_space(model)
        assert validate_complex(cone.total).valid
        for n in range(len(cone.total.ranks)):
            got = canonical_shape(cohomology(cone.total, n).shape)
            want = group_direct_sum(
                cohomology(base, n).shape, cohomology(base, n - 1).shape
            )
            assert got == canonical_shape(want)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_total_matches_lens_model(k, n):
    model = cp_bundle(n, k)
    cone = total_space(model)
    lens = catalog_build("lens", (k, n)).complex
    for d in range(2 * n + 2):
        assert cohomology(cone.total, d).shape == cohomology(lens, d).shape


def test_unit_euler_class_gives_sphere_profile():
    model = cp_bundle(2, 1)
    cone = total_space(model)
    shapes = shapes_of(cone.total)
    assert shapes == [((), 1), ((), 0), ((), 0), ((), 0), ((), 0), ((), 1)]


def test_pullback_zero_and_unit():
    model = cp_bundle(2, 3)
    assert pullback(model, 2, (0,)) == (0,)
    assert pullback(model, 0, (1,)) == (1,)


def test_pullback_generator_generates_torsion():
    for k in (2, 3, 5):
        model = cp_bundle(2, k)
        assert pullback(model, 2, (1,)) == (1,)
        assert cohomology(total_space(model).total, 2).shape == ((k,), 0)


def test_pullback_degree_out_of_range():
    model = cp_bundle(1, 2)
    assert pullback(model, 9, ()) == ()
    assert pullback(model, -1, ()) == ()
    # the total over the circle has degrees 0..2, and H^3(E) = 0 is the zero group
    circle = catalog_build("circle")
    model = zero_euler_model(circle.complex, circle.cup)
    assert total_space(model).total.top_degree == 2
    assert fiber_integration(model, 3, ()) == ()
    message = "class has 1 coordinates but H\\^3 of the total model has 0 generators"
    with pytest.raises(PreconditionError, match=message):
        fiber_integration(model, 3, (1,))


def test_fiber_integration_kills_pullbacks():
    rng = random.Random(61)
    for _ in range(15):
        model = random_euler_model(rng, max_rank=3, max_deg=5)
        base = model.base
        for n in range(len(base.ranks)):
            g = cohomology(base, n)
            if g.coord_dim == 0:
                continue
            coords = tuple(rng.randint(-2, 2) for _ in range(g.coord_dim))
            image = fiber_integration(model, n, pullback(model, n, coords))
            assert all(c == 0 for c in image)


def cochain_level_image(f, n, coords):
    """Coordinates of ``f`` on the class with ``coords``, through a cocycle
    representative and its image: the oracle for ``pullback`` and
    ``fiber_integration``, which read ``induced_matrix`` instead."""
    rep = cohomology(f.source, n).rep_from_coords(coords)
    return class_coordinates(f.target, n + f.degree, f.apply(n, rep))


def test_pullback_and_transfer_match_the_cochain_level_oracle():
    rng = random.Random(24)
    with_torsion = 0
    for _ in range(40):
        model = random_euler_model(rng)
        cone = total_space(model)
        top = cone.total.top_degree
        with_torsion += any(cohomology(cx, n).torsion
                            for cx in (model.base, cone.total) for n in range(top + 1))
        # -1 and top + 1 lie outside both complexes, top outside the base
        for n in range(-1, top + 2):
            for induced, f in ((pullback, cone.inclusion), (fiber_integration, cone.projection)):
                dim = cohomology(f.source, n).coord_dim
                for _ in range(3):
                    coords = tuple(rng.randint(-9, 9) for _ in range(dim))
                    assert induced(model, n, coords) == cochain_level_image(f, n, coords)
    assert with_torsion >= 10


def test_fiber_integration_torus_volume_times_fiber():
    torus = catalog_build("torus2")
    model = zero_euler_model(torus.complex, torus.cup)
    cone = total_space(model)
    vol = cohomology(torus.complex, 2).generators[0]
    cls = (0,) * torus.complex.rank_at(3) + vol
    coords = class_coordinates(cone.total, 3, cls)
    assert fiber_integration(model, 3, coords) == (1,)


def test_fiber_integration_on_vanishing_degree():
    model = cp_bundle(2, 3)
    g = cohomology(total_space(model).total, 3)
    assert g.coord_dim == 0
    assert fiber_integration(model, 3, ()) == (0,) * cohomology(model.base, 2).coord_dim


def test_gysin_trivial_bundle_over_sphere_exact():
    base = catalog_build("sphere2").complex
    model = zero_euler_model(base)
    report = gysin_sequence(model, 0, total_space(model).total.top_degree)
    assert report.exact


def test_gysin_hopf_type_bundles_exact():
    for k in (1, 5):
        model = cp_bundle(3, k)
        cone = total_space(model)
        report = gysin_sequence(model, 0, cone.total.top_degree)
        assert report.exact
        if k == 5:
            assert cohomology(cone.total, 2).shape == ((5,), 0)


def test_gysin_randomized_models_exact():
    rng = random.Random(67)
    for _ in range(25):
        model = random_euler_model(rng)
        report = gysin_sequence(model, 0, total_space(model).total.top_degree)
        assert report.exact, [n for n in report.nodes if not n.exact]


def test_gysin_connecting_sign_recorded():
    from tduality import gysin

    assert "(-1)^(m+1)" in gysin.SIGN_CONVENTION


def test_euler_representative_change_by_coboundary_keeps_totals():
    from tduality.tdual import canonical_flux_rep, dualize, triple

    sphere = catalog_build("sphere2")
    base_rep = cohomology(sphere.complex, 2).generators[0]
    model = euler_model_from_cocycle(sphere, base_rep)
    reference = shapes_of(total_space(model).total)
    reference_flux = canonical_flux_rep(dualize(triple(model)))
    rng = random.Random(71)
    for _ in range(5):
        w = tuple(rng.randint(-2, 2) for _ in range(sphere.complex.rank_at(1)))
        shifted = tuple(a + b for a, b in zip(base_rep, sphere.complex.delta_at(1).apply(w)))
        shifted_model = euler_model_from_cocycle(sphere, shifted)
        assert shapes_of(total_space(shifted_model).total) == reference
        # downstream duality outputs are representative-independent too
        assert canonical_flux_rep(dualize(triple(shifted_model))) == reference_flux


def test_realize_euler_class_requires_cup_data():
    base = catalog_build("lens", (2, 1)).complex
    group = cohomology(base, 2)
    no_cup = CupStructure((), (), ())
    zero = realize_euler_class(base, no_cup, (0,) * group.coord_dim, "catalog-algebraic")
    assert all(x == 0 for x in zero.euler_rep)
    # lens H^2 = Z/k has a nonzero class but no cup table; the failure is
    # not cached, so it is raised on every call
    entries = _realize_euler_class.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PreconditionError, match="base carries no cup structure"):
            realize_euler_class(base, no_cup, (1,), "catalog-algebraic")
    assert _realize_euler_class.cache_info().currsize == entries


def test_euler_model_validation():
    base = catalog_build("cp", (2,)).complex
    with pytest.raises(PreconditionError):
        EulerModel(base, (1, 1), zero_euler_model(base).mu, "catalog-algebraic")
    lens = catalog_build("lens", (2, 1)).complex
    with pytest.raises(PreconditionError):
        # delta2 = 0 but delta1 = [2]: (1,) in degree 2 is fine; break degree instead
        EulerModel(lens, (1,), zero_euler_model(base).mu, "catalog-algebraic")


def test_exactness_checker_rejects_broken_sequences():
    # negative control: zero maps through a nonzero group are not exact
    from tduality.gysin import exact_at
    from tduality.complexes import GradedComplex
    from tduality.matrices import IntMatrix

    circle = GradedComplex.with_zero_deltas((1, 1))
    g = cohomology(circle, 0)  # Z
    zero = IntMatrix.zeros(1, 1)
    assert not exact_at(zero, g, zero, g)
    # and the identity through Z is exact at the middle (im = ker = 0)
    ident = IntMatrix.eye(1, 1, 0)
    assert exact_at(zero, g, ident, g)


def test_exactness_checker_handles_torsion_nodes():
    from tduality.gysin import exact_at
    from tduality.complexes import GradedComplex
    from tduality.matrices import IntMatrix

    lens = GradedComplex(
        (1, 1, 1, 1),
        (IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[4]]), IntMatrix.from_rows([[0]])),
    )
    torsion = cohomology(lens, 2)  # Z/4
    free = cohomology(lens, 0)  # Z
    # multiplication by 2 into Z/4 has image 2Z/4; the map x -> 2x out of Z/4
    # kills exactly that image, so the sequence Z -2-> Z/4 -2-> Z/4 is exact
    times_two = IntMatrix.from_rows([[2]])
    assert exact_at(times_two, torsion, times_two, torsion)
    # but x -> 0 out of Z/4 has kernel everything, which 2Z/4 is not
    assert not exact_at(times_two, torsion, IntMatrix.zeros(1, 1), torsion)


def test_cone_long_exact_sequence_with_torsion():
    from tduality.complexes import mapping_cone

    lens6 = GradedComplex(
        (1, 1, 1, 1),
        (IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[6]]), IntMatrix.from_rows([[0]])),
    )
    times3 = CochainMap(lens6, lens6, 0, tuple(IntMatrix.from_rows([[3]]) for _ in range(4)))
    cone = mapping_cone(times3)
    report = cone_exactness(cone, CONE_LABELS, 0, len(cone.total.ranks))
    assert report.exact


def test_total_space_extension_is_degreewise_exact():
    model = cp_bundle(2, 3)
    cone = total_space(model)
    base, total = model.base, cone.total
    for n in range(len(total.ranks)):
        # ranks add up and the maps compose to zero with full rank blocks
        assert total.rank_at(n) == base.rank_at(n) + base.rank_at(n - 1)
        comp = cone.projection.mat_at(n) @ cone.inclusion.mat_at(n)
        assert comp.is_zero()


def test_sequence_report_carries_generator_matrices():
    model = cp_bundle(2, 3)
    from tduality.gysin import induced_matrix

    cone = total_space(model)
    assert gysin_sequence(model, 0, 4).exact
    # the three families of maps are integer matrices on chosen generators
    g2_base = cohomology(model.base, 2)
    g2_total = cohomology(total_space(model).total, 2)
    pull = induced_matrix(cone.inclusion, 2)
    assert pull.shape == (g2_total.coord_dim, g2_base.coord_dim)
    cup = induced_matrix(model.mu, 0)
    assert cup.shape == (g2_base.coord_dim, cohomology(model.base, 0).coord_dim)
    assert cup.entries == ((3,),)  # cup with 3u on the unit
    transfer = induced_matrix(cone.projection, 3)
    assert transfer.shape == (g2_base.coord_dim, cohomology(total_space(model).total, 3).coord_dim)


def test_cone_verifier_names_non_exact_nodes():
    from tduality.complexes import mapping_cone

    point = GradedComplex.with_zero_deltas((1,))  # Z in degree 0 only
    ident = CochainMap(point, point, 0, (IntMatrix.eye(1, 1, 0),))
    cone = mapping_cone(ident)  # acyclic, so every node is exact
    assert cone_exactness(cone, CONE_LABELS, 0, 1).exact
    # the zero map in place of the identity: H^0(A) -0-> H^0(C) has kernel Z
    # where nothing comes in from H^0(Cone) = 0, and nothing leaves H^0(C)
    # for H^1(Cone) = 0
    broken = MappingCone(cone.total, CochainMap.zero(point, point, 0))
    report = cone_exactness(broken, CONE_LABELS, 0, 1)
    assert [(node.label, node.witness) for node in report.nodes if not node.exact] == [
        ("H^0(A)", (1,)), ("H^0(C)", (1,)),
    ]
    assert report.degree_range == (-1, 1)
    for lo, hi in ((-1, 1), (1, 0)):
        with pytest.raises(PreconditionError, match=f"bad degree range {lo}..{hi}"):
            cone_exactness(cone, CONE_LABELS, lo, hi)


# --- caches on the warm duality path and structural maps on first read -----


def torus_aw():
    """The torus with the Alexander-Whitney cup and no declared basis."""
    torus = catalog_build("torus2", ())
    return torus.complex, CupStructure((), (), (), simplicial=torus.simplicial), PROVENANCE_AW


def cached_path_models():
    """A nonzero Euler model on cp(1..3), the torus, RP^2 and a multi-monopole
    base, with the arguments that realize it."""
    cases = [(catalog_build("cp", (n,)), (n + 1,)) for n in (1, 2, 3)]
    cases.append((catalog_build("rp2", ()), (1,)))
    args = [(m.complex, m.cup, coords, m.provenance) for m, coords in cases]
    args.append(torus_aw()[:2] + ((2,), PROVENANCE_AW))
    glued = truncated_borel(SemiFreeSpace("multi_monopole", charges=(1, 2, 3, 4)), 2).euler_s1
    coords = cohomology(glued.base, 2).coordinates(glued.euler_rep)
    args.append((glued.base, glued.cup, coords, glued.provenance))
    return [(a, realize_euler_class(*a)) for a in args]


def test_total_space_is_the_block_twisted_total_entry_for_entry():
    # mapping_cone(mu) of a degree-2 mu has the blocks, block order and signs
    # of the twisted total T^n = B^n (+) B^{n-1}
    models = [cp_bundle(n, k) for n in (1, 2, 3, 4) for k in (0, 1, 3)]
    models += [model for _, model in cached_path_models()]  # torus, RP^2, glued
    for charges in ((1, 1), (1, 2, 3), (2, 2, 4)):
        for n in (1, 2, 3):
            models.append(truncated_borel(SemiFreeSpace("multi_monopole", charges=charges), n).euler_s1)
    for model in models:
        base, total = model.base, total_space(model).total
        want = twisted_total(list(base.ranks), [d.entries for d in base.deltas],
                             [m.entries for m in model.mu.mats])
        assert (list(total.ranks), [[list(row) for row in d.entries] for d in total.deltas]) == want


def test_cached_results_equal_the_uncached_ones():
    for (base, cup, coords, provenance), model in cached_path_models():
        assert model == _realize_euler_class.__wrapped__(base, cup, tuple(coords), provenance)
        assert realize_euler_class(base, cup, list(coords), provenance) is model
        cone = total_space(model)
        for f in (cone.inclusion, cone.projection, model.mu):
            for n in range(len(f.source.ranks)):
                assert induced_matrix(f, n) == induced_matrix.__wrapped__(f, n)
                assert induced_matrix(f, n) is induced_matrix(f, n)


def test_a_second_warm_duality_rebuilds_no_model_and_no_induced_matrix(monkeypatch):
    base, cup, provenance = torus_aw()
    model = realize_euler_class(base, cup, (2,), provenance)
    top = total_space(model).total.top_degree

    def warm():
        report = double_dual_check(triple_from_flux_coords(model, (3,)))
        return report, gysin_sequence(model, 0, top)

    first = warm()
    cup_calls = []
    real_cup_operator = gysin.cup_operator

    def counting(cochain):
        cup_calls.append(cochain)
        return real_cup_operator(cochain)

    monkeypatch.setattr(gysin, "cup_operator", counting)
    before = induced_matrix.cache_info()
    second = warm()
    after = induced_matrix.cache_info()
    assert cup_calls == []
    assert after.misses == before.misses and after.hits > before.hits
    assert second == first and second[0].ok and second[1].exact


def test_structural_maps_are_built_on_first_read(monkeypatch):
    base, cup, provenance = torus_aw()
    models = [cp_bundle(2, 3), realize_euler_class(base, cup, (2,), provenance)]
    built = []
    real_post_init = CochainMap.__post_init__

    def counting(self):
        built.append(self.degree)
        real_post_init(self)

    monkeypatch.setattr(CochainMap, "__post_init__", counting)
    for model in models:
        cone = total_space.__wrapped__(model)
        base, total = model.base, cone.total
        assert built == []
        # each map is checked once when first read, then its eye-built copy here
        assert cone.inclusion == CochainMap(base, total, 0, tuple(
            IntMatrix.eye(total.rank_at(n), base.rank_at(n), 0) for n in range(len(base.ranks))
        ))
        assert cone.projection == CochainMap(total, base, -1, tuple(
            IntMatrix.eye(base.rank_at(n - 1), total.rank_at(n), base.rank_at(n))
            for n in range(len(total.ranks))
        ))
        assert cone.inclusion is cone.inclusion and cone.projection is cone.projection
        assert built == [0, 0, -1, -1]
        built.clear()


# --- exactness from Hermite forms alone, against the Smith kernel ----------


def coordinate_group(torsion, free_rank):
    """A group of the given shape; ``exact_at`` reads only its coordinates."""
    return CohomologyGroup(0, tuple(torsion), free_rank, (), IntMatrix.zeros(0, 0))


def in_kernel(vec, node, outgoing, nxt):
    """``vec`` in ``ker(outgoing) + R``: ``outgoing vec`` in ``R' + outgoing R``,
    ``R`` and ``R'`` the relations of ``node`` and ``nxt`` (a map that is not
    well defined on ``node`` need not send ``R`` into ``R'``)."""
    targets = [*nxt.relation_rows(), *map(outgoing.apply, node.relation_rows())]
    return lattice_member(outgoing.apply(vec), hermite_normal_form(targets, nxt.coord_dim))


def in_image(vec, incoming, node):
    return lattice_member(vec, hermite_normal_form(
        [*zip(*incoming.entries), *node.relation_rows()], node.coord_dim))


def test_hermite_kernel_verdicts_equal_the_smith_kernel_on_random_nodes():
    rng = random.Random(2020)

    def group():
        return coordinate_group([rng.randint(2, 12) for _ in range(rng.randint(0, 2))],
                                rng.randint(0, 3))

    def matrix(rows, cols):
        return IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)

    verdicts, witnesses = {True: 0, False: 0}, {"kernel": 0, "image": 0}
    zero_nodes = 0  # exact at once, between nonzero groups on both sides
    for draw in range(2400):
        node, nxt = group(), group()
        incoming = matrix(node.coord_dim, rng.randint(0, 3))
        if draw % 2:
            outgoing = matrix(nxt.coord_dim, node.coord_dim)
        else:
            outgoing = IntMatrix.zeros(nxt.coord_dim, node.coord_dim)
        exact = exact_at(incoming, node, outgoing, nxt)
        assert exact == smith_exact_at(incoming, node, outgoing, nxt), draw
        verdicts[exact] += 1
        zero_nodes += not node.coord_dim and incoming.cols > 0 and nxt.coord_dim > 0
        witness = exactness_witness(incoming, node, outgoing, nxt)
        assert (witness is None) == exact
        if witness is not None:
            # in exactly one of the two lattices, the kernel checked directly
            kernel = in_kernel(witness, node, outgoing, nxt)
            image = in_image(witness, incoming, node)
            assert kernel != image, draw
            witnesses["kernel" if kernel else "image"] += 1
    assert min(verdicts.values()) > 300 and min(witnesses.values()) > 100
    assert zero_nodes > 100


def doubled(f):
    return CochainMap(f.source, f.target, f.degree, tuple(m.scale(2) for m in f.mats))


def catalog_euler_models():
    """cp(1..3) with u to 5u, and the sphere, torus and RP^2 with the
    Alexander-Whitney cup and each class up to 3 (RP^2: its two classes)."""
    models = [cp_bundle(n, k) for n in (1, 2, 3) for k in range(1, 6)]
    for name, classes in (("sphere2", 4), ("torus2", 4), ("rp2", 2)):
        m = catalog_build(name, ())
        models += [realize_euler_class(m.complex, m.cup, (k,), m.provenance)
                   for k in range(classes)]
    return models


def glued_multi_monopole_cones(monkeypatch):
    """The Mayer-Vietoris cone of each glued multi-monopole base (1,1),
    (1,2,3) and (2,2,4) at N = 1..3."""
    from tduality import borel

    cones = []
    real = borel.mayer_vietoris_glue

    def recording(*args):
        cones.append(real(*args))
        return cones[-1]

    monkeypatch.setattr(borel, "mayer_vietoris_glue", recording)
    for charges in ((1, 1), (1, 2, 3), (2, 2, 4)):
        for n in (1, 2, 3):
            borel._multi_monopole_bundle.__wrapped__(charges, n)
    monkeypatch.undo()
    return cones


def test_hermite_kernel_verdicts_equal_the_smith_kernel_on_every_sequence_node(monkeypatch):
    cones = glued_multi_monopole_cones(monkeypatch)
    calls = []

    def both(*args):
        calls.append((exact_at(*args), smith_exact_at(*args)))
        return calls[-1][0]

    monkeypatch.setattr(gysin, "exact_at", both)
    for model in catalog_euler_models():
        cone = total_space(model)
        top = cone.total.top_degree
        assert gysin_sequence(model, 0, top).exact
        # with the connecting map doubled, the sequence of a nonzero class is not exact
        corrupted = cone_exactness(MappingCone(cone.total, doubled(cone.f)),
                                   ("a{}", "b{}", "c{}"), 0, top)
        assert corrupted.exact == (not any(model.euler_rep))
    for cone in cones:
        assert cone_exactness(cone, CONE_LABELS, 0, len(cone.total.ranks)).exact
    assert len(cones) == 9 and len(calls) > 900
    assert all(hermite == smith for hermite, smith in calls)
    assert {hermite for hermite, _ in calls} == {True, False}


def test_a_corrupted_gysin_triangle_names_a_witness_in_one_lattice_only(monkeypatch):
    # cup with e doubled in place of the connecting map: on cp(1) with e = 3u,
    # H^0(B) = Z -> H^2(B) = Z has image 6Z where the pullback to H^2(E) = Z/3
    # kills 3Z, so the witness is the generator 3 of the kernel
    nodes = []
    real = gysin.exact_at

    def recording(*args):
        nodes.append(args)
        return real(*args)

    monkeypatch.setattr(gysin, "exact_at", recording)
    rp2 = catalog_build("rp2", ())
    models = [cp_bundle(1, 3), cp_bundle(2, 1),
              realize_euler_class(rp2.complex, rp2.cup, (1,), rp2.provenance)]
    failing = []
    for model in models:
        cone = total_space(model)
        nodes.clear()
        report = cone_exactness(MappingCone(cone.total, doubled(cone.f)), GYSIN_LABELS,
                                0, cone.total.top_degree)
        assert len(nodes) == len(report.nodes)
        for node, (incoming, group, outgoing, nxt) in zip(report.nodes, nodes):
            assert (node.witness is None) == node.exact
            if node.exact:
                continue
            w = node.witness
            kernel = in_kernel(w, group, outgoing, nxt)
            relations = list(group.relation_rows())
            rows = [list(incoming.entries[i]) + [r[i] for r in relations]
                    for i in range(group.coord_dim)]
            image = bool(brute_solutions(rows, list(w), -12, 12))
            assert kernel != image, node
            failing.append((node.label, w))
    assert failing[0] == ("H^2(B)", (3,))
    assert ("H^2(B)", (1,)) in failing  # cp(2), e = u: image 2Z, kernel Z
