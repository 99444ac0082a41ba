import random

import pytest

from generators import random_complex, random_sparse_candidate
from oracles import (
    bareiss_det, canonical_shape, cohom_shape, eye_rows, group_direct_sum, mat_mul, presentation,
    step_log_transforms,
)
from tduality.complexes import (
    CochainMap,
    GradedComplex,
    class_coordinates,
    cochain_map_sum,
    cohomology,
    cohomology_shapes,
    describe_shape,
    direct_sum,
    first_shape_difference,
    mapping_cone,
    tensor_product,
    validate_complex,
)
from tduality.catalog import (
    CatalogModel, catalog_build, euler_model_from_cocycle, euler_model_from_label_coeffs,
)
from tduality.errors import PreconditionError
from tduality.gysin import (
    PROVENANCE_ALGEBRAIC, CupStructure, EulerModel, cone_exactness, fiber_integration, pullback,
    realize_euler_class, zero_euler_model,
)
from tduality.matrices import (
    IntMatrix,
    kernel_basis,
    smith_normal_form,
    solve_integer_system,
    unimodular_inverse,
)
from tduality.simplicial import Cochain, cochain_complex_of, cup_operator, from_facets
from tduality.tdual import TDualityTriple, triple_from_flux_coords

CONE_LABELS = ("H^{}(C)", "H^{}(Cone)", "H^{}(A)")


def circle_model():
    return GradedComplex.with_zero_deltas((1, 1))


def point_model():
    return GradedComplex.with_zero_deltas((1,))


def lens_model(k, n=1):
    ranks = (1,) * (2 * n + 2)
    deltas = tuple(
        IntMatrix.from_rows([[k if d % 2 else 0]]) for d in range(2 * n + 1)
    )
    return GradedComplex(ranks, deltas)


def shapes_of(cx):
    return [cohomology(cx, n).shape for n in range(len(cx.ranks))]


def oracle_shapes(cx):
    return cohom_shape(list(cx.ranks), [list(map(list, d.entries)) for d in cx.deltas])


def test_validate_circle_and_lens():
    assert validate_complex(circle_model()).valid
    assert validate_complex(lens_model(5)).valid


def test_validate_flags_first_violation():
    bad = GradedComplex(
        (1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))
    )
    report = validate_complex(bad)
    assert not report.valid
    assert report.degree == 0


def test_construction_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GradedComplex((1, 2), (IntMatrix.from_rows([[1]]),))


def test_empty_complex_is_valid_and_trivial():
    empty = GradedComplex.empty()
    assert validate_complex(empty).valid
    assert cohomology(empty, 0).coord_dim == 0
    assert cohomology(empty, 5).coord_dim == 0


def test_cohomology_circle():
    c = circle_model()
    assert cohomology(c, 0).shape == ((), 1)
    assert cohomology(c, 1).shape == ((), 1)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_cohomology_lens_full_profile(k):
    # oracle: alternating (0, k) coboundaries give Z, 0, Z/k, Z
    cx = lens_model(k)
    assert shapes_of(cx) == [((), 1), ((), 0), ((k,), 0), ((), 1)]
    assert shapes_of(cx) == oracle_shapes(cx)


def test_cohomology_rejects_invalid_complex():
    bad = GradedComplex(
        (1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))
    )
    with pytest.raises(PreconditionError):
        cohomology(bad, 1)


def test_generators_are_cocycles_with_unit_coordinates():
    rng = random.Random(11)
    for _ in range(25):
        cx = random_complex(rng)
        for n in range(len(cx.ranks)):
            g = cohomology(cx, n)
            assert all(f >= 2 for f in g.torsion)
            for a, b in zip(g.torsion, g.torsion[1:]):
                assert b % a == 0
            for i, gen in enumerate(g.generators):
                assert not any(cx.delta_at(n).apply(gen))
                unit = tuple(int(j == i) for j in range(g.coord_dim))
                assert g.coordinates(gen) == unit


def test_class_coordinates_of_coboundary_vanish():
    cx = lens_model(5)
    w = (3,)
    z = cx.delta_at(1).apply(w)
    assert class_coordinates(cx, 2, z) == (0,)


def test_class_coordinates_torsion_reduction():
    cx = lens_model(5)
    g = cohomology(cx, 2).generators[0]
    assert class_coordinates(cx, 2, tuple(3 * x for x in g)) == (3,)
    assert class_coordinates(cx, 2, tuple(7 * x for x in g)) == (2,)


def test_class_coordinates_rejects_non_cocycle():
    cx = lens_model(5)
    with pytest.raises(PreconditionError, match=r"\(delta z\)\[0\]"):
        class_coordinates(cx, 1, (1,))


def test_class_coordinates_additive_mod_torsion():
    rng = random.Random(23)
    for _ in range(20):
        cx = random_complex(rng)
        n = rng.randrange(len(cx.ranks))
        g = cohomology(cx, n)
        if not g.generators:
            continue
        z1 = g.rep_from_coords(tuple(rng.randint(-3, 3) for _ in range(g.coord_dim)))
        z2 = g.rep_from_coords(tuple(rng.randint(-3, 3) for _ in range(g.coord_dim)))
        both = g.coordinates(tuple(a + b for a, b in zip(z1, z2)))
        summed = tuple(a + b for a, b in zip(g.coordinates(z1), g.coordinates(z2)))
        for i, f in enumerate(list(g.torsion) + [0] * g.free_rank):
            if f:
                assert (both[i] - summed[i]) % f == 0
            else:
                assert both[i] == summed[i]


# The solid tetrahedron: C^2 has rank 4 and delta[2] is the row (-1, 1, -1, 1)
# over the triangles 012, 013, 023, 123, so the cochain on 012 has
# (delta z)[0] = -1.  An algebraic base with that coboundary answers alike.
SOLID = from_facets([(0, 1, 2, 3)])
SOLID_ALGEBRAIC = GradedComplex((1, 1, 4, 1), (
    IntMatrix.zeros(1, 1), IntMatrix.zeros(4, 1), IntMatrix.from_rows([[-1, 1, -1, 1]])))
NOT_CLOSED = (1, 0, 0, 0)


def gate_callers():
    """Each caller of ``require_cocycle`` and ``CohomologyGroup.require_coords``
    with an input that fails, and the whole message it must raise."""
    solid = cochain_complex_of(SOLID)
    user = {"simplicial": CatalogModel("user:s", (), solid, CupStructure((), (), (), SOLID)),
            "algebraic": CatalogModel("user:a", (), SOLID_ALGEBRAIC, CupStructure((), (), ()))}
    cp2 = catalog_build("cp", (2,))
    # cp(2) with e = 2u: T^3 = B^3 + B^2 = 0 + Z and D(0, psi) = -2 psi u, so H^3 = 0
    bundle = euler_model_from_label_coeffs(cp2, {"u": 2})
    circle = catalog_build("circle")
    zero = CochainMap.zero(solid, solid, 2)
    open_rep = "Euler representative is not a cocycle: (delta z)[0] = -1 in degree 3"
    short_rep = "Euler representative of length 2 in degree 2 of rank 4"
    return [
        ("class_coordinates", lambda: class_coordinates(solid, 2, NOT_CLOSED),
         "cochain is not a cocycle: (delta z)[0] = -1 in degree 3"),
        ("class_coordinates length", lambda: class_coordinates(solid, 2, (1,)),
         "cochain of length 1 in degree 2 of rank 4"),
        ("cup_operator", lambda: cup_operator(Cochain(SOLID, 2, NOT_CLOSED)),
         "cup operator's 2-cochain is not a cocycle: (delta z)[0] = -1 in degree 3"),
        ("EulerModel", lambda: EulerModel(solid, NOT_CLOSED, zero, PROVENANCE_ALGEBRAIC),
         open_rep),
        ("EulerModel length", lambda: EulerModel(solid, (1, 0), zero, PROVENANCE_ALGEBRAIC),
         short_rep),
        *((f"euler_model_from_cocycle {kind}{suffix}",
           lambda model=model, rep=rep: euler_model_from_cocycle(model, rep), message)
          for kind, model in user.items()
          for suffix, rep, message in (("", NOT_CLOSED, open_rep), (" length", (1, 0), short_rep))),
        ("TDualityTriple", lambda: TDualityTriple(bundle, (1,)),
         "flux is not a cocycle: (delta z)[0] = -2 in degree 4"),
        ("TDualityTriple length", lambda: TDualityTriple(bundle, (1, 0)),
         "flux of length 2 in degree 3 of rank 1"),
        ("realize_euler_class",
         lambda: realize_euler_class(cp2.complex, cp2.cup, (1, 0), PROVENANCE_ALGEBRAIC),
         "Euler class has 2 coordinates but H^2 of the base has 1 generators"),
        ("pullback", lambda: pullback(bundle, 2, (1, 0)),
         "class has 2 coordinates but H^2 of the base has 1 generators"),
        ("fiber_integration",
         lambda: fiber_integration(zero_euler_model(circle.complex, circle.cup), 3, (1,)),
         "class has 1 coordinates but H^3 of the total model has 0 generators"),
        ("triple_from_flux_coords", lambda: triple_from_flux_coords(bundle, (1,)),
         "flux has 1 coordinates but H^3 of the total model has 0 generators"),
    ]


@pytest.mark.parametrize("index", range(len(gate_callers())),
                         ids=[name for name, _, _ in gate_callers()])
def test_every_gate_caller_names_the_object_and_a_witness(index):
    # a cochain's message names the object, the degree and the length or the
    # first nonzero entry of delta z; a coordinate count's names the space and
    # both counts
    _, call, message = gate_callers()[index]
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message


def test_rep_from_coords_raises_on_a_count_mismatch():
    group = cohomology(cochain_complex_of(SOLID), 1)  # contractible: H^1 = 0
    assert group.rep_from_coords(()) == (0,) * 6
    with pytest.raises(ValueError):
        group.rep_from_coords((1,))
    circle = cohomology(GradedComplex.with_zero_deltas((1, 1)), 1)
    with pytest.raises(ValueError):
        circle.rep_from_coords((1, 2))


def test_euler_characteristic_on_filtered_random_complexes():
    # entries in [-3, 3]; candidates filtered to valid complexes
    rng = random.Random(5)
    valid = 0
    attempts = 0
    while valid < 30 and attempts < 4000:
        attempts += 1
        cx = random_sparse_candidate(rng)
        if not validate_complex(cx).valid:
            continue
        valid += 1
        euler_ranks = sum(
            (-1) ** n * r for n, r in enumerate(cx.ranks)
        )
        euler_h = 0
        for n in range(len(cx.ranks)):
            g = cohomology(cx, n)
            euler_h += (-1) ** n * g.free_rank
        assert euler_h == euler_ranks
        # rank-nullity per degree
        from oracles import matrix_rank

        for n in range(len(cx.ranks)):
            rk = matrix_rank([list(r) for r in cx.delta_at(n).entries])
            nullity = cx.rank_at(n) - rk
            rk_below = matrix_rank([list(r) for r in cx.delta_at(n - 1).entries])
            assert cohomology(cx, n).free_rank == nullity - rk_below
    assert valid == 30


def test_random_cohomology_matches_oracle():
    rng = random.Random(31)
    for _ in range(30):
        cx = random_complex(rng)
        got = [canonical_shape(s) for s in shapes_of(cx)]
        want = [canonical_shape(s) for s in oracle_shapes(cx)]
        assert got == want


# --- cohomology against the two-pass route ---------------------------------


def two_pass_cohomology(cx, n):
    """``H^n`` as ``(torsion, free rank, generators, coordinate rows)`` by the
    route that inverts each transform with a second Smith form
    (``unimodular_inverse``) and multiplies with the oracle's triple loop;
    coordinate row ``i`` belongs to generator ``i``, with its factor."""
    a, b = cx.delta_at(n), cx.delta_at(n - 1)
    rank_n = cx.rank_at(n)
    snf_a = smith_normal_form(a)
    r_a = snf_a.rank
    k = rank_n - r_a
    reduce_rows = unimodular_inverse(snf_a.v).entries[r_a:]
    p = IntMatrix.from_rows(mat_mul(reduce_rows, b.entries, b.cols), cols=b.cols)
    snf_p = smith_normal_form(p)
    kernel_cols = [row[r_a:] for row in snf_a.v.entries]
    gens_all = mat_mul(kernel_cols, unimodular_inverse(snf_p.u).entries, k)
    coord_all = mat_mul(snf_p.u.entries, reduce_rows, rank_n)
    factors = [
        snf_p.d.entries[i][i] if i < min(snf_p.d.shape) else 0 for i in range(k)
    ]
    order = [i for i, f in enumerate(factors) if f >= 2]
    order += [i for i, f in enumerate(factors) if f == 0]
    generators, coord_rows = [], []
    for i in order:
        gen = [row[i] for row in gens_all]
        sign = -1 if next((x for x in gen if x), 1) < 0 else 1
        generators.append(tuple(sign * x for x in gen))
        coord_rows.append(([sign * x for x in coord_all[i]], factors[i]))
    torsion = tuple(factors[i] for i in order if factors[i])
    return torsion, len(order) - len(torsion), tuple(generators), coord_rows


def two_pass_coordinates(coord_rows, z):
    out = []
    for row, f in coord_rows:
        w = sum(x * y for x, y in zip(row, z))
        out.append(w % f if f else w)
    return tuple(out)


def grid_facets(m, vertex, flipped=()):
    """Triangles of the m x m square grid, each unit square split along its
    main diagonal except the squares in ``flipped``."""
    facets = []
    for x in range(m):
        for y in range(m):
            a, b = vertex(x, y), vertex(x + 1, y)
            c, d = vertex(x, y + 1), vertex(x + 1, y + 1)
            facets += [(a, b, c), (b, c, d)] if (x, y) in flipped else [(a, b, d), (a, c, d)]
    return facets


def torus_facets(m):
    return grid_facets(m, lambda x, y: (x % m) * m + y % m)


def rp2_facets(m):
    """Antipodal boundary points of the square identified; the corner squares
    at (0, m - 1) and (m - 1, 0) take the other diagonal so that no two
    boundary triangles are glued to each other."""
    ids = {}

    def vertex(x, y):
        key = (x, y)
        if x in (0, m) or y in (0, m):
            key = min(key, (m - x, m - y))
        return ids.setdefault(key, len(ids))

    return grid_facets(m, vertex, flipped=((0, m - 1), (m - 1, 0)))


def relabelled(facets, rng):
    vertices = sorted({v for f in facets for v in f})
    image = dict(zip(vertices, rng.sample(range(4 * len(vertices)), len(vertices))))
    return [sorted(image[v] for v in f) for f in facets]


def assert_matches_two_pass(cx, rng):
    for n in range(len(cx.ranks)):
        g = cohomology(cx, n)
        torsion, free_rank, generators, coord_rows = two_pass_cohomology(cx, n)
        assert (g.torsion, g.free_rank) == (torsion, free_rank)
        assert g.generators == generators
        # a kernel basis, a random combination of it, and a coboundary
        cocycles = list(kernel_basis(cx.delta_at(n)))
        combo = [rng.randint(-4, 4) for _ in cocycles]
        cocycles.append(tuple(
            sum(c * z[k] for c, z in zip(combo, cocycles)) for k in range(cx.rank_at(n))
        ))
        w = [rng.randint(-3, 3) for _ in range(cx.rank_at(n - 1))]
        cocycles.append(cx.delta_at(n - 1).apply(w))
        for z in cocycles:
            assert g.coordinates(z) == two_pass_coordinates(coord_rows, z)


def test_cohomology_matches_two_pass_route_on_random_complexes():
    rng = random.Random(41)
    for _ in range(40):
        assert_matches_two_pass(random_complex(rng), rng)


def test_cohomology_matches_two_pass_route_on_relabelled_grids():
    rng = random.Random(43)
    torus = [((), 1), ((), 2), ((), 1)]
    rp2 = [((), 1), ((), 0), ((2,), 0)]
    cases = [(torus_facets, 3, torus), (torus_facets, 4, torus),
             (rp2_facets, 3, rp2), (rp2_facets, 4, rp2)]
    for build, m, shape in cases:
        for _ in range(2):
            cx = cochain_complex_of(from_facets(relabelled(build(m), rng)))
            assert shapes_of(cx) == shape
            assert_matches_two_pass(cx, rng)


# --- shapes from the Smith diagonals ---------------------------------------


def klein_facets(m):
    """The m x m grid with (m, y) glued to (0, m - y)."""
    def vertex(x, y):
        if x == m:
            x, y = 0, m - y
        return (x % m) * m + y % m

    return grid_facets(m, vertex)


def cross_polytope_facets(d):
    """Boundary of the d-dimensional cross-polytope: one of the vertices
    2i, 2i + 1 from each axis."""
    facets = [()]
    for i in range(d):
        facets = [f + (v,) for f in facets for v in (2 * i, 2 * i + 1)]
    return facets


def shape_cases():
    rng = random.Random(47)
    for _ in range(30):
        yield random_complex(rng)
    valid = 0
    while valid < 30:
        cx = random_sparse_candidate(rng)
        if validate_complex(cx).valid:
            valid += 1
            yield cx
    for build, m in ((torus_facets, 3), (klein_facets, 3), (klein_facets, 4),
                     (rp2_facets, 3), (cross_polytope_facets, 3), (cross_polytope_facets, 4)):
        for _ in range(2):
            yield cochain_complex_of(from_facets(relabelled(build(m), rng)))


def test_cohomology_shapes_equal_the_presented_shapes():
    for cx in shape_cases():
        for top in (cx.top_degree, cx.top_degree + 2):
            shapes = cohomology_shapes(cx, top)
            assert shapes == tuple(cohomology(cx, d).shape for d in range(top + 1))
            assert [describe_shape(s) for s in shapes] == [
                cohomology(cx, d).describe() for d in range(top + 1)
            ]


def test_cohomology_shapes_of_relabelled_klein_bottle_and_cross_polytope():
    rng = random.Random(53)
    klein = cochain_complex_of(from_facets(relabelled(klein_facets(4), rng)))
    assert cohomology_shapes(klein, 2) == (((), 1), ((), 1), ((2,), 0))
    sphere = cochain_complex_of(from_facets(relabelled(cross_polytope_facets(4), rng)))
    assert cohomology_shapes(sphere, 3) == (((), 1), ((), 0), ((), 0), ((), 1))


def test_cohomology_shapes_reject_an_invalid_complex_as_cohomology_does():
    bad = GradedComplex(
        (1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))
    )
    with pytest.raises(PreconditionError) as presented:
        cohomology(bad, 1)
    with pytest.raises(PreconditionError) as shaped:
        cohomology_shapes(bad, 2)
    assert str(shaped.value) == str(presented.value) == "invalid complex: delta[1] @ delta[0] != 0"


def test_first_shape_difference_names_the_first_degree_that_differs():
    assert first_shape_difference(lens_model(2), lens_model(2), 7) is None
    assert first_shape_difference(lens_model(2), lens_model(3), 3) == (2, ((2,), 0), ((3,), 0))
    assert first_shape_difference(lens_model(2), lens_model(3), 1) is None
    # circle and point differ from degree 1 on; degrees above both are zero
    assert first_shape_difference(circle_model(), point_model(), 5) == (1, ((), 1), ((), 0))
    assert first_shape_difference(lens_model(2), circle_model(), 3) == (1, ((), 0), ((), 1))


# The benchmark's wide charge set: at truncation 2 the Smith transforms of
# its glued total reach hundreds of bits.
WIDE_CHARGES = (287, 10, 44, 40, 23, 11, 36, 39, 12, 25, 19, 28)


def glued_total(charges, n):
    from tduality.borel import SemiFreeSpace, truncated_borel
    from tduality.gysin import total_space

    bundle = truncated_borel(SemiFreeSpace("multi_monopole", charges=charges), n)
    return bundle.base_model, total_space(bundle.euler_s1).total


def check_transforms(m):
    """The transforms of ``smith_normal_form(m)`` against the oracles:
    ``U M V == D`` with ``|det U| == |det V| == 1`` (Bareiss),
    ``U^-1 U == I`` and ``V V^-1 == I`` for the inverses the oracle
    multiplies out from the step logs.  Returns the form and the largest
    bit size of its transforms."""
    snf = smith_normal_form(m)
    u, v = snf.u.entries, snf.v.entries
    _, u_inv, _, v_inv = step_log_transforms(snf)
    assert mat_mul(mat_mul(u, m.entries, m.cols), v, m.cols) == [list(r) for r in snf.d.entries]
    assert abs(bareiss_det(u)) == abs(bareiss_det(v)) == 1
    assert mat_mul(u_inv, u, m.rows) == eye_rows(m.rows, m.rows, 0)
    assert mat_mul(v, v_inv, m.cols) == eye_rows(m.cols, m.cols, 0)
    return snf, max((abs(x).bit_length() for t in (u, v, u_inv, v_inv) for row in t for x in row),
                    default=0)


def check_step_logs(a, b, rng):
    """Checks of the Smith forms ``cohomology`` reads that share no step log
    with what they check: the transforms of the outgoing ``a`` and of the
    presentation matrix ``R b`` (``check_transforms``), ``R K == I_k`` and
    ``a K == 0`` for the kernel columns ``K`` and coordinate rows ``R`` of
    ``a``, and a solution from ``solve_integer_system(a, a x)``.  Returns
    the largest bit size of the transforms."""
    snf_a, bits_a = check_transforms(a)
    n = a.cols
    k = n - snf_a.rank
    rows = snf_a.kernel_coordinate_rows()
    kernel = [list(row) for row in zip(*snf_a.kernel_columns())] or [[] for _ in range(n)]
    assert mat_mul(rows, kernel, k) == eye_rows(k, k, 0)
    assert mat_mul(a.entries, kernel, k) == [[0] * k for _ in range(a.rows)]
    _, bits_p = check_transforms(IntMatrix.from_rows(rows, cols=n) @ b)

    x = [rng.randint(-9, 9) for _ in range(n)]
    rhs = a.apply(x)
    y = solve_integer_system(a, rhs)
    assert y is not None and mat_mul(a.entries, [[v] for v in y], 1) == [[v] for v in rhs]
    return max(bits_a, bits_p)


def test_step_log_products_pass_the_oracles_on_random_matrices():
    rng = random.Random(67)
    for _ in range(60):
        rows, cols, width = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 5)
        bound = rng.choice((1, 3, 2**40))
        a, b = ([[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(w)]
                 for _ in range(h)] for h, w in ((rows, cols), (cols, width)))
        check_step_logs(IntMatrix.from_rows(a, cols=cols), IntMatrix.from_rows(b, cols=width), rng)
    for _ in range(20):
        cx = random_complex(rng)
        for d in range(cx.top_degree + 1):
            check_step_logs(cx.delta_at(d), cx.delta_at(d - 1), rng)


def test_step_log_products_pass_the_oracles_on_the_wide_glued_total():
    rng = random.Random(71)
    bits = [check_step_logs(cx.delta_at(d), cx.delta_at(d - 1), rng)
            for cx in glued_total(WIDE_CHARGES, 2) for d in range(cx.top_degree + 1)]
    assert max(bits) > 100


def check_against_the_whole_kernel_presentation(cx, rng):
    """``cohomology`` keeps only the selected rows of the presentation:
    generators, shape and the coordinates of random cocycles and
    coboundaries equal those of ``oracles.presentation``, degrees -1 to one
    above the complex included."""
    for n in range(-1, cx.top_degree + 2):
        group = cohomology(cx, n)
        torsion, free_rank, generators, coordinates = presentation(cx, n)
        assert (group.torsion, group.free_rank, group.generators) == \
            (torsion, free_rank, generators)
        for _ in range(4):
            w = [rng.randint(-5, 5) for _ in range(cx.rank_at(n - 1))]
            boundary = cx.delta_at(n - 1).apply(w)
            assert group.coordinates(boundary) == coordinates(boundary) == (0,) * len(generators)
            z = boundary
            for g in generators:
                c = rng.randint(-9, 9)
                z = tuple(x + c * y for x, y in zip(z, g))
            assert group.coordinates(z) == coordinates(z)


def test_cohomology_keeps_the_selected_rows_of_the_whole_kernel_presentation():
    from tduality.catalog import CATALOG_NAMES, catalog_build

    rng = random.Random(19)
    for _ in range(40):
        check_against_the_whole_kernel_presentation(random_complex(rng), rng)
    for name in CATALOG_NAMES:
        for params in {"cp": ((1,), (3,)), "lens": ((5, 1), (4, 2))}.get(name, ((),)):
            check_against_the_whole_kernel_presentation(catalog_build(name, params).complex, rng)
    for cx in glued_total((5, 2, 3), 2) + glued_total(WIDE_CHARGES, 2):
        check_against_the_whole_kernel_presentation(cx, rng)


def test_invariant_factors_equal_the_smith_diagonal_on_engine_coboundaries():
    from tduality.catalog import catalog_build, euler_model_from_label_coeffs
    from tduality.gysin import total_space
    from tduality.matrices import invariant_factors

    complexes = list(glued_total(WIDE_CHARGES, 2))
    for n, k in ((1, 1), (3, 6), (10, 3), (20, 12)):
        model = euler_model_from_label_coeffs(catalog_build("cp", (n,)), {"u": k})
        complexes.append(total_space(model).total)
    ladder = [torus_facets(4), torus_facets(6), cross_polytope_facets(3),
              cross_polytope_facets(4), cross_polytope_facets(5),
              [tuple(v for v in range(7) if v != skip) for skip in range(7)]]
    rng = random.Random(61)
    complexes += [cochain_complex_of(from_facets(relabelled(f, rng))) for f in ladder]
    for cx in complexes:
        for delta in cx.deltas:
            assert invariant_factors(delta) == smith_normal_form(delta).factors


def test_cohomology_shapes_read_no_transform_and_form_no_product(monkeypatch):
    from tduality import matrices
    from tduality.complexes import _coboundary_factors

    def forbidden(*args, **kwargs):
        raise AssertionError("a transform or a product was built")

    rng = random.Random(59)
    fresh = [cochain_complex_of(from_facets(relabelled(rp2_facets(4), rng))),
             random_complex(rng), *glued_total((4, 2, 2), 2)]
    want = [cohomology(cx, d).shape for cx in fresh[2:] for d in range(cx.top_degree + 1)]
    for cx in fresh:
        validate_complex(cx)  # checking the complex multiplies coboundaries
    _coboundary_factors.cache_clear()  # building the glued base read its shapes
    for name in ("u", "v", "d"):
        monkeypatch.setattr(matrices.SNFDecomposition, name, property(forbidden))
    monkeypatch.setattr(matrices.IntMatrix, "__matmul__", forbidden)
    assert cohomology_shapes(fresh[0], 2) == (((), 1), ((), 0), ((2,), 0))
    cohomology_shapes(fresh[1], fresh[1].top_degree)
    got = [s for cx in fresh[2:] for s in cohomology_shapes(cx, cx.top_degree)]
    assert got == want and ((2, 2), 1) in got  # the glued total has torsion
    with pytest.raises(AssertionError, match="transform or a product"):
        cohomology(fresh[0], 1)


# --- mapping cones -------------------------------------------------------


def test_cone_of_zero_map_is_sum_with_shift():
    rng = random.Random(41)
    a = random_complex(rng, max_rank=3, max_deg=4)
    b = random_complex(rng, max_rank=3, max_deg=4)
    f = CochainMap.zero(a, b, 0)
    cone = mapping_cone(f)
    for n in range(len(cone.total.ranks) + 1):
        got = canonical_shape(cohomology(cone.total, n).shape)
        want = group_direct_sum(
            cohomology(a, n).shape, cohomology(b, n - 1).shape
        )
        assert got == canonical_shape(want)


def test_cone_of_identity_is_acyclic():
    cx = lens_model(3, n=2)
    f = CochainMap(cx, cx, 0, tuple(IntMatrix.eye(1, 1, 0) for _ in cx.ranks))
    cone = mapping_cone(f)
    for n in range(len(cone.total.ranks) + 1):
        assert cohomology(cone.total, n).coord_dim == 0


def test_cone_of_multiplication_by_k_on_point():
    pt = point_model()
    f = CochainMap(pt, pt, 0, (IntMatrix.from_rows([[6]]),))
    cone = mapping_cone(f)
    assert cohomology(cone.total, 0).coord_dim == 0
    assert cohomology(cone.total, 1).shape == ((6,), 0)


def test_cone_rejects_non_chain_map():
    cx = lens_model(2)
    mats = list(IntMatrix.eye(1, 1, 0) for _ in cx.ranks)
    mats[1] = IntMatrix.from_rows([[3]])  # breaks commuting across delta1 = [2]
    with pytest.raises(PreconditionError):
        CochainMap(cx, cx, 0, tuple(mats))


def test_cone_structural_maps_commute():
    rng = random.Random(43)
    a = random_complex(rng, max_rank=2, max_deg=4)
    b = random_complex(rng, max_rank=2, max_deg=4)
    cone = mapping_cone(CochainMap.zero(a, b, 0))
    # CochainMap construction validates strict commuting; reaching here is the test
    assert cone.inclusion.degree == 1
    assert cone.projection.degree == 0


def test_cone_builds_its_structural_maps_on_first_read(monkeypatch):
    built = []
    check = CochainMap.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    rng = random.Random(45)
    a = random_complex(rng, max_rank=2, max_deg=4)
    b = random_complex(rng, max_rank=2, max_deg=4)
    f = CochainMap.zero(a, b, 0)
    monkeypatch.setattr(CochainMap, "__post_init__", counted)
    cone = mapping_cone(f)
    assert cone.total.top_degree == max(a.top_degree, b.top_degree + 1) and built == []
    assert cone.inclusion is cone.inclusion and len(built) == 1
    assert cone.projection.source == cone.total and len(built) == 2
    assert cone == mapping_cone(f) and len(built) == 2
def test_cone_rejects_maps_of_negative_degree():
    b = GradedComplex((1, 1), (IntMatrix.from_rows([[1]]),))
    for degree in (-1, -2):
        with pytest.raises(PreconditionError, match=f"not degree {degree}"):
            mapping_cone(CochainMap.zero(b, b, degree))


def test_cones_of_degree_one_and_two_are_valid_with_exact_triangles():
    point = GradedComplex.with_zero_deltas((1,))
    circle = GradedComplex.with_zero_deltas((1, 1))
    # B^0 sits in cone degree 0 for d = 2, so its nonzero delta0 is kept
    b = GradedComplex((1, 1), (IntMatrix.from_rows([[1]]),))
    twice = CochainMap(point, circle, 1, (IntMatrix.from_rows([[2]]),))
    rng = random.Random(47)
    a, c = random_complex(rng, max_rank=3, max_deg=4), random_complex(rng, max_rank=3, max_deg=4)
    cones = [mapping_cone(twice), mapping_cone(CochainMap.zero(point, b, 2))]
    cones += [mapping_cone(CochainMap.zero(a, c, d)) for d in (1, 2)]
    for cone in cones:
        assert validate_complex(cone.total).valid
        assert cone_exactness(cone, CONE_LABELS, 0, cone.total.top_degree + 1).exact
    assert [cohomology(cones[0].total, n).shape for n in (0, 1)] == [((), 1), ((2,), 0)]
    # B is acyclic, so the cone is the point moved up one degree
    assert [cohomology(cones[1].total, n).shape for n in (0, 1)] == [((), 0), ((), 1)]
    for d, cone in zip((1, 2), cones[2:]):
        for n in range(cone.total.top_degree + 2):
            want = group_direct_sum(cohomology(c, n).shape, cohomology(a, n + 1 - d).shape)
            assert canonical_shape(cohomology(cone.total, n).shape) == canonical_shape(want)


def test_cone_exactness_checks_degree_zero_of_every_term():
    point = GradedComplex.with_zero_deltas((1,))
    b = GradedComplex((1, 1), (IntMatrix.from_rows([[1]]),))
    # the walk from H^n(C) starts at n = lo + shift, which for every degree d
    # puts H^lo(C), H^lo(Cone) and H^lo(A) on it once hi >= lo + d - 1
    for d in range(4):
        cone = mapping_cone(CochainMap.zero(point, b, d))
        for lo in (0, 1, 2):
            report = cone_exactness(cone, CONE_LABELS, lo, lo + 2)
            assert report.exact and report.degree_range == (lo + cone.shift, lo + 2)
            labels = [node.label for node in report.nodes]
            assert {f"H^{lo}(C)", f"H^{lo}(Cone)", f"H^{lo}(A)"} <= set(labels), (d, lo)
            assert labels[1] == f"H^{lo}(Cone)"
    # degree 0: H^-1(C) leads into H^0(Cone), so the walk starts a step below
    report = cone_exactness(mapping_cone(CochainMap.zero(point, point, 0)), CONE_LABELS, 0, 1)
    assert report.exact and report.degree_range == (-1, 1)
    assert [node.label for node in report.nodes] == [
        "H^-1(C)", "H^0(Cone)", "H^0(A)", "H^0(C)", "H^1(Cone)", "H^1(A)",
        "H^1(C)", "H^2(Cone)", "H^2(A)",
    ]
    # degree 2: H^0(A) follows H^0(C), H^0(Cone) and H^-1(A)
    report = cone_exactness(mapping_cone(CochainMap.zero(point, b, 2)), CONE_LABELS, 0, 1)
    assert report.exact and report.degree_range == (0, 1)
    assert [node.label for node in report.nodes] == [
        "H^0(C)", "H^0(Cone)", "H^-1(A)", "H^1(C)", "H^1(Cone)", "H^0(A)",
    ]


# --- tensor products -----------------------------------------------------


def test_tensor_unit():
    rng = random.Random(47)
    a = random_complex(rng, max_rank=3, max_deg=4)
    t = tensor_product(a, point_model())
    assert t.ranks == a.ranks
    assert shapes_of(t) == shapes_of(a)


def test_tensor_circle_circle_torus_profile():
    t = tensor_product(circle_model(), circle_model())
    assert shapes_of(t) == [((), 1), ((), 2), ((), 1)]
    assert shapes_of(t) == oracle_shapes(t)


def test_tensor_cp1_circle():
    cp1 = GradedComplex.with_zero_deltas((1, 0, 1))
    t = tensor_product(cp1, circle_model())
    assert shapes_of(t) == [((), 1), ((), 1), ((), 1), ((), 1)]


def test_tensor_kuenneth_against_direct_sum():
    # circle factor is free with free cohomology, so no Tor terms appear
    for base in (lens_model(3), lens_model(5, n=2), tensor_product(circle_model(), circle_model())):
        t = tensor_product(base, circle_model())
        assert validate_complex(t).valid
        for n in range(len(t.ranks)):
            got = canonical_shape(cohomology(t, n).shape)
            want = group_direct_sum(
                cohomology(base, n).shape, cohomology(base, n - 1).shape
            )
            assert got == canonical_shape(want)


def test_tensor_koszul_signs_square_to_zero():
    rng = random.Random(53)
    for _ in range(10):
        a = random_complex(rng, max_rank=2, max_deg=3)
        b = random_complex(rng, max_rank=2, max_deg=3)
        assert validate_complex(tensor_product(a, b)).valid


def test_direct_sum_shapes():
    a = lens_model(2)
    b = circle_model()
    s = direct_sum(a, b)
    for n in range(len(s.ranks)):
        assert canonical_shape(cohomology(s, n).shape) == group_direct_sum(
            cohomology(a, n).shape, cohomology(b, n).shape
        )


def test_cochain_map_sum_requires_compatibility():
    cx = circle_model()
    f = CochainMap.zero(cx, cx, 2)
    g = CochainMap.zero(cx, cx, 1)
    with pytest.raises(PreconditionError):
        cochain_map_sum([(1, f), (1, g)])


# --- bounded caches ----------------------------------------------------------


def package_caches():
    import sys

    import tduality  # noqa: F401 - loads every module

    found = {}
    for name, module in list(sys.modules.items()):
        if name == "tduality" or name.startswith("tduality."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    found[value.__qualname__] = value
    return found


def test_every_cache_is_bounded():
    caches = package_caches()
    assert {"cohomology", "_smith", "validate_complex", "_coboundary_factors", "total_space",
            "catalog_build", "cochain_complex_of",
            "_multi_monopole_bundle", "_realize_euler_class", "induced_matrix"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


def test_caches_stay_within_their_bound_past_it():
    from tduality.complexes import _coboundary_factors, _smith

    bounded = (cohomology, _smith, validate_complex, _coboundary_factors)
    bound = max(f.cache_info().maxsize for f in bounded)
    for k in range(bound + 10):
        cx = GradedComplex((1, 1), (IntMatrix.from_rows([[k]]),))
        cohomology(cx, 1)
        cohomology_shapes(cx, 1)
    for f in bounded:
        info = f.cache_info()
        assert info.currsize == info.maxsize, f.__name__


# --- one elimination per coboundary ------------------------------------------


def clear_package_caches():
    for cache in package_caches().values():
        cache.cache_clear()


def test_cohomology_eliminates_each_coboundary_once(monkeypatch):
    import tduality.complexes as complexes_module

    cx = cochain_complex_of(from_facets([tuple(sorted(f)) for f in torus_facets(3)]))
    assert cx.ranks == (9, 27, 18)
    clear_package_caches()
    shapes = []
    eliminate = complexes_module.smith_normal_form

    def counted(m):
        shapes.append(m.shape)
        return eliminate(m)

    monkeypatch.setattr(complexes_module, "smith_normal_form", counted)
    assert [cohomology(cx, n).describe() for n in range(3)] == ["Z", "Z^2", "Z"]
    # delta0, delta1 and the empty delta2 once each, and the images of
    # delta[-1] and delta0 in kernel coordinates; H^2 reuses delta1's form
    assert len(shapes) == 5
    assert shapes.count((18, 27)) == 1


def test_presentations_do_not_depend_on_evaluation_order():
    rng = random.Random(2626)
    cases = [random_complex(rng) for _ in range(200)]
    cases += [GradedComplex.with_zero_deltas((2, 0, 3, 1)), catalog_build("cp", (3,)).complex]
    for cx in cases:
        degrees = range(-1, cx.top_degree + 2)
        runs = []
        for order, clear_between in ((degrees, False), (degrees[::-1], False), (degrees, True)):
            clear_package_caches()
            groups = {}
            for n in order:
                if clear_between:
                    clear_package_caches()
                groups[n] = cohomology(cx, n)
            runs.append(groups)
        assert runs[0] == runs[1] == runs[2], cx


def test_coboundaries_outside_the_complex_are_zero_and_built_once():
    import pickle

    rng = random.Random(2727)
    cases = [random_complex(rng) for _ in range(100)]
    cases += [catalog_build("cp", (3,)).complex, GradedComplex.with_zero_deltas((2,)),
              GradedComplex.empty()]
    for cx in cases:
        inside = range(len(cx.deltas))
        for n in range(-3, cx.top_degree + 3):
            delta = cx.delta_at(n)
            assert delta is cx.delta_at(n), (cx, n)
            if n in inside:
                assert delta is cx.deltas[n]
            else:
                assert delta == IntMatrix.zeros(cx.rank_at(n + 1), cx.rank_at(n)), (cx, n)
        # the edge maps are kept on the instance, not in its fields
        copy = pickle.loads(pickle.dumps(cx))
        assert copy == cx and hash(copy) == hash(cx) and "_edge_deltas" not in vars(copy)
