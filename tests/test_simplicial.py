import random

import pytest

from oracles import cohom_shape
from tduality.catalog import RP2_FACETS, SPHERE2_FACETS, TORUS7_FACETS
from tduality.complexes import class_coordinates, cohomology, validate_complex
from tduality.errors import PreconditionError
from tduality.simplicial import (
    Cochain,
    cochain_complex_of,
    cup_operator,
    cup_product,
    from_facets,
)


def shapes_of(cx):
    return [cohomology(cx, n).shape for n in range(len(cx.ranks))]


def oracle_shapes(cx):
    return cohom_shape(list(cx.ranks), [list(map(list, d.entries)) for d in cx.deltas])


def test_single_triangle_closure():
    k = from_facets([(0, 1, 2)])
    assert [len(f) for f in k.faces] == [3, 3, 1]
    assert k.faces[0] == ((0,), (1,), (2,))


def test_from_facets_rejects_descending_and_duplicates():
    with pytest.raises(PreconditionError):
        from_facets([(1, 0)])
    with pytest.raises(PreconditionError):
        from_facets([(0, 0, 1)])
    with pytest.raises(PreconditionError):
        from_facets([])


def test_from_facets_bounds_facet_size_and_count():
    from tduality.simplicial import MAX_FACET_SIZE, MAX_FACETS

    # at the bounds the closure is built: 2^s - 1 faces per disjoint facet
    k = from_facets([tuple(range(MAX_FACET_SIZE))])
    assert sum(map(len, k.faces)) == 2**MAX_FACET_SIZE - 1
    assert len(from_facets([(2 * i, 2 * i + 1) for i in range(MAX_FACETS)]).faces[1]) == MAX_FACETS
    with pytest.raises(PreconditionError, match="simplicial.MAX_FACET_SIZE"):
        from_facets([(0, 1), tuple(range(MAX_FACET_SIZE + 1))])
    with pytest.raises(PreconditionError, match="simplicial.MAX_FACETS"):
        from_facets([(2 * i, 2 * i + 1) for i in range(MAX_FACETS + 1)])


def test_facet_lists_with_one_closure_give_one_complex():
    # a complex is its faces: a listed face of another facet changes nothing,
    # so both lists key one cochain complex
    with_edge, without = from_facets([(0, 1, 2), (0, 1)]), from_facets([(0, 1, 2)])
    assert with_edge == without and hash(with_edge) == hash(without)
    cochain_complex_of.cache_clear()
    assert cochain_complex_of(with_edge) is cochain_complex_of(without)
    info = cochain_complex_of.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert from_facets([(0, 1, 2), (2, 3)]) != without


def test_from_facets_bounds_dense_coboundaries():
    from tduality.simplicial import MAX_COBOUNDARY_ENTRIES, MAX_FACETS

    # 500 disjoint edges: a 500 x 1000 coboundary, exactly at the bound
    edges = [(2 * i, 2 * i + 1) for i in range(MAX_FACETS)]
    k = from_facets(edges)
    assert len(k.faces[0]) * len(k.faces[1]) == MAX_COBOUNDARY_ENTRIES
    # widening one edge to a triangle adds a vertex and two edges
    with pytest.raises(PreconditionError, match="simplicial.MAX_COBOUNDARY_ENTRIES"):
        from_facets([(0, 1, 2 * MAX_FACETS)] + edges[1:])


def test_boundary_tetrahedron_is_sphere():
    k = from_facets(SPHERE2_FACETS)
    cx = cochain_complex_of(k)
    assert cx.ranks == (4, 6, 4)
    assert validate_complex(cx) == ""
    assert shapes_of(cx) == [((), 1), ((), 0), ((), 1)]
    assert shapes_of(cx) == oracle_shapes(cx)


def test_seven_vertex_torus():
    assert len(TORUS7_FACETS) == 14
    k = from_facets(TORUS7_FACETS)
    cx = cochain_complex_of(k)
    assert cx.ranks == (7, 21, 14)
    assert shapes_of(cx) == [((), 1), ((), 2), ((), 1)]
    assert shapes_of(cx) == oracle_shapes(cx)


def test_rp2_six_vertex():
    k = from_facets(RP2_FACETS)
    cx = cochain_complex_of(k)
    assert cx.ranks == (6, 15, 10)
    assert shapes_of(cx) == [((), 1), ((), 0), ((2,), 0)]
    assert shapes_of(cx) == oracle_shapes(cx)


def test_point_complex():
    k = from_facets([(0,)])
    cx = cochain_complex_of(k)
    assert cx.ranks == (1,)
    assert not cx.deltas


def test_circle_as_triangle_boundary():
    k = from_facets(CIRCLE := ((0, 1), (0, 2), (1, 2)))
    cx = cochain_complex_of(k)
    assert cx.ranks == (3, 3)
    assert shapes_of(cx) == [((), 1), ((), 1)]


# --- cup products --------------------------------------------------------


def random_cochain(rng, k, degree):
    return Cochain(k, degree, tuple(rng.randint(-3, 3) for _ in range(k.n_faces(degree))))


def test_unit_is_right_identity():
    rng = random.Random(3)
    k = from_facets(TORUS7_FACETS)
    unit = Cochain(k, 0, (1,) * k.n_faces(0))
    for degree in (0, 1, 2):
        f = random_cochain(rng, k, degree)
        assert cup_product(f, unit if degree == 0 else unit).values  # shape ok
        assert cup_product(unit, f).values == f.values
        assert cup_product(f, unit).values == f.values


def test_cup_rejects_mismatched_complexes():
    k1 = from_facets(SPHERE2_FACETS)
    k2 = from_facets(TORUS7_FACETS)
    with pytest.raises(PreconditionError):
        cup_product(Cochain(k1, 0, (1,) * k1.n_faces(0)), Cochain(k2, 0, (1,) * k2.n_faces(0)))


def brute_force_cup(k, f, g):
    """Independent front-face/back-face evaluation for the oracle side."""
    p, q = f.degree, g.degree
    faces_p = {s: v for s, v in zip(k.faces[p], f.values)}
    faces_q = {s: v for s, v in zip(k.faces[q], g.values)}
    out = []
    for sigma in k.faces[p + q]:
        out.append(faces_p[sigma[: p + 1]] * faces_q[sigma[p:]])
    return tuple(out)


def brute_force_coboundary(c):
    """Independent alternating face sum: on each simplex of one degree up,
    the sum over its vertices ``i`` of ``(-1)^i c(face without vertex i)``."""
    k, d = c.complex, c.degree
    values = dict(zip(k.faces[d], c.values))
    up = k.faces[d + 1] if d + 1 < len(k.faces) else ()
    return Cochain(k, d + 1, tuple(
        sum((-1) ** i * values[sigma[:i] + sigma[i + 1:]] for i in range(len(sigma)))
        for sigma in up
    ))


def test_torus_one_cocycle_pairing():
    k = from_facets(TORUS7_FACETS)
    cx = cochain_complex_of(k)
    h1 = cohomology(cx, 1)
    a, b = (Cochain(k, 1, g) for g in h1.generators)
    ab = cup_product(a, b)
    assert ab.values == brute_force_cup(k, a, b)
    pairing = [
        [
            class_coordinates(cx, 2, cup_product(x, y).values)[0]
            for y in (a, b)
        ]
        for x in (a, b)
    ]
    # unimodular and antisymmetric at the cohomology level
    assert pairing[0][0] == 0 and pairing[1][1] == 0
    assert pairing[0][1] == -pairing[1][0]
    assert abs(pairing[0][1]) == 1


def test_leibniz_rule_exact():
    rng = random.Random(9)
    for facets in (SPHERE2_FACETS, TORUS7_FACETS, RP2_FACETS):
        k = from_facets(facets)
        for _ in range(15):
            p = rng.choice([0, 1])
            q = rng.choice([0, 1])
            f = random_cochain(rng, k, p)
            g = random_cochain(rng, k, q)
            lhs = brute_force_coboundary(cup_product(f, g)).values
            sign = -1 if p % 2 else 1
            rhs_terms = cup_product(brute_force_coboundary(f), g).values
            rhs_terms2 = cup_product(f, brute_force_coboundary(g)).values
            rhs = tuple(x + sign * y for x, y in zip(rhs_terms, rhs_terms2))
            assert lhs == rhs


def test_cup_associativity_at_cochain_level():
    rng = random.Random(13)
    k = from_facets(TORUS7_FACETS)
    for _ in range(15):
        f = random_cochain(rng, k, 0)
        g = random_cochain(rng, k, 1)
        h = random_cochain(rng, k, 1)
        left = cup_product(cup_product(f, g), h).values
        right = cup_product(f, cup_product(g, h)).values
        assert left == right


# --- cup operators -------------------------------------------------------


def test_cup_operator_zero():
    k = from_facets(SPHERE2_FACETS)
    zero = Cochain(k, 2, (0,) * 4)
    op = cup_operator(zero)
    assert all(m.is_zero() for m in op.mats)


def test_cup_operator_requires_cocycle():
    k = from_facets(TORUS7_FACETS)
    rng = random.Random(17)
    while True:
        w = random_cochain(rng, k, 1)
        e = brute_force_coboundary(w)
        if any(e.values):
            break
    # coboundaries are cocycles, so this must be accepted
    cup_operator(e)
    bad = Cochain(k, 2, tuple(1 if i == 0 else 0 for i in range(k.n_faces(2))))
    if any(brute_force_coboundary(bad).values):
        with pytest.raises(PreconditionError):
            cup_operator(bad)


def test_cup_operator_chain_identity_holds():
    # CochainMap construction enforces delta . M == M . delta; build a few
    rng = random.Random(19)
    k = from_facets(TORUS7_FACETS)
    cx = cochain_complex_of(k)
    h2 = cohomology(cx, 2)
    for coeff in (1, 2, -3):
        rep = tuple(coeff * x for x in h2.generators[0])
        cup_operator(Cochain(k, 2, rep))


def test_cup_operator_of_coboundary_acts_trivially_on_cohomology():
    rng = random.Random(21)
    k = from_facets(SPHERE2_FACETS)
    cx = cochain_complex_of(k)
    w = random_cochain(rng, k, 1)
    e = brute_force_coboundary(w)
    op = cup_operator(e)
    for n in (0,):
        g = cohomology(cx, n)
        for gen in g.generators:
            image = op.apply(n, gen)
            assert class_coordinates(cx, n + 2, image) == (0,) * cohomology(cx, n + 2).coord_dim


def test_cup_operator_unit_law_on_sphere():
    k = from_facets(SPHERE2_FACETS)
    cx = cochain_complex_of(k)
    e = cohomology(cx, 2).generators[0]
    op = cup_operator(Cochain(k, 2, e))
    image = op.apply(0, (1,) * k.n_faces(0))
    assert image == e


def test_cup_operator_matches_the_brute_force_cup_in_every_degree():
    # the operator and cup_product share one Alexander-Whitney routine, so
    # both are checked against brute_force_cup, which shares none of it; the
    # last complex is 3-dimensional, a sphere beside a solid tetrahedron
    rng = random.Random(23)
    solid = SPHERE2_FACETS + ((4, 5, 6, 7),)
    for facets in (SPHERE2_FACETS, TORUS7_FACETS, RP2_FACETS, solid):
        k = from_facets(facets)
        cx = cochain_complex_of(k)
        gens = cohomology(cx, 2).generators
        for _ in range(4):
            # a generator combination plus a coboundary is a cocycle
            e = brute_force_coboundary(random_cochain(rng, k, 1)).values
            for gen in gens:
                c = rng.randint(-3, 3)
                e = tuple(x + c * y for x, y in zip(e, gen))
            e = Cochain(k, 2, e)
            op = cup_operator(e)
            for n in range(k.dim + 1):
                g = random_cochain(rng, k, n)
                want = brute_force_cup(k, e, g) if n + 2 <= k.dim else ()
                assert op.mats[n].apply(g.values) == want
                assert cup_product(e, g).values == want
