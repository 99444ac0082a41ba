import pytest

from oracles import cohom_shape
from tduality.catalog import (
    SHIPPED_LENS_PARAMETERS,
    catalog_build,
    cp_restriction,
    euler_model_from_cocycle,
    euler_model_from_label_coeffs,
)
from tduality.complexes import cohomology, validate_complex
from tduality.errors import PreconditionError
from tduality.gysin import total_space


def shapes_of(cx):
    return [cohomology(cx, n).shape for n in range(len(cx.ranks))]


def test_cp2_defining_data():
    model = catalog_build("cp", (2,))
    assert model.complex.ranks == (1, 0, 1, 0, 1)
    assert all(d.is_zero() for d in model.complex.deltas)
    mu = model.cup.operator((1,))
    assert mu.mat_at(0).entries == ((1,),)
    assert mu.mat_at(2).entries == ((1,),)
    assert model.cup.labels == ("u",)


def test_lens_5_1_profile():
    model = catalog_build("lens", (5, 1))
    assert shapes_of(model.complex) == [((), 1), ((), 0), ((5,), 0), ((), 1)]


def test_lens_matches_oracle_for_shipped_parameters():
    for k, n in SHIPPED_LENS_PARAMETERS:
        cx = catalog_build("lens", (k, n)).complex
        got = shapes_of(cx)
        want = cohom_shape(list(cx.ranks), [list(map(list, d.entries)) for d in cx.deltas])
        assert got == want


def test_torus_seven_vertex_h1():
    model = catalog_build("torus2")
    assert cohomology(model.complex, 1).shape == ((), 2)
    assert model.cup.labels == ("vol",)


def test_every_catalog_model_validates():
    cases = [
        ("cp", (1,)), ("cp", (2,)), ("cp", (3,)),
        ("lens", (2, 1)), ("lens", (7, 3)),
        ("circle", ()), ("point", ()),
        ("sphere2", ()), ("torus2", ()), ("rp2", ()),
    ]
    for name, params in cases:
        model = catalog_build(name, params)
        assert validate_complex(model.complex).valid


def test_cone_over_cp_reproduces_rank_one_model_for_shipped_parameters():
    for k, n in SHIPPED_LENS_PARAMETERS:
        cp = catalog_build("cp", (n,))
        bundle = euler_model_from_label_coeffs(cp, {"u": k})
        total = total_space(bundle).total
        lens = catalog_build("lens", (k, n)).complex
        for d in range(2 * n + 2):
            assert cohomology(total, d).shape == cohomology(lens, d).shape


def test_restriction_maps_are_chain_maps():
    # CochainMap construction verifies the identity; degrees beyond the
    # target truncation must vanish
    r = cp_restriction(3, 1)
    assert r.mat_at(0).entries == ((1,),)
    assert r.mat_at(2).entries == ((1,),)
    assert r.mat_at(4).shape == (0, 1)
    with pytest.raises(PreconditionError):
        cp_restriction(1, 2)


def test_unknown_name_and_bad_params():
    with pytest.raises(PreconditionError):
        catalog_build("moebius")
    with pytest.raises(PreconditionError):
        catalog_build("cp", ())
    with pytest.raises(PreconditionError):
        catalog_build("cp", (0,))
    with pytest.raises(PreconditionError):
        catalog_build("lens", (5,))
    with pytest.raises(PreconditionError):
        catalog_build("circle", (1,))


def test_euler_model_label_coefficients():
    cp = catalog_build("cp", (2,))
    model = euler_model_from_label_coeffs(cp, {"u": 5})
    assert model.euler_rep == (5,)
    with pytest.raises(PreconditionError):
        euler_model_from_label_coeffs(cp, {"v": 1})


def test_euler_model_from_cocycle_on_algebraic_base_reduces_to_basis():
    cp = catalog_build("cp", (2,))
    model = euler_model_from_cocycle(cp, (3,))
    assert model.euler_rep == (3,)
    assert model.provenance == "catalog-algebraic"


def test_rp2_torsion_label():
    rp2 = catalog_build("rp2")
    assert rp2.cup.labels == ("w",)
    model = euler_model_from_label_coeffs(rp2, {"w": 1})
    assert cohomology(rp2.complex, 2).coordinates(model.euler_rep) == (1,)


def test_catalog_build_is_cached_and_deterministic():
    assert catalog_build("torus2") is catalog_build("torus2")
    assert catalog_build("cp", (2,)) == catalog_build("cp", (2,))
