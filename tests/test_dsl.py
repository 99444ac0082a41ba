import sys

import pytest

from tduality.complexes import cohomology
from tduality.dsl import (
    EulerSpec,
    Section,
    SpecFile,
    parse_euler_value,
    parse_spec,
    resolve,
)
from tduality.errors import ParseError

SAMPLE = """
# projective base plus a twisted bundle over it
[complex cp2]
kind = catalog
name = cp
params = 2

[complex c]
kind = algebraic
ranks = 1,1

[complex t]
kind = simplicial
facets = 0,1;0,2;1,2

[bundle b]
base = cp2
euler = 5*u

[flux f]
h = 2

[action m]
type = monopole
charges = 3
truncation = 2
"""


def test_parse_sections_and_keys():
    spec = parse_spec(SAMPLE)
    kinds = [(s.kind, s.name) for s in spec.sections]
    assert kinds == [
        ("complex", "cp2"), ("complex", "c"), ("complex", "t"),
        ("bundle", "b"), ("flux", "f"), ("action", "m"),
    ]
    assert spec.sections[3].get("euler") == "5*u"


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_spec("[complex a\nkind=algebraic\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_spec("[complex a]\n  !bad\n")
    assert err.value.line == 2
    assert err.value.column == 3


def test_duplicate_names_rejected():
    text = "[complex a]\nkind=algebraic\nranks=1\n[complex a]\nkind=algebraic\nranks=1\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_spec(text)


def test_key_outside_section_rejected():
    with pytest.raises(ParseError, match="outside"):
        parse_spec("kind = algebraic\n")


def test_unknown_section_kind_rejected():
    with pytest.raises(ParseError, match="unknown section kind"):
        parse_spec("[gerbe g]\n")


def test_dangling_reference_rejected():
    text = "[bundle b]\nbase = missing\neuler = 0\n"
    with pytest.raises(ParseError, match="undeclared"):
        resolve(parse_spec(text))


def test_declared_before_use_enforced():
    text = (
        "[bundle b]\nbase = cp2\neuler = u\n"
        "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n"
    )
    with pytest.raises(ParseError, match="undeclared"):
        resolve(parse_spec(text))


def test_resolve_builds_models():
    resolved = resolve(parse_spec(SAMPLE))
    assert resolved.bundles["b"].euler_rep == (5,)
    circle = resolved.complexes["c"].complex
    assert [cohomology(circle, n).describe() for n in (0, 1)] == ["Z", "Z"]
    triangle = resolved.complexes["t"].complex
    assert triangle.ranks == (3, 3)
    assert resolved.fluxes["f"] == (2,)
    action = resolved.actions["m"]
    assert (action.kind, action.charges, action.truncation) == ("monopole", (3,), 2)


def test_algebraic_deltas_parse():
    text = "[complex l]\nkind = algebraic\nranks = 1,1,1,1\ndelta1 = 5\n"
    resolved = resolve(parse_spec(text))
    lens = resolved.complexes["l"].complex
    assert cohomology(lens, 2).describe() == "Z/5"


def test_matrix_rows_parse():
    text = "[complex m]\nkind = algebraic\nranks = 2,2\ndelta0 = 1,2;3,4\n"
    resolved = resolve(parse_spec(text))
    assert resolved.complexes["m"].complex.deltas[0].entries == ((1, 2), (3, 4))


def test_matrix_shape_errors_are_parse_errors():
    text = "[complex m]\nkind = algebraic\nranks = 2,2\ndelta0 = 1,2;3\n"
    with pytest.raises(ParseError, match="delta0"):
        resolve(parse_spec(text))


def test_euler_expression_forms():
    section = parse_spec("[bundle b]\nbase=x\neuler=0\n").sections[0]
    assert parse_euler_value("0", section) == EulerSpec(coeffs={})
    assert parse_euler_value("3*u", section).coeffs == {"u": 3}
    assert parse_euler_value("u", section).coeffs == {"u": 1}
    assert parse_euler_value("2*u - vol", section).coeffs == {"u": 2, "vol": -1}
    assert parse_euler_value("coeffs=1,0,2", section).cocycle == (1, 0, 2)
    with pytest.raises(ParseError):
        parse_euler_value("5*", section)


def test_simplicial_bundle_with_explicit_cocycle():
    text = (
        "[complex s2]\nkind = simplicial\nfacets = 0,1,2;0,1,3;0,2,3;1,2,3\n"
        "[bundle h]\nbase = s2\neuler = vol\n"
    )
    # simplicial user complexes have no declared labels, only AW cocycles work
    with pytest.raises(Exception):
        resolve(parse_spec(text))
    text_ok = (
        "[complex s2]\nkind = simplicial\nfacets = 0,1,2;0,1,3;0,2,3;1,2,3\n"
        "[bundle h]\nbase = s2\neuler = coeffs=0,0,0,1\n"
    )
    resolved = resolve(parse_spec(text_ok))
    assert resolved.bundles["h"].provenance == "simplicial-AW"


def test_bad_facets_reported_at_parse_level():
    text = "[complex s]\nkind = simplicial\nfacets = 1,0\n"
    with pytest.raises(ParseError, match="strictly increasing"):
        resolve(parse_spec(text))


def test_value_errors_point_at_the_key_line():
    text = "[complex c]\nkind = algebraic\n  ranks = 1,x\n"
    with pytest.raises(ParseError, match="ranks in \\[complex c\\]") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (3, 3)
    text = "# bundle\n[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n" \
        "[bundle b]\nbase = cp2\neuler = 5*\n"
    with pytest.raises(ParseError, match="euler") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (8, 1)
    # a coefficient past Python's 4,300-digit int() limit fails at its key too
    text = "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n" \
        "[bundle b]\nbase = cp2\neuler = " + "9" * 5000 + "*u\n"
    with pytest.raises(ParseError, match="euler in \\[bundle b\\]") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (7, 1)
    text = "[complex m]\nkind = algebraic\nranks = 2,2\n\ndelta0 = 1,2;3\n"
    with pytest.raises(ParseError, match="delta0") as err:
        resolve(parse_spec(text))
    assert err.value.line == 5
    # an empty value is no value: it neither defaults nor means the zero class
    text = "[action a]\ntype = monopole\ncharges = 3\ntruncation =\n"
    with pytest.raises(ParseError, match="truncation in \\[action a\\]") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (4, 1)
    text = "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n" \
        "[bundle b]\nbase = cp2\neuler =\n"
    with pytest.raises(ParseError, match="cannot parse euler expression ''") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (7, 1)
    text = "[complex c]\nkind = algebraic\nranks =\n"
    with pytest.raises(ParseError, match="ranks in \\[complex c\\] lists no degree") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (3, 1)
    # an empty params is still the empty parameter list
    resolved = resolve(parse_spec("[complex p]\nkind = catalog\nname = torus2\nparams =\n"))
    assert resolved.complexes["p"].complex.ranks == (7, 21, 14)
    # a missing key has no line of its own: the header is reported
    with pytest.raises(ParseError, match="missing key 'ranks'") as err:
        resolve(parse_spec("\n[complex c]\nkind = algebraic\n"))
    assert (err.value.line, err.value.column) == (2, 0)



@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int <-> str digit limit")
def test_a_literal_past_the_digit_limit_names_the_limit():
    # a well-formed literal that int() refuses only for its length is not
    # called malformed: the error names the limit, at the same key and place
    from tduality.dsl import _parse_int, _parse_int_list

    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        section = Section("action", "a", (("charges", "x"), ("truncation", "x")), 1,
                          ((2, 1), (3, 2)))
        over, limit = "9" * 5000, "more than 4300 digits"
        for call, text, key, pos in ((_parse_int, f" {over} ", "truncation", (3, 2)),
                                     (_parse_int, "-" + over, "truncation", (3, 2)),
                                     (_parse_int_list, f"1, {over},2", "charges", (2, 1))):
            with pytest.raises(ParseError, match=f"{key} in \\[action a\\] has an integer of "
                               f"{limit}, Python's int digit limit") as err:
                call(text, section, key)
            assert (err.value.line, err.value.column) == pos
        # malformed text keeps its message, however long
        with pytest.raises(ParseError, match="truncation in \\[action a\\] must be an integer"):
            _parse_int(over + "x", section, "truncation")
        with pytest.raises(ParseError, match="must be comma-separated integers"):
            _parse_int_list(f"1,,{over}", section, "charges")
        assert _parse_int(" 4_300 ", section, "truncation") == 4300
        assert _parse_int_list("9" * 4300 + ", -1", section, "charges") == (int("9" * 4300), -1)
        for euler in (f"{over}*u", f"coeffs=1,{over}"):
            text = "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n" \
                f"[bundle b]\nbase = cp2\neuler = {euler}\n"
            with pytest.raises(ParseError, match=f"euler in \\[bundle b\\] has an integer of "
                               f"{limit}") as err:
                resolve(parse_spec(text))
            assert (err.value.line, err.value.column) == (7, 1)
    finally:
        sys.set_int_max_str_digits(previous)


def test_algebraic_ranks_are_bounded_before_allocation():
    # a rank r gets r x r dense matrices, so 707 (707 * 707 = 499,849) is the
    # largest rank within simplicial.MAX_COBOUNDARY_ENTRIES = 500,000
    resolved = resolve(parse_spec("[complex c]\nkind = algebraic\nranks = 707,1\n"))
    assert resolved.complexes["c"].complex.ranks == (707, 1)
    # 1,1,5000 has coboundaries of 1 and 5,000 entries, but the twisted
    # total over it holds a 5000 x 5000 block
    for ranks in ("708", "1,100000000", "1,1,5000", "0," + "9" * 40):
        text = f"[complex c]\nkind = algebraic\nranks = {ranks}\n"
        with pytest.raises(ParseError, match="simplicial.MAX_COBOUNDARY_ENTRIES") as err:
            resolve(parse_spec(text))
        assert (err.value.line, err.value.column) == (3, 1)


def test_algebraic_ranks_are_bounded_in_sum():
    # each rank alone is within the bound, but a command works through the
    # r x r matrices of every degree: 707,707,707,707 took verify about 27 s
    for ranks in ("707,707", "707,707,707,707"):
        text = f"[complex c]\nkind = algebraic\nranks = {ranks}\n"
        with pytest.raises(ParseError, match="simplicial.MAX_COBOUNDARY_ENTRIES") as err:
            resolve(parse_spec(text))
        assert (err.value.line, err.value.column) == (3, 1)
    for ranks in ((500, 500), (1, 1, 707), (408, 408, 408)):
        text = "[complex c]\nkind = algebraic\nranks = " + ",".join(map(str, ranks)) + "\n"
        assert resolve(parse_spec(text)).complexes["c"].complex.ranks == ranks


def test_unknown_and_repeated_keys_are_parse_errors():
    text = (
        "[complex c]\nkind = algebraic\nranks = 1,1\nranks = 1,1,1\n"
        "delta7 = 5\ncolour = red\n"
    )
    with pytest.raises(ParseError, match="key 'ranks' given twice") as err:
        resolve(parse_spec(text))
    assert (err.value.line, err.value.column) == (4, 1)
    with pytest.raises(ParseError, match="unknown key 'delta7'") as err:
        resolve(parse_spec("[complex c]\nkind = algebraic\nranks = 1,1\ndelta7 = 5\n"))
    assert (err.value.line, err.value.column) == (4, 1)
    # a typo no longer reads as an omitted, zero coboundary
    with pytest.raises(ParseError, match="unknown key 'detla0'.*allowed: kind, ranks, delta0"):
        resolve(parse_spec("[complex c]\nkind = algebraic\nranks = 1,1\n  detla0 = 2\n"))
    # keys of another complex kind are not read, so they are refused
    with pytest.raises(ParseError, match="unknown key 'ranks'") as err:
        resolve(parse_spec("[complex c]\nkind = catalog\nname = circle\nranks = 1,1\n"))
    assert err.value.line == 4
    with pytest.raises(ParseError, match="unknown key 'params'"):
        resolve(parse_spec("[complex s]\nkind = simplicial\nfacets = 0,1\nparams = 2\n"))
    # a section built without key positions is checked too, at its header
    entries = (("kind", "algebraic"), ("ranks", "1,1"), ("colour", "red"))
    with pytest.raises(ParseError, match="unknown key 'colour'") as err:
        resolve(SpecFile((Section("complex", "c", entries, 7),)))
    assert (err.value.line, err.value.column) == (7, 0)


@pytest.mark.parametrize("section, extra", [
    ("[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n", "kind = catalog"),
    ("[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n", "colour = red"),
    ("[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n[bundle b]\nbase = cp2\neuler = u\n",
     "flux = 1"),
    ("[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n[bundle b]\nbase = cp2\neuler = u\n",
     "euler = 2*u"),
    ("[flux f]\nh = 1\n", "h = 2"),
    ("[flux f]\nh = 1\n", "base = cp2"),
    ("[action a]\ntype = monopole\ncharges = 2\ntruncation = 2\n", "truncation = 3"),
    ("[action a]\ntype = monopole\ncharges = 2\ntruncation = 2\n", "charge = 2"),
])
def test_every_section_kind_checks_its_keys(section, extra):
    text = section + extra + "\n"
    with pytest.raises(ParseError, match="given twice|unknown key") as err:
        resolve(parse_spec(text))
    assert err.value.line == text.count("\n")
    # without the extra line the same text resolves
    resolve(parse_spec(section))


def test_every_allowed_key_is_accepted():
    text = (
        "[complex a]\nkind = algebraic\nranks = 1,1,1\ndelta0 = 0\ndelta1 = 0\n"
        "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n"
        "[complex t]\nkind = simplicial\nfacets = 0,1;0,2;1,2\n"
        "[bundle b]\nbase = cp2\neuler = u\n[flux f]\nh = 1\n"
        "[action m]\ntype = monopole\ncharges = 3\ntruncation = 2\nh = 1\n"
        "[action f]\ntype = free_bundle\nbase = cp2\neuler = u\ntruncation = 1\n"
    )
    resolved = resolve(parse_spec(text))
    assert set(resolved.actions) == {"m", "f"}
