"""Fuzzing of the exit-code contract over model text and command lines.

Every input must end in exit 0 (success), 1 (parse error) or 2 (bad user
data), with no exception escaping ``cli.main``; exit 3 is reserved for engine
bugs.  Model sizes stay small (truncation and levels at most 4, at most four
charges), so each example runs well inside its deadline; the one long draw is
an algebraic complex of rank-0 or rank-1 degrees around ``dsl.MAX_DEGREES``.
One integer literal in four, in every integer slot of the model text and in
``--max-degree``, has 4,000 to 6,000 digits, on both sides of Python's
4,300-digit limit on ``int`` <-> ``str`` conversion.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tduality.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main
from tduality.dsl import MAX_DEGREES, parse_spec, resolve
from tduality.errors import ParseError, PreconditionError

small = st.integers(-1, 4)


def long_literal(lengths=st.integers(4000, 6000)):
    """A repeated digit, sometimes negative, of a length drawn from ``lengths``."""
    return st.tuples(st.sampled_from(("", "-")), st.sampled_from("123456789"), lengths).map(
        lambda t: t[0] + t[1] * t[2])


def literal(values):
    """The text of ``values`` three times in four, a long literal otherwise."""
    text = values.map(str)
    return st.one_of(text, text, text, long_literal())


int_list = st.lists(literal(small), min_size=0, max_size=4).map(",".join)
garbage = st.sampled_from(("", "x", "1,,2", "3*", "=", "1;2", "-", "1e3", "99999999", " 2 "))


def mostly(valid):
    """``valid`` three times in four, malformed text otherwise."""
    return st.one_of(valid, valid, valid, garbage)


name = st.sampled_from(("a", "a", "b", "zz"))  # a reference, sometimes undeclared
# rank-0 or rank-1 degrees in numbers around dsl.MAX_DEGREES, which parse
# (and run at their full length) up to it and fail at parse above it
long_ranks = st.tuples(st.integers(MAX_DEGREES - 2, MAX_DEGREES + 2), st.integers(0, 1)).map(
    lambda t: [t[1]] * t[0])
KINDS = ("complex", "bundle", "flux", "action")


@st.composite
def matrix_text(draw):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 3))
    # long entries only up to 2 x 2, which keeps their Smith forms cheap
    entry = literal(small) if rows <= 2 and cols <= 2 else small.map(str)
    return ";".join(",".join(draw(entry) for _ in range(cols)) for _ in range(rows))


@st.composite
def euler_text(draw):
    terms = draw(st.lists(
        st.tuples(literal(st.integers(-3, 3)), st.sampled_from(("u", "vol", "w", "g0", "q"))),
        max_size=2,
    ))
    return draw(mostly(st.one_of(
        st.just(" + ".join(f"{c}*{label}" for c, label in terms) or "0"),
        int_list.map(lambda xs: "coeffs=" + xs),
    )))


@st.composite
def complex_section(draw):
    kind = draw(st.sampled_from(("catalog", "catalog", "algebraic", "simplicial", "other")))
    lines = [f"kind = {kind}"]
    if kind == "catalog":
        lines.append("name = " + draw(st.sampled_from(
            ("cp", "lens", "circle", "point", "sphere2", "torus2", "rp2", "nope"))))
        lines.append("params = " + draw(mostly(literal(st.integers(1, 4)) | int_list)))
    elif kind == "algebraic":
        ranks = draw(st.one_of(
            st.lists(st.integers(0, 3), min_size=1, max_size=4),
            long_ranks,
        ))
        lines.append("ranks = " + ",".join(map(str, ranks)))
        for n in range(min(len(ranks) - 1, 3)):
            if draw(st.booleans()):
                lines.append(f"delta{n} = " + draw(mostly(matrix_text())))
    elif kind == "simplicial":
        facets = draw(st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(sorted),
            min_size=1, max_size=4,
        ))
        lines.append("facets = " + ";".join(",".join(map(str, f)) for f in facets))
    return lines


@st.composite
def action_section(draw):
    kind = draw(st.sampled_from(
        ("point_fixed", "monopole", "multi_monopole", "free_hopf", "free_bundle", "spin")))
    lines = [f"type = {kind}"]
    if draw(st.booleans()):
        charges = draw(st.lists(literal(st.integers(0, 6)), min_size=1, max_size=4))
        lines.append("charges = " + ",".join(charges))
    lines.append("truncation = " + draw(mostly(literal(st.integers(1, 4)) | st.just("0"))))
    if draw(st.booleans()):
        lines.append("base = " + draw(name))
    if draw(st.booleans()):
        lines.append("euler = " + draw(euler_text()))
    if draw(st.booleans()):
        lines.append("h = " + draw(int_list))
    return lines


@st.composite
def section(draw):
    kind = draw(st.sampled_from(("complex", "complex", "bundle", "flux", "action", "action")))
    label = draw(st.sampled_from(("a", "b", "c")))
    if kind == "complex":
        body = draw(complex_section())
    elif kind == "bundle":
        body = ["base = " + draw(name), "euler = " + draw(euler_text())]
    elif kind == "flux":
        body = ["h = " + draw(mostly(int_list))]
    else:
        body = draw(action_section())
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    extra = draw(st.sampled_from(
        ("# note", "", "junk", "k = v", "[", "[bogus d]", "kind = catalog")))
    return kind, label, [f"[{kind} {label}]", *body] + (
        [extra] if draw(st.integers(0, 7)) == 5 else [])


@st.composite
def model_text(draw):
    """Up to four sections, mostly declared before use and named once."""
    sections = draw(st.lists(section(), max_size=4))
    if draw(st.integers(0, 3)) != 2:
        sections.sort(key=lambda s: KINDS.index(s[0]))
    if draw(st.integers(0, 3)) != 2:
        named = {}
        for kind, label, lines in sections:
            named.setdefault((kind, label), lines)
        sections = [(kind, label, lines) for (kind, label), lines in named.items()]
    return "\n".join(line for _, _, lines in sections for line in lines) + "\n"


@st.composite
def command_line(draw):
    command = draw(st.sampled_from(("cohom", "dualize", "borel", "verify")))
    argv = [command]
    if command == "cohom":
        argv += ["--complex", draw(name)]
        if draw(st.booleans()):
            argv += ["--max-degree", draw(literal(st.integers(-2, 6)))]
    elif command == "dualize":
        argv += ["--bundle", draw(name)]
        if draw(st.booleans()):
            argv += ["--flux", draw(name)]
    elif command == "borel":
        argv += ["--action", draw(name)]
        if draw(st.booleans()):
            argv += ["--route", draw(st.sampled_from(("mw", "bunke", "both", "both", "other")))]
    elif command == "verify" and draw(st.booleans()):
        argv.append("--all")
    argv.append("-")
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--json")
    if draw(st.integers(0, 9)) == 5:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ("--max-degree", "x", "--route", "--", "-h"))))
    return argv


def run_main(argv, text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = stdin


FUZZ = settings(
    max_examples=150,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@FUZZ
@given(argv=command_line(), text=model_text())
def test_generated_models_and_commands_keep_the_exit_contract(argv, text):
    assert run_main(argv, text) in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION)


@FUZZ
@given(text=model_text(), drop=st.integers(0, 12))
def test_every_parse_error_names_a_line_and_its_first_column(text, drop):
    # a key's error is at the key, a section's at its header: either way the
    # first non-blank character of a line of the text.  Line ``drop`` is left
    # out, so that keys go missing in about one draw in six.
    lines = text.splitlines()
    del lines[drop:drop + 1]
    try:
        resolve(parse_spec("\n".join(lines) + "\n"))
    except ParseError as exc:
        assert 1 <= exc.line <= len(lines), str(exc)
        line = lines[exc.line - 1]
        assert exc.column == len(line) - len(line.lstrip()) + 1 >= 1, str(exc)
        assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")
    except PreconditionError:
        pass  # bad user data, which resolve may meet building a model


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(argv=command_line(), text=st.text(max_size=200))
def test_arbitrary_text_keeps_the_exit_contract(argv, text):
    assert run_main(argv, text) in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION)


@st.composite
def long_literal_command(draw):
    """A command and a well-formed model of the sections it reads, each
    integer slot a long literal one time in two.  The long literals of one
    draw lie all below or all above the 4,300-digit limit, so those below
    reach the engine instead of stopping at the parse error of one above."""
    lengths = draw(st.sampled_from((st.integers(4000, 4300), st.integers(4301, 6000))))

    def lit(values):
        return draw(st.one_of(values.map(str), long_literal(lengths)))

    complex_a = ("[complex a]\nkind = algebraic\nranks = 2,2\n"
                 f"delta0 = {lit(small)},{lit(small)};{lit(small)},{lit(small)}\n")
    bundle = (f"[complex cp]\nkind = catalog\nname = cp\nparams = {lit(st.integers(1, 3))}\n"
              f"[bundle b]\nbase = cp\neuler = {lit(st.integers(-3, 3))}*u\n"
              f"[flux h]\nh = {lit(small)}\n")
    charges = ",".join(lit(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3))))
    action = (f"[action m]\ntype = {draw(st.sampled_from(('monopole', 'multi_monopole')))}\n"
              f"charges = {charges}\ntruncation = {lit(st.integers(1, 3))}\n")
    max_degree = ["--max-degree", lit(st.integers(1, 3))] if draw(st.booleans()) else []
    argv, text = draw(st.sampled_from((
        (["cohom", "--complex", "a", *max_degree], complex_a),
        (["dualize", "--bundle", "b", "--flux", "h"], bundle),
        (["borel", "--action", "m", "--route", "both"], action),
        (["verify"], complex_a + bundle + action),
    )))
    return [*argv, "-"] + (["--json"] if draw(st.booleans()) else []), text


@FUZZ
@given(command=long_literal_command())
def test_long_integer_literals_keep_the_exit_contract(command):
    # a literal past the limit is a parse error, and a result past it prints
    assert run_main(*command) in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION)


@contextlib.contextmanager
def address_space_headroom(extra=512 * 2**20):
    """Cap this process's address space ``extra`` bytes above its present
    size, so that an input which allocates its huge matrices fails with a
    MemoryError instead of exhausting the machine."""
    import resource

    status = Path("/proc/self/status").read_text(encoding="ascii")
    size = int(re.search(r"^VmSize:\s+(\d+) kB", status, re.M).group(1)) * 1024
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + extra, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(max_examples=40, deadline=timedelta(seconds=1))
@given(
    ranks=st.lists(st.integers(0, 3), max_size=3),
    huge=st.integers(708, 10 ** 30),
    at=st.integers(0, 3),
    command=st.sampled_from((["cohom", "--complex", "a"], ["dualize", "--bundle", "b"])),
)
def test_huge_ranks_are_rejected_at_once(ranks, huge, at, command):
    # 708 is the smallest rank whose square exceeds the dense bound; the
    # deadline fails a draw that builds its matrices before rejecting it
    ranks.insert(at, huge)
    text = ("[complex a]\nkind = algebraic\nranks = " + ",".join(map(str, ranks))
            + "\n[bundle b]\nbase = a\neuler = 0\n")
    with address_space_headroom():
        assert run_main([*command, "-"], text) == EXIT_PARSE
