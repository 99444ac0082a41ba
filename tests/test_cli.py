import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from tduality.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    execute,
    main,
)
from tduality.dsl import parse_spec

DATA = Path(__file__).parent / "data"
SAMPLE = DATA / "sample.tdsl"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def names(report):
    return [c["name"] for c in json.loads(report)["checks"]]


BROKEN_TOTAL = "twisted total complex broken: delta[1] @ delta[0] != 0"


@contextmanager
def broken_totals(monkeypatch):
    """Every twisted total built in the block has ``delta[1] @ delta[0] = 1``."""
    from tduality import gysin
    from tduality.complexes import GradedComplex, MappingCone
    from tduality.matrices import IntMatrix

    one = IntMatrix.from_rows([[1]])
    total = GradedComplex((1, 1, 1), (one, one))
    gysin.total_space.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(gysin, "mapping_cone", lambda f: MappingCone(total, f))
            yield
    finally:
        gysin.total_space.cache_clear()


def test_cohom_circle(capsys):
    code, out, _ = run(capsys, "cohom", "--complex", "circle", str(SAMPLE))
    assert code == EXIT_OK
    assert "0:" in out and "pretty: Z" in out
    assert out.count("pretty: Z") == 2


def test_cohom_max_degree(capsys):
    code, out, _ = run(
        capsys, "cohom", "--complex", "cp2", "--max-degree", "2", str(SAMPLE)
    )
    assert code == EXIT_OK
    assert "degree_window: 0..2" in out


def test_cohom_max_degree_must_not_be_negative(capsys):
    code, out, err = run(capsys, "cohom", "--complex", "cp2", "--max-degree", "-1", str(SAMPLE))
    assert (code, out) == (EXIT_PARSE, "")
    assert "argument --max-degree: must be >= 0, got -1" in err
    code, out, _ = run(capsys, "cohom", "--complex", "cp2", "--max-degree", "0", str(SAMPLE))
    assert code == EXIT_OK
    assert "degree_window: 0..0" in out


def test_dualize_reports_flux_quantization(capsys):
    code, out, _ = run(capsys, "dualize", "--bundle", "b", str(SAMPLE))
    assert code == EXIT_OK
    assert "h2_total: Z/5" in out
    assert "canonical_flux_coords:" in out
    assert "- 5" in out
    assert "ambiguity_rank: 0" in out
    assert "defining_equation: ok" in out


def test_dualize_with_flux(capsys):
    code, out, _ = run(
        capsys, "dualize", "--bundle", "flat", "--flux", "j2", str(SAMPLE)
    )
    assert code == EXIT_OK
    assert "dual_euler_coords:" in out


def test_borel_both_routes_agree(capsys):
    code, out, _ = run(
        capsys, "borel", "--action", "m", "--route", "both", str(SAMPLE)
    )
    assert code == EXIT_OK
    assert "routes_agree: True" in out
    assert "valid_window: degrees <= 3" in out
    assert "h2_total: Z/3" in out
    assert "- 3" in out  # three units of dual flux


def test_borel_free_bundle_action(capsys):
    code, out, _ = run(capsys, "borel", "--action", "flat_t2", str(SAMPLE))
    assert code == EXIT_OK
    assert "kind: free_bundle" in out


def test_borel_multi_monopole(capsys):
    code, out, _ = run(capsys, "borel", "--action", "pair", str(SAMPLE))
    assert code == EXIT_OK
    assert "kind: multi_monopole" in out


def test_verify_all_passes_on_shipped_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--all", str(SAMPLE))
    assert code == EXIT_OK
    assert "failures: 0" in out
    # exit code 3 never occurs on the shipped corpus


def test_json_and_text_carry_identical_numbers(capsys):
    code, text_out, _ = run(capsys, "dualize", "--bundle", "b", str(SAMPLE))
    code2, json_out, _ = run(capsys, "--json", "dualize", "--bundle", "b", str(SAMPLE))
    assert code == code2 == EXIT_OK
    payload = json.loads(json_out)
    assert payload["canonical_flux_coords"] == [5]
    assert payload["dual_euler_coords"] == [0]
    assert payload["ambiguity_rank"] == 0
    assert "canonical_flux_coords:" in text_out and "- 5" in text_out


def test_reports_are_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "--json", "borel", "--action", "m", "--route", "both", str(SAMPLE))
    _, out2, _ = run(capsys, "--json", "borel", "--action", "m", "--route", "both", str(SAMPLE))
    assert out1 == out2
    _, t1, _ = run(capsys, "verify", "--all", str(SAMPLE))
    _, t2, _ = run(capsys, "verify", "--all", str(SAMPLE))
    assert t1 == t2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tdsl"
    bad.write_text("[complex x\n", encoding="utf-8")
    code, _, err = run(capsys, "cohom", "--complex", "x", str(bad))
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_non_integer_truncation_is_a_parse_error(tmp_path):
    model = tmp_path / "bad.tdsl"
    model.write_text(
        "# one action\n[action m]\ntype = monopole\ncharges = 3\ntruncation = x\n",
        encoding="utf-8",
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "tduality", "borel", "--action", "m", str(model)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line 5, column 1: ")
    assert "truncation in [action m]" in proc.stderr


@pytest.mark.parametrize("line", ["base = nowhere", "euler = 7*zzz"])
def test_base_or_euler_outside_a_free_bundle_action_exits_1(tmp_path, capsys, line):
    model = tmp_path / "m.tdsl"
    model.write_text(
        f"[action a]\ntype = monopole\ncharges = 3\ntruncation = 2\n{line}\n",
        encoding="utf-8",
    )
    for argv in (["borel", "--action", "a", str(model)], ["verify", str(model)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        key = line.split(" ")[0]
        assert err.startswith(f"parse error: line 5, column 1: unknown key '{key}' in [action a]")


def test_missing_file_is_parse_class(capsys):
    code, _, err = run(capsys, "cohom", "--complex", "x", "/nonexistent.tdsl")
    assert code == EXIT_PARSE


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "cohom", "--complex", "ghost", str(SAMPLE))
    assert code == EXIT_PRECONDITION
    assert "precondition" in err


def test_verify_flags_broken_user_complex(tmp_path, capsys):
    text = (
        "[complex bad]\nkind = algebraic\nranks = 1,1,1\ndelta0 = 1\ndelta1 = 1\n"
    )
    model = tmp_path / "m.tdsl"
    model.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(model))
    assert code == EXIT_PRECONDITION
    assert "ok: False" in out
    assert "verification failed" in err
    # execute returns the failed report, its exit code on it, and raises nothing
    report = execute(["verify", str(model)], parse_spec(text))
    assert report.exit_code == EXIT_PRECONDITION and report.render_text() == out


@pytest.mark.parametrize("text", [
    "[action a]\ntype = multi_monopole\ncharges = 1,1\ntruncation = 2\nh = 1,2,3,4,5,6,7\n",
    "[complex s]\nkind = catalog\nname = sphere2\n"
    "[action a]\ntype = free_bundle\nbase = s\neuler = vol\ntruncation = 1\nh = 1,2,3\n",
], ids=["multi_monopole", "free_bundle"])
def test_verify_fails_an_action_whose_dualization_borel_rejects(tmp_path, capsys, text):
    # kinds without a lens route are dualized by verify too
    model = tmp_path / "m.tdsl"
    model.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "borel", "--action", "a", str(model))
    assert code == EXIT_PRECONDITION and "H^3 of the total model" in err
    message = err.strip().split(": ", 1)[1]
    code, out, _ = run(capsys, "--json", "verify", str(model))
    assert code == EXIT_PRECONDITION
    failing = [check for check in json.loads(out)["checks"] if not check["ok"]]
    assert failing == [{"name": "action a: Borel model builds", "ok": False, "detail": message}]


def test_precondition_for_non_cocycle_flux(tmp_path, capsys):
    text = (
        "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n"
        "[bundle b]\nbase = cp2\neuler = 2*u\n"
        "[flux f]\nh = 1\n"
    )
    model = tmp_path / "m.tdsl"
    model.write_text(text, encoding="utf-8")
    # H^3 of this twisted total is trivial: flux coordinates have wrong arity
    code, _, err = run(capsys, "dualize", "--bundle", "b", "--flux", "f", str(model))
    assert code == EXIT_PRECONDITION


# Two bases with one coboundary out of degree 2, the row (-1, 1, -1, 1): the
# solid tetrahedron and an algebraic complex.  The cochain on the first
# generator is not closed, and an Euler cocycle of length 2 is short.
USER_BASES = {
    "simplicial": "[complex s]\nkind = simplicial\nfacets = 0,1,2,3\n",
    "algebraic": "[complex s]\nkind = algebraic\nranks = 1,1,4,1\ndelta2 = -1,1,-1,1\n",
}
BAD_EULER_COCYCLES = {
    "1,0,0,0": "Euler representative is not a cocycle: (delta z)[0] = -1 in degree 3",
    "1,0": "Euler representative of length 2 in degree 2 of rank 4",
}


@pytest.mark.parametrize("coeffs", BAD_EULER_COCYCLES)
@pytest.mark.parametrize("base", USER_BASES)
def test_a_bad_euler_cocycle_exits_2_alike_on_every_kind_of_base(tmp_path, capsys, base, coeffs):
    message = BAD_EULER_COCYCLES[coeffs]
    model = tmp_path / "bundle.tdsl"
    model.write_text(USER_BASES[base] + f"[bundle b]\nbase = s\neuler = coeffs={coeffs}\n",
                     encoding="utf-8")
    code, out, err = run(capsys, "dualize", "--bundle", "b", str(model))
    assert (code, out, err) == (EXIT_PRECONDITION, "", f"precondition violated: {message}\n")
    # inside a free_bundle action, verify fails the action's first line with the message
    model = tmp_path / "action.tdsl"
    model.write_text(USER_BASES[base] + "[action a]\ntype = free_bundle\nbase = s\n"
                     f"euler = coeffs={coeffs}\ntruncation = 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "--json", "verify", str(model))
    assert code == EXIT_PRECONDITION
    failing = [check for check in json.loads(out)["checks"] if not check["ok"]]
    assert failing == [{"name": "action a: Borel model builds", "ok": False, "detail": message}]


def test_verify_checks_each_flux_against_the_bundle_totals(tmp_path, capsys, monkeypatch):
    # H^3 of the total has no generator over cp(2) with e = 2u and one over
    # the torus with e = 0, so a 1-coordinate flux fits and a 2-coordinate
    # one fits no bundle
    bundles = (
        "[complex cp2]\nkind = catalog\nname = cp\nparams = 2\n"
        "[complex torus]\nkind = catalog\nname = torus2\n"
        "[bundle b]\nbase = cp2\neuler = 2*u\n[bundle flat]\nbase = torus\neuler = 0\n"
    )
    fluxes = "[flux one]\nh = 1\n[flux two]\nh = 1,2\n"
    model = tmp_path / "m.tdsl"
    for text, detail in ((bundles, "b 0, flat 1"), ("", "none")):
        model.write_text(text + fluxes, encoding="utf-8")
        code, out, _ = run(capsys, "--json", "verify", str(model))
        assert code == EXIT_PRECONDITION
        flux_checks = [c for c in json.loads(out)["checks"] if c["name"].startswith("flux ")]
        two = {"name": "flux two: coordinate vector well-formed", "ok": False,
               "detail": f"2 coordinates fit no bundle's H^3 (generators: {detail})"}
        one = {"name": "flux one: coordinate vector well-formed", "ok": bool(text)}
        if not text:
            one["detail"] = "1 coordinates fit no bundle's H^3 (generators: none)"
        assert flux_checks == [one, two]
    model.write_text(bundles + "[flux one]\nh = 1\n", encoding="utf-8")
    assert run(capsys, "verify", str(model))[0] == EXIT_OK

    # when no bundle's total builds, each flux line fails with that error:
    # internal for a broken total, user data for a base that is no cochain complex
    non_cochain = ("[complex bad]\nkind = algebraic\nranks = 1,1,1,1\ndelta0 = 1\ndelta1 = 1\n"
                   "[bundle b]\nbase = bad\neuler = 0\n")
    not_a_complex = "base is not a cochain complex at degree 0: delta[1] @ delta[0] != 0"
    model.write_text(bundles + fluxes, encoding="utf-8")
    with broken_totals(monkeypatch):
        broken = run(capsys, "--json", "verify", str(model))
    model.write_text(non_cochain + fluxes, encoding="utf-8")
    bad_base = run(capsys, "--json", "verify", str(model))
    for (code, out, _), expected, detail in ((broken, EXIT_INTERNAL, BROKEN_TOTAL),
                                             (bad_base, EXIT_PRECONDITION, not_a_complex)):
        assert code == expected
        flux_checks = [c for c in json.loads(out)["checks"] if c["name"].startswith("flux ")]
        assert flux_checks == [{"name": f"flux {flux}: coordinate vector well-formed",
                                "ok": False, "detail": detail} for flux in ("one", "two")]


def test_execute_api(capsys):
    spec = parse_spec(SAMPLE.read_text(encoding="utf-8"))
    report = execute(["cohom", "--complex", "circle", str(SAMPLE)], spec)
    assert report.payload["cohomology"]["1"]["pretty"] == "Z"
    assert report.exit_code == EXIT_OK


def test_golden_dualize_report(capsys):
    _, out, _ = run(capsys, "dualize", "--bundle", "b", str(SAMPLE))
    golden = (DATA / "golden_dualize_b.txt").read_text(encoding="utf-8")
    assert out == golden


MULTI_MODEL = "[action tri]\ntype = multi_monopole\ncharges = 5,2,3\ntruncation = 2\n"


def test_golden_multi_monopole_report(capsys, tmp_path):
    model = tmp_path / "multi.tdsl"
    model.write_text(MULTI_MODEL, encoding="utf-8")
    code, out, _ = run(capsys, "borel", "--action", "tri", "--json", str(model))
    assert code == EXIT_OK
    golden = (DATA / "golden_borel_multi.txt").read_text(encoding="utf-8")
    assert out == golden
    assert json.loads(out)["routes"]["mathai_wu"]["dual_flux_coords"] == [-2, -3]


def test_golden_verify_all_report(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--all", str(SAMPLE))
    assert code == EXIT_OK
    assert out == (DATA / "golden_verify_all.txt").read_text(encoding="utf-8")


def test_golden_monopole_both_routes_report(capsys):
    code, out, _ = run(capsys, "--json", "borel", "--action", "m", "--route", "both", str(SAMPLE))
    assert code == EXIT_OK
    assert out == (DATA / "golden_borel_monopole_both.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", ["cp2", "circle", "torus"])
def test_golden_cohom_report(capsys, name, fmt):
    flags = ["--json"] if fmt == "json" else []
    code, out, _ = run(capsys, *flags, "cohom", "--complex", name, str(SAMPLE))
    assert code == EXIT_OK
    assert out == (DATA / f"golden_cohom_{name}.{fmt}").read_text(encoding="utf-8")


TORSION_MODEL = "[action tri]\ntype = multi_monopole\ncharges = 4,2,2\ntruncation = 3\n"


def test_golden_multi_monopole_torsion_report(capsys, tmp_path):
    # the table covers degrees 0..5, with Z/2 torsion in degrees 2 and 4
    model = tmp_path / "torsion.tdsl"
    model.write_text(TORSION_MODEL, encoding="utf-8")
    code, out, _ = run(capsys, "borel", "--action", "tri", "--json", str(model))
    assert code == EXIT_OK
    assert out == (DATA / "golden_borel_multi_torsion.txt").read_text(encoding="utf-8")
    table = json.loads(out)["total_cohomology"]
    assert sorted(table, key=int) == [str(d) for d in range(6)]
    assert table["4"]["torsion"] == [2, 2]


def test_execute_ignores_the_output_flag():
    spec = parse_spec(SAMPLE.read_text(encoding="utf-8"))
    for argv in (["--json", "dualize", "--bundle", "b", str(SAMPLE)],
                 ["dualize", "--json", "--bundle", "b", str(SAMPLE)]):
        assert execute(argv, spec) == execute(["dualize", "--bundle", "b", str(SAMPLE)], spec)


def test_later_calls_build_no_parser(capsys, monkeypatch):
    import argparse

    from tduality.cli import build_parser

    spec = parse_spec(SAMPLE.read_text(encoding="utf-8"))
    run(capsys, "cohom", "--complex", "circle", str(SAMPLE))  # builds it, if nothing has yet
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["--json", "borel", "--action", "m", str(SAMPLE)],
                 ["verify", "--bogus", str(SAMPLE)], ["--help"]):
        run(capsys, *argv)
        execute(["dualize", "--bundle", "b", str(SAMPLE)], spec)
    assert built == []
    build_parser()  # the counter sees a build: the parser and its 4 subparsers
    assert len(built) == 5


def test_importing_the_package_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import tduality, tduality.cli as c; print(c._PARSER)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout == "None\n", proc.stderr


# one process, one parser: argparse successes, errors and --help in between
REUSE_SEQUENCE = (
    (["--json", "borel", "--action", "m", "--route", "both"], "golden_borel_monopole_both.txt"),
    (["borel", "--action", "m", "--route", "both"], None),
    (["borel", "--route", "sideways", "--action", "m"], None),
    (["--help"], None),
    (["dualize", "--bundle", "b"], "golden_dualize_b.txt"),
)


def test_a_sequence_in_one_process_prints_what_each_call_prints_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    codes = []
    for argv, golden in REUSE_SEQUENCE:
        argv = argv if argv == ["--help"] else [*argv, str(SAMPLE)]
        code, out, err = run(capsys, *argv)
        alone = _run_module(*argv)  # a fresh interpreter, which builds its own parser
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        if golden is not None:
            assert out == (DATA / golden).read_text(encoding="utf-8")
        codes.append(code)
    assert codes == [EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_OK]


def test_json_after_the_subcommand_does_not_carry_into_the_next_call(capsys):
    argv = ["borel", "--action", "m", str(SAMPLE)]
    _, before, _ = run(capsys, *argv)
    code, as_json, _ = run(capsys, "borel", "--json", "--action", "m", str(SAMPLE))
    assert code == EXIT_OK and json.loads(as_json)["command"] == "borel --action m --route mw"
    _, after, _ = run(capsys, *argv)
    assert after == before and after.startswith("command: borel")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SAMPLE.read_text(encoding="utf-8")))
    code, out, _ = run(capsys, "cohom", "--complex", "circle", "-")
    assert code == EXIT_OK


def _run_module(*argv, stdin=None, **environ):
    """``python -m tduality`` with the child's address space capped at
    1.5 GB, so that an unbounded allocation fails instead of exhausting the
    machine; ``environ`` adds to the child's environment."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **environ)
    return subprocess.run(
        [sys.executable, "-m", "tduality", *argv],
        stdin=stdin, capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )


def test_undecodable_input_cannot_be_read(tmp_path):
    model = tmp_path / "latin1.tdsl"
    model.write_bytes(b"[complex c]\nkind = catalog\nname = cp\nparams = 2\n# \xff\n")
    with open(model, "rb") as fh:
        # a strict UTF-8 stdin decodes as the file path does
        from_stdin = _run_module("cohom", "--complex", "c", "-", stdin=fh,
                                 PYTHONIOENCODING="utf-8")
    for proc in (_run_module("cohom", "--complex", "c", str(model)), from_stdin):
        assert (proc.returncode, proc.stdout) == (EXIT_PARSE, ""), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("cannot read input: 'utf-8' codec can't decode byte 0xff")


def test_a_model_file_saved_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    model = tmp_path / "bom.tdsl"
    model.write_text(SAMPLE.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert model.read_bytes().startswith(b"\xef\xbb\xbf")
    argv = ("borel", "--action", "m", "--route", "both")
    assert run(capsys, *argv, str(model)) == run(capsys, *argv, str(SAMPLE))


def test_a_byte_order_mark_on_stdin_is_ignored(tmp_path):
    model = tmp_path / "bom.tdsl"
    model.write_text(SAMPLE.read_text(encoding="utf-8"), encoding="utf-8-sig")
    with open(model, "rb") as fh:
        # a UTF-8 stdin keeps the mark as the text's first character
        proc = _run_module("cohom", "--complex", "cp2", "-", stdin=fh, PYTHONIOENCODING="utf-8")
    want = _run_module("cohom", "--complex", "cp2", str(SAMPLE))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, want.stdout, "")


def test_bundle_over_non_cochain_base_is_user_data(tmp_path):
    model = tmp_path / "bad.tdsl"
    model.write_text(
        "[complex bad]\nkind = algebraic\nranks = 1,1,1,1\ndelta0 = 1\ndelta1 = 1\n"
        "[bundle b]\nbase = bad\neuler = 0\n",
        encoding="utf-8",
    )
    for argv in (("verify", str(model)), ("dualize", "--bundle", "b", str(model))):
        proc = _run_module(*argv)
        assert proc.returncode == EXIT_PRECONDITION, proc.stderr
        assert "Traceback" not in proc.stderr
    assert "not a cochain complex at degree 0" in proc.stderr


# One user input per branch of the exit-code contract: the model text (None
# reads tests/data/sample.tdsl), the command, its exit code and a fragment
# of what it prints on stderr.
USER_INPUT_ERRORS = {
    "invalid complex": (
        "[complex a]\nkind = algebraic\nranks = 1,1,1\ndelta0 = 1\ndelta1 = 1\n",
        ["cohom", "--complex", "a"], EXIT_PRECONDITION, "complex 'a' is invalid"),
    "unknown flux": (
        None, ["dualize", "--bundle", "b", "--flux", "nope"], EXIT_PRECONDITION,
        "no flux named 'nope'"),
    "short coboundary": (
        "[complex a]\nkind = algebraic\nranks = 1,1\ndelta0 =\n",
        ["cohom", "--complex", "a"], EXIT_PARSE,
        "line 4, column 1: delta0 in [complex a] needs 1 rows"),
    "negative rank": (
        "[complex a]\nkind = algebraic\nranks = 1,-1\n",
        ["cohom", "--complex", "a"], EXIT_PARSE, "line 3, column 1: negative rank"),
    "free bundle without base": (
        "[action a]\ntype = free_bundle\ntruncation = 1\n",
        ["borel", "--action", "a"], EXIT_PARSE,
        "line 1, column 1: [action a] is missing key 'base'"),
    "free bundle over undeclared base": (
        "[action a]\ntype = free_bundle\nbase = nowhere\ntruncation = 1\n",
        ["borel", "--action", "a"], EXIT_PARSE,
        "line 3, column 1: action 'a' references undeclared complex 'nowhere'"),
    "empty facet": (
        "[complex a]\nkind = simplicial\nfacets = 0,1;;2\n",
        ["cohom", "--complex", "a"], EXIT_PARSE, "line 3, column 1: empty facet"),
    "negative vertex": (
        "[complex a]\nkind = simplicial\nfacets = -1,0\n",
        ["cohom", "--complex", "a"], EXIT_PARSE, "line 3, column 1: negative vertex"),
    "unknown action type": (
        "[action a]\ntype = bogus\n", ["verify"], EXIT_PARSE,
        "parse error: line 2, column 1: unknown action type 'bogus' in [action a]"),
    "Euler class without cup": (
        "[complex a]\nkind = algebraic\nranks = 1,0,1\n[bundle b]\nbase = a\neuler = coeffs=1\n",
        ["dualize", "--bundle", "b"], EXIT_PRECONDITION, "base carries no cup structure"),
    "cp without params": (
        "[complex a]\nkind = catalog\nname = cp\n",
        ["cohom", "--complex", "a"], EXIT_PARSE, "line 1, column 1: cp requires one parameter"),
}


@pytest.mark.parametrize("case", USER_INPUT_ERRORS)
def test_each_user_input_error_exits_with_its_code_and_message(tmp_path, case):
    text, argv, code, fragment = USER_INPUT_ERRORS[case]
    model = SAMPLE
    if text is not None:
        model = tmp_path / "m.tdsl"
        model.write_text(text, encoding="utf-8")
    proc = _run_module(*argv, str(model))
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr


def test_failed_gysin_check_names_its_nodes(capsys, monkeypatch):
    from tduality.gysin import SequenceNode, SequenceReport

    def broken(model, lo, hi):
        return SequenceReport((lo, hi), (
            SequenceNode("H^0(B)", True), SequenceNode("H^2(E)", False),
        ))

    monkeypatch.setattr("tduality.cli.gysin_sequence", broken)
    code, out, err = run(capsys, "--json", "verify", str(SAMPLE))
    assert code == EXIT_INTERNAL and err == "verification failed\n"
    report = execute(["--json", "verify", str(SAMPLE)],
                     parse_spec(SAMPLE.read_text(encoding="utf-8")))
    assert report.exit_code == EXIT_INTERNAL and report.render_json() == out
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["bundle b: Gysin sequence exact at all nodes"]
    assert not check["ok"]
    assert check["detail"] == "not exact at H^2(E)"


def test_failed_gysin_check_gives_each_node_its_witness(capsys, monkeypatch):
    from tduality import gysin
    from tduality.complexes import CochainMap, MappingCone

    def doubled(model, lo, hi):
        # the Gysin sequence of the model with its connecting map doubled
        cone = gysin.total_space(model)
        f = cone.f
        twice = CochainMap(f.source, f.target, f.degree, tuple(m.scale(2) for m in f.mats))
        return gysin.cone_exactness(MappingCone(cone.total, twice), gysin.GYSIN_LABELS, lo, hi)

    monkeypatch.setattr("tduality.cli.gysin_sequence", doubled)
    code, out, err = run(capsys, "--json", "verify", str(SAMPLE))
    assert code == EXIT_INTERNAL and err == "verification failed\n"
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    # over cp(2) with e = 5u, H^0(B) -10-> H^2(B) -> H^2(E) = Z/5 has image
    # 10Z where the kernel is 5Z, and so on one degree up
    assert checks["bundle b: Gysin sequence exact at all nodes"]["detail"] == (
        "not exact at H^2(B) (witness [5]), H^4(B) (witness [5])")
    assert checks["bundle flat: Gysin sequence exact at all nodes"]["ok"]  # e = 0


def test_broken_twisted_total_fails_its_line_and_the_report_goes_on(capsys, monkeypatch):
    def lines(report, kind):
        return [c for c in json.loads(report)["checks"] if c["name"].startswith(kind)]

    for flags in ((), ("--all",)):
        code, good, _ = run(capsys, "--json", "verify", *flags, str(SAMPLE))
        assert code == EXIT_OK

        with broken_totals(monkeypatch):
            code, out, err = run(capsys, "--json", "verify", *flags, str(SAMPLE))
        assert code == EXIT_INTERNAL and err == "verification failed\n", flags
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        # every bundle and action fails its first line, which skips the rest of
        # its section: the report prints the unbroken one's names in order,
        # minus those lines, and no name carries the error
        for first in ("bundle b: total complex valid", "bundle flat: total complex valid",
                      "action m: Borel model builds", "action hopf: Borel model builds",
                      "action pair: Borel model builds", "action flat_t2: Borel model builds"):
            assert checks[first] == {"name": first, "ok": False, "detail": BROKEN_TOTAL}
        skipped = [name for name in names(good) if name.startswith(("bundle ", "action "))
                   and not name.endswith(("total complex valid", "Borel model builds"))]
        assert len(skipped) == 2 + 6
        assert names(out) == [name for name in names(good) if name not in skipped]
        # the complex lines read as on the unbroken engine, and each flux line
        # carries the totals' error
        assert lines(out, "complex") == lines(good, "complex") != []
        assert lines(out, "flux") == [{"name": "flux j2: coordinate vector well-formed",
                                       "ok": False, "detail": BROKEN_TOTAL}]
        # with --all, the catalog lines follow too: the complexes as before, and
        # each twisted cone over cp(n) fails as internal with the certificate's error
        catalog = lines(good, "catalog")
        assert len(catalog) == (22 if flags else 0)
        for before, after in zip(catalog, lines(out, "catalog")):
            twisted = "twisted cone over" in before["name"]
            assert after == (dict(before, ok=False, detail=BROKEN_TOTAL) if twisted else before)
        assert sum("twisted cone over" in c["name"] for c in catalog) == (15 if flags else 0)


def test_failed_stability_check_names_its_degree(capsys, monkeypatch):
    from tduality import borel

    witness = "total H^2 differs: ((3,), 0) at N=2, ((), 1) at N=3"
    monkeypatch.setattr(borel, "stability_check", lambda space, n: witness)
    code, out, _ = run(capsys, "--json", "verify", str(SAMPLE))
    assert code == EXIT_INTERNAL
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["action m: stable under N -> N+1"]
    assert not check["ok"]
    assert check["detail"] == witness


def test_a_raising_check_keeps_its_name_and_fails_by_the_error_class(capsys, monkeypatch):
    from tduality import borel
    from tduality.errors import InternalCheckError, PreconditionError

    def raises(error):
        def check(*args):
            raise error("no data for this check")
        return check

    code, good, _ = run(capsys, "--json", "verify", "--all", str(SAMPLE))
    assert code == EXIT_OK
    # user data: the stability line fails under its own name, exit 2
    with monkeypatch.context() as patched:
        patched.setattr(borel, "stability_check", raises(PreconditionError))
        code, out, err = run(capsys, "--json", "verify", "--all", str(SAMPLE))
    assert code == EXIT_PRECONDITION and err == "verification failed\n"
    assert names(out) == names(good)
    assert [c for c in json.loads(out)["checks"] if not c["ok"]] == [
        {"name": f"action {a}: stable under N -> N+1", "ok": False,
         "detail": "no data for this check"} for a in ("m", "hopf", "pair", "flat_t2")]
    # internal: every catalog complex line fails under its own name, exit 3,
    # and the report is printed whole
    with monkeypatch.context() as patched:
        patched.setattr("tduality.cli.catalog_build", raises(InternalCheckError))
        code, out, err = run(capsys, "--json", "verify", "--all", str(SAMPLE))
    assert code == EXIT_INTERNAL and err == "verification failed\n"
    assert names(out) == names(good)
    failing = [c for c in json.loads(out)["checks"] if not c["ok"]]
    assert [c["name"] for c in failing] == [
        f"catalog {m}: valid complex"
        for m in ("cp(2)", "lens(5, 1)", "circle", "point", "sphere2", "torus2", "rp2")]
    assert all(c["detail"] == "no data for this check" for c in failing)


def test_failed_lens_certificate_names_its_degree(capsys, monkeypatch):
    from tduality import borel

    # certify each monopole against the lens model of the next charge
    monkeypatch.setitem(borel._SIMPLICIAL_ROUTE, "monopole", lambda n, charges: (charges[0] + 1, n))
    code, out, _ = run(capsys, "--json", "verify", str(SAMPLE))
    assert code == EXIT_INTERNAL
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["action m: dualization routes agree"]
    assert not check["ok"]
    assert check["detail"] == ("simplicial-route certification failed in degree 2: "
                               "total gives ((3,), 0), independent model gives ((4,), 0)")
    assert "detail" not in checks["action m: stable under N -> N+1"]

    code, out, _ = run(capsys, "--json", "verify", "--all", str(SAMPLE))
    assert code == EXIT_INTERNAL
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["catalog: twisted cone over cp(3) with k=2 matches the explicit rank-one model"]
    assert not check["ok"]
    assert check["detail"] == ("simplicial-route certification failed in degree 2: "
                               "total gives ((2,), 0), independent model gives ((3,), 0)")

    code, out, err = run(capsys, "borel", "--action", "m", "--route", "both", str(SAMPLE))
    assert code == EXIT_INTERNAL and out == ""
    assert "simplicial-route certification failed in degree 2" in err


def test_both_routes_and_verify_dualize_once_per_action(capsys, monkeypatch, tmp_path):
    from tduality import tdual

    calls = []
    real = tdual.dualize

    def counting(t):
        calls.append(t)
        return real(t)

    for name, module in list(sys.modules.items()):
        if name.startswith("tduality") and getattr(module, "dualize", None) is real:
            monkeypatch.setattr(module, "dualize", counting)
    model = tmp_path / "one.tdsl"
    model.write_text("[action m]\ntype = monopole\ncharges = 3\ntruncation = 2\n",
                     encoding="utf-8")
    for argv in (["verify"], ["verify", "--all"], ["borel", "--action", "m", "--route", "both"]):
        calls.clear()
        code, out, _ = run(capsys, "--json", *argv, str(model))
        assert code == EXIT_OK and len(calls) == 1, (argv, len(calls))
    routes = json.loads(out)["routes"]
    assert routes["mathai_wu"] == routes["bunke"]


HUGE_LEVEL = 100_000_000


def test_huge_truncation_levels_are_rejected_before_allocation(tmp_path):
    model = tmp_path / "huge.tdsl"
    model.write_text(
        f"[complex c]\nkind = catalog\nname = cp\nparams = {HUGE_LEVEL}\n"
        "[bundle b]\nbase = c\neuler = u\n"
        f"[action m]\ntype = monopole\ncharges = 3\ntruncation = {HUGE_LEVEL}\n",
        encoding="utf-8",
    )
    # the cp section fails while the file resolves, before any command runs
    proc = _run_module("dualize", "--bundle", "b", str(model))
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert "line 4, column 1" in proc.stderr and "catalog.MAX_LEVEL" in proc.stderr

    model.write_text(
        f"[action m]\ntype = monopole\ncharges = 3\ntruncation = {HUGE_LEVEL}\n",
        encoding="utf-8",
    )
    for argv in (("borel", "--action", "m", str(model)), ("verify", str(model))):
        proc = _run_module(*argv)
        assert proc.returncode == EXIT_PRECONDITION, proc.stderr
        assert "Traceback" not in proc.stderr


def test_free_action_at_a_huge_level_verifies_quickly(tmp_path):
    # the free Hopf model does not depend on N, so nothing is rejected and
    # the stability check stops at the top degree of the compared models
    model = tmp_path / "hopf.tdsl"
    model.write_text(f"[action h]\ntype = free_hopf\ntruncation = {HUGE_LEVEL}\n", encoding="utf-8")
    proc = _run_module("verify", str(model))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr


def test_action_truncation_bound_is_the_same_for_borel_and_verify(tmp_path):
    # verify also builds level N + 1, so an action stops one level below
    # catalog.MAX_LEVEL for both commands alike
    from tduality.borel import MAX_TRUNCATION
    from tduality.catalog import MAX_LEVEL

    assert MAX_TRUNCATION == MAX_LEVEL - 1 == 199
    model = tmp_path / "edge.tdsl"
    for truncation, code in ((199, EXIT_OK), (200, EXIT_PRECONDITION)):
        model.write_text(
            f"[action m]\ntype = monopole\ncharges = 3\ntruncation = {truncation}\n",
            encoding="utf-8",
        )
        for argv in (("borel", "--action", "m", str(model)), ("verify", str(model))):
            proc = _run_module(*argv)
            assert proc.returncode == code, (truncation, argv, proc.stderr)
            assert "Traceback" not in proc.stderr
            if code == EXIT_PRECONDITION:
                assert "catalog.MAX_LEVEL" in proc.stderr + proc.stdout


def test_charge_count_bound_fails_before_the_model_is_built(tmp_path):
    # the glued multi-monopole model grows with the number of charges: 60
    # unit charges at truncation 30 take about 10 s to verify without the bound
    from tduality.borel import MAX_CHARGES

    model = tmp_path / "charges.tdsl"
    for count, code in ((MAX_CHARGES, EXIT_OK), (MAX_CHARGES + 2, EXIT_PRECONDITION),
                        (10_000, EXIT_PRECONDITION)):
        charges = ",".join(["1"] * count)
        model.write_text(
            f"[action a]\ntype = multi_monopole\ncharges = {charges}\ntruncation = 1\n",
            encoding="utf-8",
        )
        for argv in (("borel", "--action", "a", str(model)), ("verify", str(model))):
            proc = _run_module(*argv)
            assert proc.returncode == code, (count, argv, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert ("borel.MAX_CHARGES" in proc.stderr + proc.stdout) == (code != EXIT_OK)


def test_facet_bounds_fail_at_parse_before_the_closure_is_built(tmp_path):
    # a 26-vertex facet has 2^26 - 1 faces: without the bound the closure
    # exhausts the 1.5 GB cap and the process dies without a report
    from tduality.simplicial import MAX_FACETS

    model = tmp_path / "facets.tdsl"
    cases = (
        (",".join(map(str, range(26))), "simplicial.MAX_FACET_SIZE"),
        (";".join(f"{2 * i},{2 * i + 1}" for i in range(MAX_FACETS + 1)), "simplicial.MAX_FACETS"),
    )
    for facets, constant in cases:
        model.write_text(f"[complex s]\nkind = simplicial\nfacets = {facets}\n", encoding="utf-8")
        proc = _run_module("cohom", "--complex", "s", str(model))
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 3, column 1" in proc.stderr and constant in proc.stderr


def test_dense_coboundary_bound_fails_at_parse(tmp_path):
    # 500 disjoint 10-vertex facets pass the facet bounds, but their closure
    # has up to 126,000 simplices in one degree: without the bound the dense
    # coboundaries of cochain_complex_of exhaust the 1.5 GB cap
    model = tmp_path / "dense.tdsl"
    facets = ";".join(",".join(str(10 * i + v) for v in range(10)) for i in range(500))
    model.write_text(f"[complex s]\nkind = simplicial\nfacets = {facets}\n", encoding="utf-8")
    proc = _run_module("cohom", "--complex", "s", str(model))
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 3, column 1" in proc.stderr
    assert "simplicial.MAX_COBOUNDARY_ENTRIES" in proc.stderr


def test_huge_algebraic_rank_fails_at_parse(tmp_path):
    # without the rank bound dsl allocates a zero delta0 of 10^8 rows, and
    # the MemoryError escapes as a traceback under the 1.5 GB cap
    model = tmp_path / "ranks.tdsl"
    model.write_text("[complex c]\nkind = algebraic\nranks = 1,100000000\n", encoding="utf-8")
    proc = _run_module("cohom", "--complex", "c", str(model))
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 3, column 1" in proc.stderr
    assert "simplicial.MAX_COBOUNDARY_ENTRIES" in proc.stderr


def test_degree_count_bound_fails_at_parse(tmp_path):
    # without the bound verify's time grows with the number of rank-1
    # degrees; 402 is the degree count of lens(k, catalog.MAX_LEVEL)
    from tduality.catalog import MAX_LEVEL
    from tduality.dsl import MAX_DEGREES

    assert MAX_DEGREES == 2 * MAX_LEVEL + 2 == 402
    model = tmp_path / "degrees.tdsl"
    for count, code in ((MAX_DEGREES, EXIT_OK), (MAX_DEGREES + 1, EXIT_PARSE)):
        ranks = ",".join(["1"] * count)
        model.write_text(
            f"[complex c]\nkind = algebraic\nranks = {ranks}\n[bundle b]\nbase = c\neuler = 0\n",
            encoding="utf-8",
        )
        proc = _run_module("verify", str(model))
        assert proc.returncode == code, (count, proc.stderr)
        assert "Traceback" not in proc.stderr
        if code == EXIT_PARSE:
            assert "line 3, column 1" in proc.stderr
            assert f"lists {count} degrees" in proc.stderr and "dsl.MAX_DEGREES" in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int <-> str digit limit")
def test_results_past_the_int_digit_limit_print_in_full(tmp_path, capsys):
    # delta0 = (x, 1; 0, x) with x = 10^2400 presents H^1 = Z/10^4800, whose
    # 4,801 digits exceed Python's default limit of 4,300
    x = "1" + "0" * 2400
    model = tmp_path / "wide.tdsl"
    model.write_text(f"[complex c]\nkind = algebraic\nranks = 2,2\ndelta0 = {x},1;0,{x}\n",
                     encoding="utf-8")
    factor = "1" + "0" * 4800
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)
    try:
        code, out, err = run(capsys, "cohom", "--complex", "c", str(model))
        assert (code, err) == (EXIT_OK, "")
        assert f"pretty: Z/{factor}\n" in out and f"- {factor}\n" in out
        assert sys.get_int_max_str_digits() == 4400
        code, out, err = run(capsys, "--json", "cohom", "--complex", "c", str(model))
        assert (code, err) == (EXIT_OK, "")
        assert f'"pretty": "Z/{factor}"' in out and f"  {factor}\n" in out
        assert sys.get_int_max_str_digits() == 4400
        # an error raised while the limit is lifted restores it as well
        code, _, err = run(capsys, "cohom", "--complex", "nope", str(model))
        assert code == EXIT_PRECONDITION and "no complex named 'nope'" in err
        assert sys.get_int_max_str_digits() == 4400
    finally:
        sys.set_int_max_str_digits(previous)
    # literals are still read under the limit: 5,000 digits is a parse error
    model.write_text("[complex c]\nkind = algebraic\nranks = 2,2\ndelta0 = "
                     + "9" * 5000 + ",1;0,1\n", encoding="utf-8")
    proc = _run_module("cohom", "--complex", "c", str(model))
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line 4, column 1: delta0 in [complex c]" in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int <-> str digit limit")
def test_execute_and_its_report_lift_the_int_digit_limit():
    # delta0 = (x, y; y, x) with coprime 2,500-digit x and y presents
    # H^1 = Z/(x^2 - y^2), whose 5,000 digits exceed Python's default limit
    x, y = int("9" * 2500), int("1" * 2499 + "2")
    factor = x * x - y * y
    spec = parse_spec(f"[complex c]\nkind = algebraic\nranks = 2,2\ndelta0 = {x},{y};{y},{x}\n")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(factor)
        report = execute(["cohom", "--complex", "c", "-"], spec)
        assert report.exit_code == EXIT_OK
        assert report.payload["cohomology"]["1"]["torsion"] == [factor]
        text, as_json = report.render_text(), report.render_json()
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert f"pretty: Z/{factor}\n" in text and f"  {factor}\n" in as_json
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("name", sorted(path.stem for path in DATA.glob("*.sha256")))
def test_reports_match_the_committed_transcript_digest(name):
    # tests/data/NAME.sha256 holds the digest of tests/transcript.py on
    # tests/data/NAME.tdsl; an engine change that alters any report byte
    # changes it
    from transcript import transcript

    digest, _ = transcript(str(DATA / f"{name}.tdsl"))
    assert digest == (DATA / f"{name}.sha256").read_text(encoding="utf-8").strip()


def test_every_model_file_has_a_transcript_digest():
    # the digest test and the CI step both take their list from the digests,
    # so a model file without one would go unchecked
    assert {p.stem for p in DATA.glob("*.tdsl")} == {p.stem for p in DATA.glob("*.sha256")}
