"""Command dispatcher and report emitter.

Commands:

    tduality cohom   --complex NAME [--max-degree D] FILE
    tduality dualize --bundle NAME [--flux NAME] FILE
    tduality borel   --action NAME [--route mw|bunke|both] FILE
    tduality verify  [--all] FILE

``FILE`` is a model file in the line-oriented format of :mod:`tduality.dsl`,
or ``-`` for stdin.  ``--json`` switches to structured output carrying the
same numeric content as the text report.  Output is byte-identical across
re-runs for identical input.

Exit codes: 0 success, 1 parse error, 2 precondition violation,
3 internal invariant failure (always a bug).  ``verify`` runs a table of
sections, one per complex, bundle, flux and action and, under ``--all``, per
catalog check.  A row ``(name, witness, internal)`` has its name fixed by the
table; ``witness()`` returns "" or the failing detail, which ``internal``
marks as an engine bug.  One runner calls the witnesses: a
``PreconditionError`` fails the row as user data, an ``InternalCheckError`` as
internal, each with its message as the detail, and a failed first row skips
the rest of its section.  A failed ``verify`` still prints its report, which
carries the exit code, 2 when a check fails on user data and 3 when any
failing check is internal; :func:`execute` returns it rather than raising.

The argument parser is built once per process, on the first call to
:func:`main` or :func:`execute`, and reused after that: importing this module
builds nothing, and both functions can be called any number of times in one
process, each call parsing its own arguments into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

from . import borel as borel_mod
from . import tdual as tdual_mod
from .catalog import CATALOG_NAMES, SHIPPED_LENS_PARAMETERS, catalog_build, display_name
from .complexes import cohomology, cohomology_shapes, describe_shape, validate_complex
from .dsl import ActionSpec, ResolvedSpec, SpecFile, parse_spec, resolve
from .errors import InternalCheckError, ParseError, PreconditionError
from .gysin import SIGN_CONVENTION, gysin_sequence, total_space
from .matrices import Vector

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3


@contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on the digits of an ``int`` <-> ``str`` conversion
    (3.10.7 and later) for the block, restoring the previous value on exit.

    Engine results such as invariant factors may exceed the limit.  Literals
    of the model file are read before the block, under the limit.  Every
    command runs in the block, and so do the two ``Report`` renderers, so a
    caller of ``main`` or ``execute`` meets no limit on a result.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@dataclass(frozen=True)
class Report:
    payload: dict
    exit_code: int = EXIT_OK

    @_unlimited_int_digits()
    def render_text(self) -> str:
        lines = []

        def emit(value, indent=0):
            pad = "  " * indent
            if isinstance(value, dict):
                for k in value:
                    v = value[k]
                    if isinstance(v, (dict, list)):
                        lines.append(f"{pad}{k}:")
                        emit(v, indent + 1)
                    else:
                        lines.append(f"{pad}{k}: {v}")
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, (dict, list)):
                        emit(v, indent)
                    else:
                        lines.append(f"{pad}- {v}")

        emit(self.payload)
        return "\n".join(lines) + "\n"

    @_unlimited_int_digits()
    def render_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def _group_entry(shape) -> dict:
    torsion, free_rank = shape
    return {"torsion": list(torsion), "free_rank": free_rank, "pretty": describe_shape(shape)}


def _describe(cx, n: int) -> str:
    return describe_shape(cohomology_shapes(cx, n)[n])


def _coords(vec: Vector) -> list[int]:
    return [int(x) for x in vec]


def _named(table: dict, what: str, name: str):
    if name not in table:
        raise PreconditionError(f"no {what} named {name!r} in the model file")
    return table[name]


def _cmd_cohom(args, resolved: ResolvedSpec) -> Report:
    name = args.complex
    entry = _named(resolved.complexes, "complex", name)
    cx = entry.complex
    report = validate_complex(cx)
    if not report.valid:
        raise PreconditionError(f"complex {name!r} is invalid: {report.detail}")
    top = cx.top_degree
    if args.max_degree is not None:
        top = min(top, args.max_degree)
    groups = {str(d): _group_entry(shape) for d, shape in enumerate(cohomology_shapes(cx, top))}
    return Report(
        {
            "command": f"cohom --complex {name}"
            + (f" --max-degree {args.max_degree}" if args.max_degree is not None else ""),
            "complex": entry.display_name,
            "degree_window": f"0..{top}",
            "cohomology": groups,
            "sign_convention": SIGN_CONVENTION,
        }
    )


def _dual_payload(result) -> dict:
    canonical = tdual_mod.canonical_flux_rep(result)
    dual_total = total_space(result.dual_model).total
    return {
        "dual_euler_coords": _coords(result.dual_euler),
        "dual_flux_coords": _coords(result.dual_flux_coords()),
        "canonical_flux_coords": _coords(canonical),
        "ambiguity_rank": result.ambiguity_rank,
        "defining_equation": "ok",  # dualize re-checks it and raises otherwise
        "h3_dual_total": cohomology(dual_total, 3).describe(),
        "h2_dual_total": _describe(dual_total, 2),
    }


def _cmd_dualize(args, resolved: ResolvedSpec) -> Report:
    name = args.bundle
    model = _named(resolved.bundles, "bundle", name)
    flux_part = ""
    if args.flux is not None:
        coords = _named(resolved.fluxes, "flux", args.flux)
        t = tdual_mod.triple_from_flux_coords(model, coords)
        flux_part = f" --flux {args.flux}"
    else:
        t = tdual_mod.triple(model)
    result = tdual_mod.dualize(t)
    total = total_space(model).total
    payload = {
        "command": f"dualize --bundle {name}" + flux_part,
        "degree_window": f"0..{total.top_degree}",
        "h2_total": _describe(total, 2),
        **_dual_payload(result),
        "sign_convention": SIGN_CONVENTION,
    }
    return Report(payload)


def _cmd_borel(args, resolved: ResolvedSpec) -> Report:
    name = args.action
    spec = _named(resolved.actions, "action", name)
    space = spec.space()
    n = spec.truncation
    bundle = borel_mod.truncated_borel(space, n)
    total = total_space(bundle.euler_s1).total
    window = 2 * n - 1
    shapes = cohomology_shapes(total, min(window, total.top_degree))
    table = {str(d): _group_entry(shape) for d, shape in enumerate(shapes)}
    payload = {
        "command": f"borel --action {name} --route {args.route}",
        "kind": spec.kind,
        "truncation": n,
        "valid_window": f"degrees <= {window}",
        "total_cohomology": table,
        "h2_total": _describe(total, 2),
        "sign_convention": SIGN_CONVENTION,
    }
    # the Bunke route is the Mathai-Wu dual behind the lens certificate, so
    # both routes print one dual
    route = borel_mod.mathai_wu_dual if args.route == "mw" else borel_mod.bunke_route_dual
    dual = _dual_payload(route(space, n))
    keys = {"mw": ("mathai_wu",), "bunke": ("bunke",), "both": ("mathai_wu", "bunke")}
    payload["routes"] = {key: dual for key in keys[args.route]}
    if args.route == "both":
        payload["routes_agree"] = True
    return Report(payload)


def _holds(build: Callable, *args) -> str:
    build(*args)  # the witness of a check that fails only by raising
    return ""


def _valid(cx) -> str:
    return validate_complex(cx).detail or ""


def _exact(model) -> str:
    seq = gysin_sequence(model, 0, total_space(model).total.top_degree)
    failing = [node.label + ("" if node.witness is None else f" (witness {list(node.witness)})")
               for node in seq.nodes if not node.exact]
    return "not exact at " + ", ".join(failing) if failing else ""


def _fits(coords: Vector, bundles: dict) -> str:
    # a bundle whose total does not build fails this line with its own error
    counts = {b: cohomology(total_space(m).total, 3).coord_dim for b, m in bundles.items()}
    listed = ", ".join(f"{b} {k}" for b, k in counts.items()) or "none"
    return "" if len(coords) in counts.values() else (
        f"{len(coords)} coordinates fit no bundle's H^3 (generators: {listed})")


def _action_rows(name: str, spec: ActionSpec) -> list:
    space = cache(spec.space)  # built once, by the first row
    rows = [(f"action {name}: Borel model builds",
             lambda: _holds(borel_mod.mathai_wu_dual, space(), spec.truncation), False),
            (f"action {name}: stable under N -> N+1",
             lambda: borel_mod.stability_check(space(), spec.truncation), True)]
    if spec.kind in borel_mod._SIMPLICIAL_ROUTE:
        rows.append((f"action {name}: dualization routes agree",
                     lambda: borel_mod.lens_certificate(space(), spec.truncation), True))
    return rows


def _verify_table(resolved: ResolvedSpec, include_catalog: bool) -> list:
    table = [[(f"complex {name}: coboundary squares to zero",
               lambda cx=entry.complex: _valid(cx), False)]
             for name, entry in resolved.complexes.items()]
    table += [[(f"bundle {b}: total complex valid", lambda m=m: _holds(total_space, m), True),
               (f"bundle {b}: Gysin sequence exact at all nodes", lambda m=m: _exact(m), True)]
              for b, m in resolved.bundles.items()]
    table += [[(f"flux {name}: coordinate vector well-formed",
                lambda v=coords: _fits(v, resolved.bundles), False)]
              for name, coords in resolved.fluxes.items()]
    table += [_action_rows(name, spec) for name, spec in resolved.actions.items()]
    if include_catalog:
        params = {"cp": (2,), "lens": (5, 1)}
        table += [[(f"catalog {display_name(c, params.get(c, ()))}: valid complex",
                    lambda c=c: _valid(catalog_build(c, params.get(c, ())).complex), True)]
                  for c in CATALOG_NAMES]
        # the twisted cone over cp(n) with Euler class k*u is the monopole's total
        table += [[(f"catalog: twisted cone over cp({n}) with k={k} matches the explicit "
                    "rank-one model", lambda k=k, n=n: borel_mod.lens_certificate(
                        borel_mod.SemiFreeSpace("monopole", charges=(k,)), n), True)]
                  for k, n in SHIPPED_LENS_PARAMETERS]
    return table


def _cmd_verify(args, resolved: ResolvedSpec) -> Report:
    checks, failed = [], []
    for section in _verify_table(resolved, include_catalog=args.all):
        for k, (name, witness, internal) in enumerate(section):
            try:
                detail = witness()
                ok = not detail
            except (PreconditionError, InternalCheckError) as exc:
                ok, detail, internal = False, str(exc), isinstance(exc, InternalCheckError)
            checks.append({"name": name, "ok": ok, **({"detail": detail} if detail else {})})
            if not ok:
                failed.append(internal)
                if k == 0:
                    break
    payload = {"command": "verify" + (" --all" if args.all else ""), "checks": checks,
               "failures": len(failed), "sign_convention": SIGN_CONVENTION}
    code = EXIT_INTERNAL if any(failed) else EXIT_PRECONDITION if failed else EXIT_OK
    return Report(payload, code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tduality",
        description="Exact T-duality computations for circle bundles and semi-free actions",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p):
        # accepted before or after the subcommand; SUPPRESS keeps the
        # subparser from clobbering a value set at the top level
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help="structured output",
        )

    def degree(text):
        # argparse names this function in the message for a non-integer
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    p = sub.add_parser("cohom", help="cohomology table of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--max-degree", type=degree, default=None)
    json_flag(p)
    p.add_argument("file")

    p = sub.add_parser("dualize", help="T-dualize a bundle with optional flux")
    p.add_argument("--bundle", required=True)
    p.add_argument("--flux", default=None)
    json_flag(p)
    p.add_argument("file")

    p = sub.add_parser("borel", help="dualize a semi-free action through its Borel model")
    p.add_argument("--action", required=True)
    p.add_argument("--route", choices=("mw", "bunke", "both"), default="mw")
    json_flag(p)
    p.add_argument("file")

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--all", action="store_true", help="include catalog self-checks")
    json_flag(p)
    p.add_argument("file")
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on first use.

    It is a constant of the program: ``parse_args`` leaves it unchanged and
    returns a new namespace each call, so no call sees another's arguments.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


_COMMANDS = {"cohom": _cmd_cohom, "dualize": _cmd_dualize, "borel": _cmd_borel,
             "verify": _cmd_verify}  # the parser admits no other


def _run(args: argparse.Namespace, spec: SpecFile) -> Report:
    """Resolve ``spec`` and run the parsed command on it, digit limit lifted."""
    resolved = resolve(spec)
    with _unlimited_int_digits():
        return _COMMANDS[args.command](args, resolved)


def execute(argv: Sequence[str], spec: SpecFile) -> Report:
    """Run one command against a parsed model file."""
    return _run(_parser().parse_args(list(argv)), spec)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        report = _run(args, parse_spec(_read_source(args.file)))
        out = report.render_json() if args.json else report.render_text()
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_PARSE
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except InternalCheckError as exc:
        sys.stderr.write(f"internal invariant failure: {exc}\n")
        return EXIT_INTERNAL
    sys.stdout.write(out)
    if report.exit_code:
        sys.stderr.write("verification failed\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
