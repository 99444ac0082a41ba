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
3 internal invariant failure (always a bug).  A failed ``verify`` still
prints its report: the report carries the exit code, 2 when a check fails on
user data and 3 when any failing check is internal, and :func:`execute`
returns it like any other report rather than raising.

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
from typing import Optional, Sequence

from . import borel as borel_mod
from . import tdual as tdual_mod
from .catalog import CATALOG_NAMES, SHIPPED_LENS_PARAMETERS, catalog_build
from .complexes import cohomology, cohomology_shapes, describe_shape, validate_complex
from .dsl import (
    ActionSpec, EulerSpec, ResolvedSpec, SpecFile, build_euler_model, parse_spec, resolve,
)
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


def _cmd_cohom(args, resolved: ResolvedSpec) -> Report:
    name = args.complex
    if name not in resolved.complexes:
        raise PreconditionError(f"no complex named {name!r} in the model file")
    entry = resolved.complexes[name]
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
    if name not in resolved.bundles:
        raise PreconditionError(f"no bundle named {name!r} in the model file")
    model = resolved.bundles[name]
    flux_part = ""
    if args.flux is not None:
        if args.flux not in resolved.fluxes:
            raise PreconditionError(f"no flux named {args.flux!r} in the model file")
        coords = resolved.fluxes[args.flux]
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


def _action_space(spec: ActionSpec, resolved: ResolvedSpec) -> borel_mod.SemiFreeSpace:
    bundle = None
    if spec.kind == "free_bundle":
        entry = resolved.complexes[spec.base]
        bundle = build_euler_model(entry, spec.euler or EulerSpec(coeffs={}))
    return borel_mod.SemiFreeSpace(
        spec.kind, charges=spec.charges, bundle=bundle, flux=spec.flux
    )


def _cmd_borel(args, resolved: ResolvedSpec) -> Report:
    name = args.action
    if name not in resolved.actions:
        raise PreconditionError(f"no action named {name!r} in the model file")
    spec = resolved.actions[name]
    space = _action_space(spec, resolved)
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


def _verify_checks(resolved: ResolvedSpec, include_catalog: bool):
    checks: list[tuple[str, bool, str, bool]] = []
    # entries: (name, ok, detail, internal) where internal marks engine bugs

    for name, entry in resolved.complexes.items():
        rep = validate_complex(entry.complex)
        checks.append(
            (f"complex {name}: coboundary squares to zero", rep.valid, rep.detail or "", False)
        )

    h3_counts = {}  # bundle -> generators of H^3 of its total, for the flux checks
    for name, model in resolved.bundles.items():
        try:
            total = total_space(model).total
        except PreconditionError as exc:
            checks.append((f"bundle {name}: total complex builds", False, str(exc), False))
            continue
        except InternalCheckError as exc:  # total_space validates the total it builds
            checks.append((f"bundle {name}: total complex valid", False, str(exc), True))
            continue
        checks.append((f"bundle {name}: total complex valid", True, "", True))
        h3_counts[name] = cohomology(total, 3).coord_dim
        seq = gysin_sequence(model, 0, total.top_degree)
        failing = [
            node.label if node.witness is None else f"{node.label} (witness {list(node.witness)})"
            for node in seq.nodes if not node.exact
        ]
        detail = "not exact at " + ", ".join(failing) if failing else ""
        checks.append(
            (f"bundle {name}: Gysin sequence exact at all nodes", seq.exact, detail, True)
        )

    counts = "generators: " + (", ".join(f"{b} {k}" for b, k in h3_counts.items()) or "none")
    for name, coords in resolved.fluxes.items():
        fits = len(coords) in h3_counts.values()
        detail = "" if fits else f"{len(coords)} coordinates fit no bundle's H^3 ({counts})"
        checks.append((f"flux {name}: coordinate vector well-formed", fits, detail, False))

    for name, spec in resolved.actions.items():
        try:
            space = _action_space(spec, resolved)
            n = spec.truncation
            borel_mod.truncated_borel(space, n)
            checks.append((f"action {name}: Borel model builds", True, "", False))
            failure = borel_mod.stability_check(space, n)
            checks.append((f"action {name}: stable under N -> N+1", not failure, failure, True))
            borel_mod.mathai_wu_dual(space, n)  # a dualization error fails as user data
            if spec.kind in borel_mod._SIMPLICIAL_ROUTE:
                failure = borel_mod.lens_certificate(space, n)
                checks.append((f"action {name}: dualization routes agree", not failure,
                               failure, True))
        except (PreconditionError, InternalCheckError) as exc:
            internal = isinstance(exc, InternalCheckError)
            checks.append((f"action {name}: {exc}", False, str(exc), internal))

    if include_catalog:
        for cname in CATALOG_NAMES:
            params = {"cp": (2,), "lens": (5, 1)}.get(cname, ())
            model = catalog_build(cname, params)
            rep = validate_complex(model.complex)
            checks.append(
                (f"catalog {model.display_name}: valid complex", rep.valid, rep.detail or "", True)
            )
        for k, n in SHIPPED_LENS_PARAMETERS:
            # the twisted cone over cp(n) with Euler class k*u is the monopole's total
            monopole = borel_mod.SemiFreeSpace("monopole", charges=(k,))
            failure = borel_mod.lens_certificate(monopole, n)
            checks.append((f"catalog: twisted cone over cp({n}) with k={k} matches the "
                           "explicit rank-one model", not failure, failure, True))
    return checks


def _cmd_verify(args, resolved: ResolvedSpec) -> Report:
    checks = _verify_checks(resolved, include_catalog=args.all)
    payload = {
        "command": "verify" + (" --all" if args.all else ""),
        "checks": [
            {"name": name, "ok": ok, **({"detail": detail} if detail else {})}
            for name, ok, detail, _ in checks
        ],
        "failures": sum(1 for _, ok, _, _ in checks if not ok),
        "sign_convention": SIGN_CONVENTION,
    }
    failed = [internal for _, ok, _, internal in checks if not ok]
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
