"""Line-oriented input format for models, bundles, fluxes and actions.

Grammar (one construct per section, order matters, names unique per kind,
references resolve to earlier sections):

    # comment
    [complex NAME]
    kind = algebraic | catalog | simplicial
    ranks = 1,0,1              (algebraic; omitted coboundaries are zero; the sum
                                of r * r over the ranks r is at most
                                simplicial.MAX_COBOUNDARY_ENTRIES, and there are
                                at most MAX_DEGREES ranks)
    delta0 = 1,2;3,4           (rows separated by ';', entries by ',')
    name = cp                  (catalog)
    params = 2
    facets = 0,1,2;0,1,3       (simplicial; one simplex per ';')

    [bundle NAME]
    base = COMPLEXNAME
    euler = 3*u | u - 2*vol | 0 | coeffs=1,0,3

    [flux NAME]
    h = 1,0                    (coordinates in the H^3 generator basis of the
                                bundle the flux is applied to)

    [action NAME]
    type = point_fixed | monopole | multi_monopole | free_hopf | free_bundle
    charges = 3 | 1,1
    truncation = 2
    base = COMPLEXNAME         (free_bundle only)
    euler = ...                (free_bundle only)
    h = 1                      (optional flux coordinates)

Each section accepts only the keys listed for it (for an algebraic complex,
``delta0`` .. ``delta{len(ranks) - 2}``), each at most once; any other key, or
a key given twice, is a parse error at that key's line and column.

A line-oriented format keeps goldens diff-friendly and error positions exact;
structured output is the CLI's --json flag, not the input's job.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from dataclasses import dataclass, field
from typing import Optional

from .catalog import (
    CATALOG_NAMES, MAX_LEVEL, CatalogModel, catalog_build, euler_model_from_cocycle,
    euler_model_from_label_coeffs,
)
from .complexes import GradedComplex
from .errors import ParseError, PreconditionError
from .gysin import CupStructure, EulerModel, zero_euler_model
from .matrices import IntMatrix, Vector
from .simplicial import MAX_COBOUNDARY_ENTRIES, cochain_complex_of, from_facets

SECTION_KINDS = ("complex", "bundle", "flux", "action")

# Most degrees an algebraic complex may list: as many as lens(k, MAX_LEVEL),
# the largest catalog complex.  Every command works degree by degree, so an
# unbounded list of even rank-1 degrees is unbounded time.
MAX_DEGREES = 2 * MAX_LEVEL + 2

_HEADER_RE = re.compile(r"^\[\s*([a-z_]+)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")


@dataclass(frozen=True)
class Section:
    kind: str
    name: str
    entries: tuple[tuple[str, str], ...]
    line: int = field(compare=False, default=0)  # diagnostics only
    # (line, column) of each entry's key, parallel to ``entries``
    positions: tuple[tuple[int, int], ...] = field(compare=False, default=())

    def get(self, key: str) -> Optional[str]:
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def position(self, key: str) -> tuple[int, int]:
        """Where ``key`` is set, or the header line when it is not."""
        for (k, _), pos in zip(self.entries, self.positions):
            if k == key:
                return pos
        return self.line, 0


@dataclass(frozen=True)
class SpecFile:
    sections: tuple[Section, ...]


def parse_spec(text: str) -> SpecFile:
    sections: list[Section] = []
    current: Optional[tuple[str, str, int, list[tuple[str, str]], list[tuple[int, int]]]] = None
    seen: set[tuple[str, str]] = set()

    def close_current():
        nonlocal current
        if current is not None:
            kind, name, line, entries, positions = current
            sections.append(Section(kind, name, tuple(entries), line, tuple(positions)))
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            m = _HEADER_RE.match(stripped)
            if not m:
                raise ParseError("malformed section header", lineno, col)
            kind, name = m.group(1), m.group(2)
            if kind not in SECTION_KINDS:
                raise ParseError(f"unknown section kind {kind!r}", lineno, col)
            if (kind, name) in seen:
                raise ParseError(f"duplicate {kind} name {name!r}", lineno, col)
            seen.add((kind, name))
            close_current()
            current = (kind, name, lineno, [], [])
            continue
        m = _KEY_RE.match(stripped)
        if not m:
            raise ParseError("expected 'key = value'", lineno, col)
        if current is None:
            raise ParseError("key outside of any section", lineno, col)
        current[3].append((m.group(1), m.group(2).strip()))
        current[4].append((lineno, col))
    close_current()
    return SpecFile(tuple(sections))


# Python's own grammar of a decimal integer literal, which ``int`` accepts
# unless it is longer than the interpreter's digit limit.
_DECIMAL_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _read_int(text: str, section: Section, key: str, expected: str) -> int:
    """``int(text)``; a ``ParseError`` at ``key`` names the digit limit when
    ``text`` is a well-formed literal past it, and ``expected`` otherwise."""
    try:
        return int(text)
    except ValueError:
        if _DECIMAL_RE.fullmatch(text):
            problem = (f"has an integer of more than {sys.get_int_max_str_digits()} digits, "
                       f"Python's int digit limit")
        else:
            problem = f"must be {expected}"
        raise ParseError(
            f"{key} in [{section.kind} {section.name}] {problem}", *section.position(key)
        )


def _parse_int_list(value: str, section: Section, key: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple(_read_int(x, section, key, "comma-separated integers")
                 for x in value.split(","))


def _parse_int(value: str, section: Section, key: str) -> int:
    return _read_int(value, section, key, "an integer")


def _parse_matrix(value: str, rows: int, cols: int, section: Section, key: str) -> IntMatrix:
    value = value.strip()
    if not value:
        if rows == 0:
            return IntMatrix.zeros(rows, cols)
        raise ParseError(
            f"{key} in [{section.kind} {section.name}] needs {rows} rows",
            *section.position(key),
        )
    data = []
    for chunk in value.split(";"):
        data.append(_parse_int_list(chunk, section, key))
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ParseError(
            f"{key} in [{section.kind} {section.name}] must be {rows} rows of "
            f"{cols} entries",
            *section.position(key),
        )
    return IntMatrix.from_rows(data, cols=cols)


_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+)\s*\*\s*)?([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class EulerSpec:
    """Either label coefficients or an explicit degree-2 cocycle."""

    coeffs: Optional[dict[str, int]] = None
    cocycle: Optional[Vector] = None


def parse_euler_value(value: str, section: Section) -> EulerSpec:
    value = value.strip()
    if value.startswith("coeffs="):
        return EulerSpec(cocycle=_parse_int_list(value[len("coeffs="):], section, "euler"))
    if value == "0":
        return EulerSpec(coeffs={})
    coeffs: dict[str, int] = {}
    pos = 0
    compact = value.replace(" ", "")
    while pos < len(compact) or not coeffs:  # an empty value is no expression
        m = _TERM_RE.match(compact, pos)
        if not m or m.start() != pos:
            raise ParseError(
                f"cannot parse euler expression {value!r}", *section.position("euler")
            )
        sign = -1 if m.group(1) == "-" else 1
        mult = _parse_int(m.group(2), section, "euler") if m.group(2) else 1
        label = m.group(3)
        coeffs[label] = coeffs.get(label, 0) + sign * mult
        pos = m.end()
    return EulerSpec(coeffs=coeffs)


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    charges: tuple[int, ...]
    truncation: int
    base: Optional[str]
    euler: Optional[EulerSpec]
    flux: Optional[Vector]


@dataclass(frozen=True)
class ResolvedSpec:
    source: SpecFile
    complexes: dict[str, CatalogModel]
    bundles: dict[str, EulerModel]
    fluxes: dict[str, Vector]
    actions: dict[str, ActionSpec]


def _require(section: Section, key: str) -> str:
    v = section.get(key)
    if v is None:
        raise ParseError(
            f"[{section.kind} {section.name}] is missing key {key!r}", section.line
        )
    return v


def _check_keys(section: Section, allowed: tuple[str, ...]) -> None:
    """Reject, at its line, the first key the section does not read or sets twice."""
    seen = set()
    for (key, _), pos in zip(section.entries, section.positions or repeat((section.line, 0))):
        if key in seen:
            raise ParseError(f"key {key!r} given twice in [{section.kind} {section.name}]", *pos)
        if key not in allowed:
            raise ParseError(
                f"unknown key {key!r} in [{section.kind} {section.name}] "
                f"(allowed: {', '.join(allowed)})",
                *pos,
            )
        seen.add(key)


def _resolve_complex(section: Section) -> CatalogModel:
    kind = _require(section, "kind")
    if kind == "catalog":
        _check_keys(section, ("kind", "name", "params"))
        name = _require(section, "name")
        if name not in CATALOG_NAMES:
            raise ParseError(
                f"unknown catalog model {name!r} in [complex {section.name}]",
                *section.position("name"),
            )
        params = _parse_int_list(section.get("params") or "", section, "params")
        try:
            return catalog_build(name, params)
        except PreconditionError as exc:
            raise ParseError(str(exc), *section.position("params"))
    if kind == "simplicial":
        _check_keys(section, ("kind", "facets"))
        facets_value = _require(section, "facets")
        facets = [
            _parse_int_list(chunk, section, "facets")
            for chunk in facets_value.split(";")
        ]
        try:
            k = from_facets(facets)
        except PreconditionError as exc:
            raise ParseError(str(exc), *section.position("facets"))
        cup = CupStructure((), (), (), simplicial=k)
        return CatalogModel(f"user:{section.name}", (), cochain_complex_of(k), cup)
    if kind == "algebraic":
        ranks = _parse_int_list(_require(section, "ranks"), section, "ranks")
        if not ranks:
            raise ParseError(
                f"ranks in [complex {section.name}] lists no degree", *section.position("ranks")
            )
        if len(ranks) > MAX_DEGREES:
            raise ParseError(
                f"[complex {section.name}] lists {len(ranks)} degrees, above "
                f"dsl.MAX_DEGREES = 2 * catalog.MAX_LEVEL + 2 = {MAX_DEGREES}",
                *section.position("ranks"),
            )
        if any(r < 0 for r in ranks):
            raise ParseError(
                f"negative rank in [complex {section.name}]", *section.position("ranks")
            )
        # A rank r gets r x r dense matrices (the Smith transforms of its
        # coboundaries, a zero block of the twisted total), and a command
        # works through those of every degree, so their sum of r * r is held
        # to the dense coboundary bound; each rank and coboundary then is too.
        if sum(r * r for r in ranks) > MAX_COBOUNDARY_ENTRIES:
            raise ParseError(
                f"ranks of [complex {section.name}] give r x r matrices of more than "
                f"simplicial.MAX_COBOUNDARY_ENTRIES = {MAX_COBOUNDARY_ENTRIES} entries "
                "in all (the sum of r * r over the degrees)",
                *section.position("ranks"),
            )
        _check_keys(section, ("kind", "ranks", *(f"delta{n}" for n in range(len(ranks) - 1))))
        deltas = []
        for n in range(max(len(ranks) - 1, 0)):
            value = section.get(f"delta{n}")
            if value is None:
                deltas.append(IntMatrix.zeros(ranks[n + 1], ranks[n]))
            else:
                deltas.append(_parse_matrix(value, ranks[n + 1], ranks[n], section, f"delta{n}"))
        cx = GradedComplex(tuple(ranks), tuple(deltas))
        return CatalogModel(
            f"user:{section.name}", (), cx, CupStructure((), (), ())
        )
    raise ParseError(
        f"unknown complex kind {kind!r} in [complex {section.name}]",
        *section.position("kind"),
    )


def build_euler_model(entry: CatalogModel, spec: EulerSpec) -> EulerModel:
    if spec.cocycle is not None:
        return euler_model_from_cocycle(entry, spec.cocycle)
    assert spec.coeffs is not None
    if not spec.coeffs:
        return zero_euler_model(entry.complex, entry.cup, entry.provenance)
    return euler_model_from_label_coeffs(entry, spec.coeffs)


def resolve(spec: SpecFile) -> ResolvedSpec:
    """Build model objects from the AST; declared-before-use enforced."""
    complexes: dict[str, CatalogModel] = {}
    bundles: dict[str, EulerModel] = {}
    fluxes: dict[str, Vector] = {}
    actions: dict[str, ActionSpec] = {}

    for section in spec.sections:
        if section.kind == "complex":
            complexes[section.name] = _resolve_complex(section)
        elif section.kind == "bundle":
            _check_keys(section, ("base", "euler"))
            base_name = _require(section, "base")
            if base_name not in complexes:
                raise ParseError(
                    f"bundle {section.name!r} references undeclared complex {base_name!r}",
                    *section.position("base"),
                )
            euler_spec = parse_euler_value(_require(section, "euler"), section)
            bundles[section.name] = build_euler_model(complexes[base_name], euler_spec)
        elif section.kind == "flux":
            _check_keys(section, ("h",))
            fluxes[section.name] = _parse_int_list(_require(section, "h"), section, "h")
        elif section.kind == "action":
            _check_keys(section, ("type", "charges", "truncation", "base", "euler", "h"))
            kind = _require(section, "type")
            charges = _parse_int_list(section.get("charges") or "", section, "charges")
            truncation_value = section.get("truncation")
            truncation = (
                1 if truncation_value is None
                else _parse_int(truncation_value, section, "truncation")
            )
            base_name = section.get("base")
            if kind == "free_bundle":
                if base_name is None:
                    raise ParseError(
                        f"free_bundle action {section.name!r} needs a base",
                        section.line,
                    )
                if base_name not in complexes:
                    raise ParseError(
                        f"action {section.name!r} references undeclared complex {base_name!r}",
                        *section.position("base"),
                    )
            euler_value = section.get("euler")
            euler_spec = (
                parse_euler_value(euler_value, section) if euler_value is not None else None
            )
            flux_value = section.get("h")
            flux = _parse_int_list(flux_value, section, "h") if flux_value is not None else None
            actions[section.name] = ActionSpec(
                kind, charges, truncation, base_name, euler_spec, flux
            )
    return ResolvedSpec(spec, complexes, bundles, fluxes, actions)
