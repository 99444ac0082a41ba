"""One sha256 over the reports of every command on a model file.

    PYTHONPATH=src python tests/transcript.py [FILE]

Runs ``tduality.cli.main`` in process for each complex (``cohom``, with and
without ``--max-degree 2``), each bundle (``dualize``, without and with each
flux), each action (``borel`` with each route), ``verify`` and ``verify
--all``, each in text and ``--json``, and hashes the argument list (the file
written as ``FILE``), exit code, stdout and stderr of every run.  Two
versions of the engine report byte-identically on FILE when the hashes
match.  FILE defaults to ``tests/data/transcript.tdsl``; the committed digest
of ``tests/data/NAME.tdsl`` is ``tests/data/NAME.sha256``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from collections import Counter
from pathlib import Path

from tduality.cli import main
from tduality.dsl import parse_spec, resolve


def command_lines(path: str) -> list[list[str]]:
    resolved = resolve(parse_spec(Path(path).read_text(encoding="utf-8")))
    runs = []
    for name in resolved.complexes:
        runs += [["cohom", "--complex", name], ["cohom", "--complex", name, "--max-degree", "2"]]
    for name in resolved.bundles:
        runs.append(["dualize", "--bundle", name])
        runs += [["dualize", "--bundle", name, "--flux", flux] for flux in resolved.fluxes]
    for name in resolved.actions:
        runs += [["borel", "--action", name, "--route", r] for r in ("mw", "both", "bunke")]
    return runs + [["verify"], ["verify", "--all"]]


def transcript(path: str) -> tuple[str, Counter]:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    for argv in command_lines(path):
        for flags in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(flags + argv + [path])
            codes[code] += 1
            record = (flags + argv + ["FILE"], code, out.getvalue(), err.getvalue())
            digest.update(repr(record).encode())
    return digest.hexdigest(), codes


if __name__ == "__main__":
    default = Path(__file__).parent / "data" / "transcript.tdsl"
    digest, codes = transcript(sys.argv[1] if len(sys.argv) > 1 else str(default))
    print(f"{sum(codes.values())} runs, exit codes {dict(sorted(codes.items()))}")
    print(digest)
