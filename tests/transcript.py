"""One sha256 over the reports of every command on a model file.

    PYTHONPATH=src python tests/transcript.py [FILE]
    PYTHONPATH=src python tests/transcript.py --check

Runs ``tduality.cli.main`` in process for each complex (``cohom``, with and
without ``--max-degree 2``), each bundle (``dualize``, without and with each
flux), each action (``borel`` with each route), ``verify`` and ``verify
--all``, each in text and ``--json``, and hashes the argument list (the file
written as ``FILE``), exit code, stdout and stderr of every run.  Two
versions of the engine report byte-identically on FILE when the hashes
match.  FILE defaults to ``tests/data/transcript.tdsl``; the committed digest
of ``tests/data/NAME.tdsl`` is ``tests/data/NAME.sha256``.

``--check`` hashes every ``tests/data/*.tdsl``, each in a fresh interpreter
under ``PYTHONHASHSEED`` random, 0 and 1, against its committed digest.  It
prints one line per file and seed and exits 1, naming the file and the
seed, on any mismatch, and naming the file when a model has no digest or a
digest no model.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
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


def check(data: Path) -> int:
    """Every model file of ``data`` against its digest under each hash seed;
    returns the exit code."""
    failed = False
    stems = {p.stem for p in data.glob("*.tdsl")} | {p.stem for p in data.glob("*.sha256")}
    for stem in sorted(stems):
        model, digest = data / f"{stem}.tdsl", data / f"{stem}.sha256"
        if not (model.exists() and digest.exists()):
            have, lack = (model, digest) if model.exists() else (digest, model)
            print(f"{have.name}: no {lack.name}")
            failed = True
            continue
        want = digest.read_text(encoding="utf-8").strip()
        for seed in ("random", "0", "1"):
            proc = subprocess.run([sys.executable, __file__, str(model)], capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
            lines = proc.stdout.splitlines()
            ok = proc.returncode == 0 and lines and lines[-1] == want
            print(f"{model.name} PYTHONHASHSEED={seed}: {'ok' if ok else 'MISMATCH'}")
            if not ok:
                print(proc.stderr, end="", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    data = Path(__file__).parent / "data"
    if sys.argv[1:] == ["--check"]:
        sys.exit(check(data))
    digest, codes = transcript(sys.argv[1] if len(sys.argv) > 1 else str(data / "transcript.tdsl"))
    print(f"{sum(codes.values())} runs, exit codes {dict(sorted(codes.items()))}")
    print(digest)
