"""Mutation check of the engine's certificates: can each check fail?

    python tests/mutants.py

Each entry of ``MUTANTS`` names one check, an exact text in one file under
``src/tduality/`` and the text that replaces it, and the test files expected
to catch the change.  Every mutant is applied alone to a fresh copy of
``src/`` and ``tests/`` in a temporary directory, and only its test files run
there (``python -m pytest -x``) under ``TIMEOUT_S``.  A failing run catches
the mutant, and so does one that runs past the timeout; a passing run means the
mutant survived.  Before any mutant, the listed test files run once on the
unchanged copy and must pass.

One line is printed per mutant.  The exit code is 1 when a mutant survives,
its old text is not found exactly once, or pytest ends other than by passing
or failing tests; otherwise 0.  Standard library only; pytest's collection
skips this file, which defines no tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; the slowest, test_cli.py, takes about 10 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "validate_complex always returns ''",
        "src/tduality/complexes.py",
        'return f"delta[{n + 1}] @ delta[{n}] != 0"',
        'return ""',
        ("tests/test_complexes.py", "tests/test_cli.py"),
    ),
    Mutant(
        "require_complex never raises",
        "src/tduality/complexes.py",
        '        raise PreconditionError(f"not a cochain complex: {witness}")',
        "        pass",
        ("tests/test_complexes.py", "tests/test_cli.py"),
    ),
    Mutant(
        "total_space skips its check of the twisted total",
        "src/tduality/gysin.py",
        '        raise InternalCheckError(f"twisted total complex broken: {witness}")',
        "        pass",
        ("tests/test_gysin.py", "tests/test_cli.py"),
    ),
    Mutant(
        "a Gysin node's witness is always None",
        "src/tduality/gysin.py",
        "            witness = None if exact_at(*args) else exactness_witness(*args)",
        "            witness = None",
        ("tests/test_gysin.py", "tests/test_cli.py"),
    ),
    Mutant(
        "cli._exact always returns ''",
        "src/tduality/cli.py",
        '    return "not exact at " + ", ".join(failing) if failing else ""',
        '    return ""',
        ("tests/test_cli.py",),
    ),
)


def _copy_tree(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[str, float]:
    """``passed``, ``failed``, ``timeout`` or ``error (exit N)`` for the run of
    ``tests`` in ``tree``, with its wall time."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, f"error (exit {proc.returncode})")
    return outcome, time.perf_counter() - start


def _apply(tree: Path, mutant: Mutant) -> bool:
    """Replace the one occurrence of ``mutant.old``; False when it is not
    found exactly once."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="tduality-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        files = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        outcome, seconds = _pytest(clean, files)
        print(f"unchanged tree: {outcome} ({seconds:.1f} s) on {', '.join(files)}", flush=True)
        if outcome != "passed":
            return 1
        for k, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{k}"
            _copy_tree(tree)
            if not _apply(tree, mutant):
                print(f"error: {mutant.name}: old text not found exactly once in {mutant.path}")
                bad += 1
                continue
            outcome, seconds = _pytest(tree, mutant.tests)
            verdict = {"failed": "caught", "timeout": "caught (timeout)",
                       "passed": "SURVIVED"}.get(outcome, outcome)
            bad += verdict not in ("caught", "caught (timeout)")
            print(f"{verdict}: {mutant.name} ({seconds:.1f} s)", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {bad} not caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
