"""The three workloads: inputs per round, the timed operation, its check and
the reset that follows it.

Every workload is a closed loop with one client.  A run is a whole number
of rounds; each round holds the same mix of operation kinds in a seeded
order, so the share of each size class, and with it the place of the
reported percentiles, is the same in every run.  The ``ROUND`` tables put
the median and the 90th percentile inside a block of like-sized operations,
away from the edges between size classes (see README.md).

Engine functions are called through their modules (``complexes.cohomology``)
so that the tracer's patches reach these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import inputs
from tduality import borel, catalog, cli, complexes, gysin, simplicial, tdual


class PackageCaches:
    """The engine's ``lru_cache`` functions, found by their ``cache_info``.

    ``clear`` empties them between operations; hit and miss counts survive
    the clearing (``cache_clear`` resets them) so ratios cover a whole run.
    """

    def __init__(self):
        found = {}
        for name, module in list(sys.modules.items()):
            if name == "tduality" or name.startswith("tduality."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_info", None)):
                        found[id(value)] = value
        self.functions = sorted(found.values(), key=lambda f: f.__qualname__)
        self.cleared = {f.__name__: [0, 0] for f in self.functions}

    def counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for f in self.functions:
            info = f.cache_info()
            hits, misses = self.cleared[f.__name__]
            out[f.__name__] = (hits + info.hits, misses + info.misses)
        return out

    def entries(self) -> int:
        return sum(f.cache_info().currsize for f in self.functions)

    def clear(self) -> None:
        for f in self.functions:
            info = f.cache_info()
            self.cleared[f.__name__][0] += info.hits
            self.cleared[f.__name__][1] += info.misses
            f.cache_clear()


def counts_delta(after, before):
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


# ---------------------------------------------------------------------------
# simplicial-cohomology: the cold path.
# ---------------------------------------------------------------------------


class SimplicialCohomology:
    """Full H^* of closed triangulated manifolds, each under a fresh random
    vertex relabelling.  The caches are emptied after every operation and no
    relabelled facet list repeats within a run, so nothing is ever a hit.

    Sorted by cost, a round is: 6 small complexes (30%), 2 RP^2 4-grids,
    6 torus/Klein 4x4 grids (40-70%, holds the median), 2 RP^2 5-grids and
    4 torus/Klein 5x5 grids (80-100%, holds the 90th percentile).
    """

    ROUND = (
        ("sphere", inputs.cross_polytope, (3,), 1),
        ("rp2", inputs.rp2_grid, (3,), 1),
        ("torus", inputs.torus_grid, (3, 3), 1),
        ("klein", inputs.klein_grid, (3, 3), 1),
        ("sphere", inputs.cross_polytope, (4,), 2),
        ("rp2", inputs.rp2_grid, (4,), 2),
        ("torus", inputs.torus_grid, (4, 4), 3),
        ("klein", inputs.klein_grid, (4, 4), 3),
        ("rp2", inputs.rp2_grid, (5,), 2),
        ("torus", inputs.torus_grid, (5, 5), 2),
        ("klein", inputs.klein_grid, (5, 5), 2),
    )

    def __init__(self, seed: int, caches: PackageCaches):
        self.rng = inputs.workload_rng("simplicial-cohomology", seed)
        self.caches = caches
        self.templates = [(fam, build(*args), count) for fam, build, args, count in self.ROUND]
        self.seen: set = set()

    def setup(self):
        self.first_round = self._new_round()
        self.run(("torus", inputs.relabel(inputs.torus_grid(3, 3), self.rng)))
        self.reset()

    def round(self, index: int):
        return self.first_round if index == 0 else self._new_round()

    def _new_round(self):
        ops = []
        for family, facets, count in self.templates:
            for _ in range(count):
                relabelled = inputs.relabel(facets, self.rng)
                while relabelled in self.seen:
                    relabelled = inputs.relabel(facets, self.rng)
                self.seen.add(relabelled)
                ops.append((family, relabelled))
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        _, facets = op
        k = simplicial.from_facets(facets)
        cx = simplicial.cochain_complex_of(k)
        return [complexes.cohomology(cx, n) for n in range(k.dim + 1)]

    def facts(self, op, groups):
        family, facets = op
        return checks.check_manifold, dict(
            family=family, facets=facets, groups=[(g.torsion, g.free_rank) for g in groups])

    def reset(self):
        self.caches.clear()


# ---------------------------------------------------------------------------
# bundle-duality: the warm path over shared bases.
# ---------------------------------------------------------------------------


class BundleDuality:
    """Dualize (k, h), take the canonical flux, dualize back and verify the
    Gysin sequence, over cp(1) and over a 4x4 torus grid with the
    Alexander-Whitney cup.  Set-up builds both bases, every Euler model and
    twisted total, and runs each operation once, so every lookup in the
    timed loop hits a cache.

    A round is every (k, h) pair twice over cp(1) (2/3 of it, holds the
    median) and once over the torus (the top third, holds the 90th
    percentile).
    """

    CHARGES = (2, 3, 5)
    GRID = 4

    def __init__(self, seed: int, caches: PackageCaches):
        self.rng = inputs.workload_rng("bundle-duality", seed)
        self.caches = caches

    def setup(self):
        cp1 = catalog.catalog_build("cp", (1,))
        grid = simplicial.from_facets(inputs.relabel(inputs.torus_grid(self.GRID, self.GRID), self.rng))
        bases = {
            "cp1": (cp1.complex, cp1.cup, gysin.PROVENANCE_ALGEBRAIC),
            "torus": (simplicial.cochain_complex_of(grid),
                      gysin.CupStructure((), (), (), simplicial=grid), gysin.PROVENANCE_AW),
        }
        self.models = {}
        for name, (cx, cup, provenance) in bases.items():
            for k in self.CHARGES:
                model = gysin.realize_euler_class(cx, cup, (k,), provenance)
                total = gysin.total_space(model).total
                for n in range(total.top_degree + 1):
                    complexes.cohomology(total, n)
                self.models[(name, k)] = model
        self.pairs = [(b, k, h) for b, reps in (("cp1", 2), ("torus", 1))
                      for k in self.CHARGES for h in self.CHARGES for _ in range(reps)]
        for op in self.pairs:
            self.run(op)

    def round(self, index: int):
        ops = list(self.pairs)
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        base, k, h = op
        model = self.models[(base, k)]
        report = tdual.double_dual_check(tdual.triple_from_flux_coords(model, (h,)))
        canonical = tdual.canonical_flux_rep(report.first)
        top = gysin.total_space(model).total.top_degree
        return report, canonical, gysin.gysin_sequence(model, 0, top)

    def facts(self, op, out):
        base, k, h = op
        report, canonical, sequence = out

        def h2(model):
            g = complexes.cohomology(gysin.total_space(model).total, 2)
            return g.torsion, g.free_rank

        return checks.check_duality, dict(
            base=base, k=k, h=h, h2_total=h2(self.models[(base, k)]),
            dual_euler=report.first.dual_euler, canonical=canonical,
            dual_h2=h2(report.first.dual_model), back_euler=report.second.dual_euler,
            nodes=[node.exact for node in sequence.nodes], window=sequence.degree_range)

    def reset(self):
        pass


# ---------------------------------------------------------------------------
# borel-cli: the user path through the command line, in process.
# ---------------------------------------------------------------------------


# Twelve charges from a wide range (the first is the sum of the others): at
# truncation 2 the engine's Smith transforms on this glued total grow to
# about 900-bit entries.  The set is the same in every round and seed, so it
# shows that growth without making the figures depend on the seed.
WIDE_CHARGES = (287, 10, 44, 40, 23, 11, 36, 39, 12, 25, 19, 28)


class BorelCli:
    """``tduality.cli.main`` on generated model text read from stdin.  The
    caches are emptied after every call, as a fresh process would find them.

    Sorted by cost, a round is: 4 monopoles with ``--route both``, 2
    small unsignable charge sets and multi-monopoles with 2 and 3 charges
    (40%), 6 multi-monopoles with 4 charges (40-70%, holds the median),
    ``verify --all`` and the 12 ``WIDE_CHARGES``, 3 unsignable sets
    of 16 charges, which scan all 2^16 sign patterns before exiting 2
    (80-95%, holds the 90th percentile), and a multi-monopole with 16
    charges whose signing is found half-way through that scan.
    """

    # ("monopole", truncation, with flux), ("unsignable", m, truncation),
    # ("multi", m, truncation, signing found late), ("verify",),
    # ("fixed", charges, truncation); m is the number of charges
    ROUND = (
        ("monopole", 1, True),
        ("monopole", 1, True),
        ("monopole", 2, False),
        ("monopole", 3, False),
        ("unsignable", 5, 1),
        ("unsignable", 11, 1),
        ("multi", 2, 1, True),
        ("multi", 3, 2, False),
        ("multi", 4, 1, True),
        ("multi", 4, 1, False),
        ("multi", 4, 1, True),
        ("multi", 4, 1, False),
        ("multi", 4, 1, True),
        ("multi", 4, 1, False),
        ("verify",),
        ("fixed", WIDE_CHARGES, 2),
        ("unsignable", 16, 1),
        ("unsignable", 16, 1),
        ("unsignable", 16, 1),
        ("multi", 16, 1, True),
    )

    WARM_UP = (("monopole", 1, True), ("unsignable", 5, 1), ("multi", 3, 1, True), ("verify",))

    def __init__(self, seed: int, caches: PackageCaches):
        self.rng = inputs.workload_rng("borel-cli", seed)
        self.caches = caches

    def _op(self, spec):
        rng = self.rng
        kind = spec[0]
        if kind == "monopole":
            _, truncation, with_flux = spec
            k = rng.randint(2, 9)
            flux = rng.randint(2, 9) if with_flux else None
            text = inputs.action_text("monopole", (k,), truncation, flux)
            argv = ["--json", "borel", "--action", "a", "--route", "both", "-"]
            return "monopole", (k, truncation, flux), argv, text
        if kind == "unsignable":
            _, m, truncation = spec
            charges = inputs.unsignable_charges(m, rng)
            text = inputs.action_text("multi_monopole", charges, truncation)
            return "unsignable", charges, ["--json", "borel", "--action", "a", "-"], text
        if kind in ("multi", "fixed"):
            if kind == "multi":
                _, m, truncation, late = spec
                charges = inputs.signable_charges(m, late, rng)
            else:
                _, charges, truncation = spec
            text = inputs.action_text("multi_monopole", charges, truncation)
            return "multi", (charges, truncation), ["--json", "borel", "--action", "a", "-"], text
        text, expected = inputs.verify_model_text(
            cp_level=2, euler=rng.randint(2, 9), flux=rng.randint(1, 9),
            charge=rng.randint(2, 9), pair=rng.randint(1, 5), truncation=2)
        return "verify", expected, ["--json", "verify", "--all", "-"], text

    def setup(self):
        self.first_round = self._new_round()
        for spec in self.WARM_UP:
            self.run(self._op(spec))
            self.reset()

    def round(self, index: int):
        return self.first_round if index == 0 else self._new_round()

    def _new_round(self):
        ops = [self._op(spec) for spec in self.ROUND]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        _, _, argv, text = op
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    def facts(self, op, out):
        kind, params, _, _ = op
        code, stdout, stderr = out
        answer = dict(code=code, stdout=stdout, stderr=stderr)
        if kind == "unsignable":
            return checks.check_unsignable, answer
        if kind == "monopole":
            k, truncation, flux = params
            return checks.check_monopole, dict(answer, k=k, truncation=truncation, flux=flux)
        if kind == "verify":
            return checks.check_verify, dict(answer, expected_checks=params)
        charges, truncation = params
        space = borel.SemiFreeSpace("multi_monopole", charges=charges)
        total = gysin.total_space(borel.truncated_borel(space, truncation).euler_s1).total
        table = checks.cohomology_table(total.ranks, [d.entries for d in total.deltas])
        return checks.check_multi_monopole, dict(answer, truncation=truncation, independent=table)

    def reset(self):
        self.caches.clear()


WORKLOADS = {
    "simplicial-cohomology": SimplicialCohomology,
    "bundle-duality": BundleDuality,
    "borel-cli": BorelCli,
}
