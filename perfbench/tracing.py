"""Per-layer tracing from outside the engine.

The engine's modules bind each other's functions with ``from .x import y``,
so a function is patched in every module namespace that holds it, not only
where it is defined.  Each wrapper records calls, inclusive time and self
time (inclusive minus the time of wrapped calls made inside it).  The
``lru_cache`` counters come from ``cache_info()``; ``functools.wraps`` copies
``cache_info`` and ``cache_clear`` onto the wrapper, so callers of the cached
functions keep working.

Tracing is used only for the ``--trace 1`` run; end-to-end figures come from
untraced runs.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# The public functions wrapped, by layer (the module of tduality they live in).
FUNCTIONS = {
    "matrices": ("smith_normal_form", "unimodular_inverse", "kernel_basis",
                 "solve_integer_system", "hermite_normal_form", "reduce_mod_lattice",
                 "lattice_member"),
    "complexes": ("validate_complex", "cohomology", "class_coordinates", "mapping_cone",
                  "direct_sum", "tensor_product", "cochain_map_sum"),
    "simplicial": ("from_facets", "cochain_complex_of", "cup_operator", "cup_product"),
    "catalog": ("catalog_build", "euler_model_from_label_coeffs", "euler_model_from_cocycle",
                "cp_restriction"),
    "gysin": ("realize_euler_class", "total_space", "pullback", "fiber_integration",
              "induced_matrix", "exact_at", "gysin_sequence"),
    "tdual": ("triple_from_flux_coords", "push_flux", "dualize", "canonical_flux_rep",
              "double_dual_check"),
    "borel": ("truncated_borel", "mathai_wu_dual", "bunke_route_dual", "multi_monopole_dual",
              "stability_check", "mayer_vietoris_glue"),
    "dsl": ("parse_spec", "resolve"),
    "cli": ("main",),
}
METHODS = ("__init__", "__matmul__", "apply")  # of matrices.IntMatrix

# Metrics taken over the set-up rather than the timed loop: the layers whose
# work the warm workload moves into set-up.
SETUP_METRICS = ("simplicial.cup_operator_s", "catalog.build_s", "gysin.total_space_s",
                 "gysin.total_space_hit_ratio", "matrices.setup_snf_s")


class Tracer:
    """Call counts and inclusive/self times per wrapped function, recorded
    only while ``active`` is set (the benchmark clears it around its own
    checks and resets)."""

    def __init__(self):
        self.active = False
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}
        self.extra = {"snf_cells": 0, "snf_max_bits": 0, "simplices": 0}

    def wrap(self, label, fn, after=None):
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])  # calls, inclusive, self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                # bookkeeping time is kept out of the caller's self time
                start = perf_counter()
                after(args, result)
                if stack:
                    stack[-1] += perf_counter() - start
            return result

        return wrapper

    def _after_snf(self, args, result):
        m = args[0]
        self.extra["snf_cells"] += m.rows * m.cols
        bits = max(
            (abs(x).bit_length() for mat in (result.u, result.d, result.v)
             for row in mat.entries for x in row),
            default=0,
        )
        self.extra["snf_max_bits"] = max(self.extra["snf_max_bits"], bits)

    def _after_from_facets(self, args, result):
        self.extra["simplices"] += sum(len(level) for level in result.faces)

    def install(self, extra_modules=()):
        """Patch every binding of the traced functions in the package and in
        ``extra_modules`` (the benchmark's own modules that call the engine)."""
        modules = [m for name, m in sys.modules.items()
                   if name == "tduality" or name.startswith("tduality.")]
        modules += list(extra_modules)
        after = {"smith_normal_form": self._after_snf, "from_facets": self._after_from_facets}
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"tduality.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original, after.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        int_matrix = sys.modules["tduality.matrices"].IntMatrix
        for name in METHODS:
            setattr(int_matrix, name, self.wrap(f"matrices.IntMatrix.{name}", getattr(int_matrix, name)))

    def snapshot(self):
        return {k: list(v) for k, v in self.stats.items()}, dict(self.extra)

    def reset(self):
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.extra = {"snf_cells": 0, "snf_max_bits": 0, "simplices": 0}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(stats, extra, cache_counts, ops, loop_s, max_cache_entries, setup_stats, setup_cache):
    """Per-layer metrics: loop figures per operation (``/op``), set-up
    figures per set-up (``/setup``, names in ``SETUP_METRICS``)."""

    def calls(label):
        return stats.get(label, [0, 0.0, 0.0])[0] / ops

    def incl(label):
        return stats.get(label, [0, 0.0, 0.0])[1] / ops

    def self_time(*labels):
        return sum(stats.get(label, [0, 0.0, 0.0])[2] for label in labels) / ops

    borel_routes = ("borel.mathai_wu_dual", "borel.bunke_route_dual", "borel.multi_monopole_dual")
    matrices_labels = [f"matrices.{n}" for n in FUNCTIONS["matrices"]]
    matrices_labels += [f"matrices.IntMatrix.{n}" for n in METHODS]
    op_s = loop_s / ops
    values = {
        "matrices.snf_calls": (calls("matrices.smith_normal_form"), "count/op"),
        "matrices.snf_s": (incl("matrices.smith_normal_form"), "s/op"),
        "matrices.snf_cells": (extra["snf_cells"] / ops, "count/op"),
        "matrices.snf_max_bits": (extra["snf_max_bits"], "bits"),
        "matrices.unimodular_inverse_calls": (calls("matrices.unimodular_inverse"), "count/op"),
        "matrices.matmul_calls": (calls("matrices.IntMatrix.__matmul__"), "count/op"),
        "matrices.matmul_s": (incl("matrices.IntMatrix.__matmul__"), "s/op"),
        "matrices.hnf_calls": (calls("matrices.hermite_normal_form"), "count/op"),
        "matrices.hnf_s": (incl("matrices.hermite_normal_form"), "s/op"),
        "matrices.solve_calls": (calls("matrices.solve_integer_system"), "count/op"),
        "matrices.solve_s": (incl("matrices.solve_integer_system"), "s/op"),
        "matrices.intmatrix_new": (calls("matrices.IntMatrix.__init__"), "count/op"),
        "matrices.intmatrix_new_s": (incl("matrices.IntMatrix.__init__"), "s/op"),
        "matrices.self_share": (self_time(*matrices_labels) / op_s, "ratio"),
        "matrices.snf_share": (incl("matrices.smith_normal_form") / op_s, "ratio"),
        "complexes.cohomology_calls": (calls("complexes.cohomology"), "count/op"),
        "complexes.cohomology_self_s": (self_time("complexes.cohomology"), "s/op"),
        "complexes.validate_s": (incl("complexes.validate_complex"), "s/op"),
        "complexes.cohomology_hit_ratio": (_ratio(*cache_counts.get("cohomology", (0, 0))), "ratio"),
        "complexes.class_coordinates_s": (incl("complexes.class_coordinates"), "s/op"),
        "complexes.cache_entries": (max_cache_entries, "count"),
        "simplicial.cochain_complex_s": (incl("simplicial.cochain_complex_of"), "s/op"),
        "simplicial.simplices": (extra["simplices"] / ops, "count/op"),
        "gysin.sequence_self_s": (self_time("gysin.gysin_sequence"), "s/op"),
        "gysin.exact_at_s": (incl("gysin.exact_at"), "s/op"),
        "gysin.nodes_checked": (calls("gysin.exact_at"), "count/op"),
        "tdual.dualize_self_s": (self_time("tdual.dualize"), "s/op"),
        "tdual.canonical_flux_s": (incl("tdual.canonical_flux_rep"), "s/op"),
        "borel.truncated_borel_s": (incl("borel.truncated_borel"), "s/op"),
        "borel.route_dual_self_s": (self_time(*borel_routes), "s/op"),
        "dsl.parse_s": (incl("dsl.parse_spec"), "s/op"),
        "dsl.resolve_s": (incl("dsl.resolve"), "s/op"),
        "cli.self_s": (self_time("cli.main"), "s/op"),
        "trace.op_mean_s": (op_s, "s/op"),
    }

    def setup_incl(label):
        return setup_stats.get(label, [0, 0.0, 0.0])[1]

    values.update({
        "simplicial.cup_operator_s": (setup_incl("simplicial.cup_operator"), "s/setup"),
        "catalog.build_s": (setup_incl("catalog.catalog_build"), "s/setup"),
        "gysin.total_space_s": (setup_incl("gysin.total_space"), "s/setup"),
        "gysin.total_space_hit_ratio": (_ratio(*setup_cache.get("total_space", (0, 0))), "ratio"),
        "matrices.setup_snf_s": (setup_incl("matrices.smith_normal_form"), "s/setup"),
    })
    return values
