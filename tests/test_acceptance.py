"""Acceptance criteria, one test per criterion.

Everything is exact integer arithmetic: "tolerance" means equality of
invariant-factor lists and of integer coordinate vectors.  Each test prints
one pass/fail line with its runtime and asserts the stated time bound.
"""

import random
import time

from conftest import ACCEPTANCE_LINES
from generators import random_euler_model
from tduality.borel import (
    SemiFreeSpace,
    bunke_route_dual,
    mathai_wu_dual,
    multi_monopole_dual,
    stability_check,
)
from tduality.catalog import catalog_build, euler_model_from_label_coeffs
from tduality.complexes import cohomology
from tduality.gysin import gysin_sequence, total_space, zero_euler_model
from tduality.tdual import (
    canonical_flux_rep,
    double_dual_check,
    dualize,
    triple,
    triple_from_flux_coords,
)


class Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = (
            f"criterion {self.number} ({self.label}): {status} "
            f"in {elapsed:.2f}s (budget {self.budget:.0f}s)"
        )
        ACCEPTANCE_LINES.append(line)
        print(line)
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


def cp_bundle(n, k):
    return euler_model_from_label_coeffs(catalog_build("cp", (n,)), {"u": k})


def test_criterion_1_rank_one_torsion_groups():
    with Criterion(1, "H^2 of twisted totals is Z/k", 1.0):
        for k in (2, 3, 5, 7):
            for n in (1, 2, 3):
                total = total_space(cp_bundle(n, k)).total
                assert cohomology(total, 2).shape == ((k,), 0), (k, n)


def test_criterion_2_monopole_flux_quantization():
    with Criterion(2, "dual flux of charge k is k units", 1.0):
        for k in (1, 2, 3, 4, 5):
            for n in (1, 2, 3):
                result = dualize(triple(cp_bundle(n, k)))
                assert result.dual_euler == (0,), (k, n)
                assert canonical_flux_rep(result) == (k,), (k, n)


def test_criterion_3_route_agreement():
    with Criterion(3, "both dualization routes agree", 2.0):
        spaces = [SemiFreeSpace("point_fixed"), SemiFreeSpace("free_hopf")]
        spaces += [SemiFreeSpace("monopole", charges=(k,)) for k in (1, 2, 3, 4, 5)]
        for space in spaces:
            for n in (1, 2, 3):
                mw = mathai_wu_dual(space, n)
                bk = bunke_route_dual(space, n)
                assert mw.dual_euler == bk.dual_euler, (space.kind, n)
                assert canonical_flux_rep(mw) == canonical_flux_rep(bk), (space.kind, n)


def catalog_bundles():
    out = []
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 5):
            out.append(cp_bundle(n, k) if k else zero_euler_model(
                catalog_build("cp", (n,)).complex, catalog_build("cp", (n,)).cup
            ))
    for name in ("sphere2", "torus2", "rp2"):
        model = catalog_build(name)
        out.append(zero_euler_model(model.complex, model.cup))
        label = model.cup.labels[0]
        out.append(euler_model_from_label_coeffs(model, {label: 1}))
    out.append(euler_model_from_label_coeffs(catalog_build("sphere2"), {"vol": 2}))
    out.append(zero_euler_model(catalog_build("circle").complex))
    out.append(zero_euler_model(catalog_build("point").complex))
    out.append(zero_euler_model(catalog_build("lens", (2, 1)).complex))
    return out


def test_criterion_4_gysin_exactness_suite():
    with Criterion(4, "Gysin exactness, catalog + 100 random models", 30.0):
        for model in catalog_bundles():
            top = total_space(model).total.top_degree
            report = gysin_sequence(model, 0, top)
            assert report.exact
        rng = random.Random(20260810)
        for _ in range(100):
            model = random_euler_model(rng, max_rank=3, max_deg=6)
            top = total_space(model).total.top_degree
            report = gysin_sequence(model, 0, top)
            assert report.exact, [x.label for x in report.nodes if not x.exact]


def test_criterion_5_cone_versus_explicit_model():
    with Criterion(5, "twisted cone equals explicit rank-one model", 1.0):
        for k in (1, 2, 3, 5, 7):
            for n in (1, 2, 3):
                total = total_space(cp_bundle(n, k)).total
                lens = catalog_build("lens", (k, n)).complex
                for d in range(2 * n + 2):
                    assert (
                        cohomology(total, d).shape == cohomology(lens, d).shape
                    ), (k, n, d)


def random_catalog_triples(rng, count):
    bases = [
        catalog_build("cp", (1,)),
        catalog_build("cp", (2,)),
        catalog_build("sphere2"),
        catalog_build("torus2"),
        catalog_build("lens", (1, 1)),
    ]
    out = []
    while len(out) < count:
        base = rng.choice(bases)
        if base.cup.labels:
            coeff = rng.randint(-2, 3)
            model = euler_model_from_label_coeffs(base, {base.cup.labels[0]: coeff})
        else:
            model = zero_euler_model(base.complex, base.cup)
        h3 = cohomology(total_space(model).total, 3)
        coords = tuple(rng.randint(-2, 2) for _ in range(h3.coord_dim))
        out.append(triple_from_flux_coords(model, coords))
    return out


def test_criterion_6_double_duality():
    with Criterion(6, "double duality returns the triple", 10.0):
        fixed = [triple(m) for m in catalog_bundles()]
        rng = random.Random(977)
        randomized = random_catalog_triples(rng, 25)
        for t in fixed + randomized:
            report = double_dual_check(t)
            assert report.euler_exact
            assert report.flux_comparable
            assert report.flux_congruent


def test_criterion_7_multi_monopole():
    with Criterion(7, "monopole pair dualizes to trivial bundle with flux", 2.0):
        result = multi_monopole_dual((1, 1), 2)
        assert all(x == 0 for x in result.dual_euler)
        assert any(x != 0 for x in canonical_flux_rep(result))


def test_criterion_8_free_action_sanity_and_stability():
    with Criterion(8, "free actions and truncation stability", 2.0):
        sphere = catalog_build("sphere2").complex
        for n in (1, 2, 3):
            result = mathai_wu_dual(SemiFreeSpace("free_hopf"), n)
            assert result.dual_model.base == sphere
            assert result.dual_euler == (0,)
            assert canonical_flux_rep(result) == (1,)
        spaces = [
            SemiFreeSpace("point_fixed"),
            SemiFreeSpace("monopole", charges=(2,)),
            SemiFreeSpace("monopole", charges=(5,)),
            SemiFreeSpace("free_hopf"),
            SemiFreeSpace("multi_monopole", charges=(1, 1)),
            SemiFreeSpace(
                "free_bundle",
                bundle=zero_euler_model(
                    catalog_build("torus2").complex, catalog_build("torus2").cup
                ),
            ),
        ]
        for space in spaces:
            for n in (1, 2):
                assert stability_check(space, n) == "", (space.kind, n)
