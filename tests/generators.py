"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random

from tduality.complexes import CochainMap, GradedComplex, validate_complex
from tduality.gysin import PROVENANCE_ALGEBRAIC, EulerModel
from tduality.matrices import IntMatrix, kernel_basis, unimodular_inverse


def random_matrix(rng: random.Random, rows: int, cols: int, lo=-3, hi=3) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(rng: random.Random, n: int, steps: int = 4) -> IntMatrix:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix.from_rows(m, cols=n)


def random_complex(rng: random.Random, max_rank=3, max_deg=6) -> GradedComplex:
    """Valid complex: seed alternating-support diagonals, then conjugate each
    degree by a random unimodular change of basis."""
    top = rng.randint(1, max_deg)
    ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
    seeds = []
    for n in range(top):
        rows, cols = ranks[n + 1], ranks[n]
        m = [[0] * cols for _ in range(rows)]
        if n % 2 == 0:
            for i in range(min(rows, cols)):
                if rng.random() < 0.6:
                    m[i][i] = rng.choice([-2, -1, 1, 2, 3])
        seeds.append(IntMatrix.from_rows(m, cols=cols))
    changes = [random_unimodular(rng, r) for r in ranks]
    deltas = tuple(
        changes[n + 1] @ seeds[n] @ unimodular_inverse(changes[n]) for n in range(top)
    )
    cx = GradedComplex(tuple(ranks), deltas)
    assert validate_complex(cx) == ""
    return cx


def random_sparse_candidate(rng: random.Random, max_rank=4, max_deg=5) -> GradedComplex:
    """Sparse candidate with entries in [-3, 3]; caller filters for validity."""
    top = rng.randint(1, max_deg)
    ranks = [rng.randint(0, max_rank) for _ in range(top + 1)]
    deltas = []
    for n in range(top):
        rows, cols = ranks[n + 1], ranks[n]
        m = [
            [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        deltas.append(IntMatrix.from_rows(m, cols=cols))
    return GradedComplex(tuple(ranks), tuple(deltas))


def random_nullhomotopic_mu(rng: random.Random, cx: GradedComplex) -> CochainMap:
    """Chain map of degree +2 of the form delta h + h delta; commutes for any
    choice of the degree +1 maps h."""
    hs = [
        random_matrix(rng, cx.rank_at(n + 1), cx.rank_at(n), -2, 2)
        for n in range(len(cx.ranks))
    ]

    def h(n):
        if 0 <= n < len(hs):
            return hs[n]
        return IntMatrix.zeros(cx.rank_at(n + 1), cx.rank_at(n))

    mats = tuple(
        cx.delta_at(n + 1) @ h(n) + h(n + 1) @ cx.delta_at(n)
        for n in range(len(cx.ranks))
    )
    return CochainMap(cx, cx, 2, mats)


def random_free_mu(rng: random.Random, cx: GradedComplex) -> CochainMap:
    """Arbitrary degree +2 matrices; only valid on zero-coboundary complexes."""
    mats = tuple(
        random_matrix(rng, cx.rank_at(n + 2), cx.rank_at(n), -2, 2)
        for n in range(len(cx.ranks))
    )
    return CochainMap(cx, cx, 2, mats)


def random_euler_model(rng: random.Random, max_rank=3, max_deg=6) -> EulerModel:
    """Random valid Euler model; alternates twisted zero-coboundary models
    and null-homotopic twists of conjugated complexes."""
    if rng.random() < 0.5:
        top = rng.randint(2, max_deg)
        ranks = tuple(rng.randint(0, max_rank) for _ in range(top + 1))
        cx = GradedComplex.with_zero_deltas(ranks)
        mu = random_free_mu(rng, cx)
    else:
        cx = random_complex(rng, max_rank, max_deg)
        mu = random_nullhomotopic_mu(rng, cx)
    kb = kernel_basis(cx.delta_at(2))
    rep = kb[0] if kb else (0,) * cx.rank_at(2)
    return EulerModel(cx, rep, mu, PROVENANCE_ALGEBRAIC)
