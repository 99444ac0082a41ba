"""Independent oracles for the test suite.

These deliberately share no code with the package: a minimal gcd-reduction
Smith diagonal without transform bookkeeping, ``smith_step_log``, the
documented Smith pivot rule with its step logs on dense lists, a triple-loop
matrix product, a Bareiss determinant, a brute-force solver over a box, a
cohomology-shape calculator built only on the diagonal oracle, and the
twisted-total and degree-0 cone block constructions on plain row lists.
Production results are checked against these, never the other way around.

Two exceptions read the package's Smith forms.  ``presentation``: the
printed generators are fixed by the package's pivot rule, so it reads the
package's Smith step logs, but multiplies them out itself
(``step_log_transforms``) and selects the generators on plain lists.
``smith_exact_at``: the exactness test over the Smith kernel
``kernel_basis``, its two lattices compared by mutual membership through
a Smith form's ``solve``, against which the Hermite-only ``gysin.exact_at``
is checked.
"""

from __future__ import annotations

import math


def snf_diag(rows) -> list[int]:
    """Nonzero invariant factors via plain gcd reduction (no transforms).

    Diagonalizes by euclidean row/column steps, then restores the
    divisibility chain with pairwise gcd/lcm swaps, which recovers the true
    invariant factors of any diagonalization.
    """
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return []
    m, n = len(a), len(a[0])
    diag = []
    t = 0
    while t < min(m, n):
        found = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[t], a[i] = a[i], a[t]
        for r in a:
            r[t], r[j] = r[j], r[t]
        while True:
            # euclid in column t
            for i in range(t + 1, m):
                while a[i][t]:
                    if abs(a[i][t]) < abs(a[t][t]):
                        a[t], a[i] = a[i], a[t]
                        continue
                    q = a[i][t] // a[t][t]
                    for k in range(n):
                        a[i][k] -= q * a[t][k]
            # euclid in row t
            for j in range(t + 1, n):
                while a[t][j]:
                    if abs(a[t][j]) < abs(a[t][t]):
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        continue
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            break
        diag.append(abs(a[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = math.gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def nonzero_factors(rows) -> list[int]:
    return [d for d in snf_diag(rows) if d != 0]


def matrix_rank(rows) -> int:
    return len(nonzero_factors(rows))


def mat_mul(a, b, width) -> list[list[int]]:
    """Plain triple-loop product of row lists; ``width`` is the column count
    of ``b``, which its rows cannot give when it has none."""
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(width)]
        for row in a
    ]


def bareiss_det(rows) -> int:
    """Fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def brute_solutions(rows, b, lo, hi):
    """All x in the box [lo, hi]^n with rows @ x == b."""
    import itertools

    n = len(rows[0]) if rows else 0
    out = []
    for x in itertools.product(range(lo, hi + 1), repeat=n):
        if all(sum(r[j] * x[j] for j in range(n)) == bi for r, bi in zip(rows, b)):
            out.append(x)
    return out


def cohom_shape(ranks, delta_rows) -> list[tuple[tuple[int, ...], int]]:
    """(torsion, free rank) of H^n for each degree, from the diagonal oracle.

    Free rank: nullity(delta_n) - rank(delta_{n-1}); torsion of H^n: the
    invariant factors >= 2 of delta_{n-1}.
    """

    def as_rows(n):
        if 0 <= n < len(delta_rows):
            return delta_rows[n]
        rows = ranks[n + 1] if 0 <= n + 1 < len(ranks) else 0
        cols = ranks[n] if 0 <= n < len(ranks) else 0
        return [[0] * cols for _ in range(rows)]

    out = []
    for n in range(len(ranks)):
        rank_dn = matrix_rank(as_rows(n))
        below = as_rows(n - 1)
        rank_db = matrix_rank(below)
        free = ranks[n] - rank_dn - rank_db
        torsion = tuple(d for d in nonzero_factors(below) if d >= 2)
        out.append((torsion, free))
    return out


def group_direct_sum(*shapes) -> tuple[tuple[int, ...], int]:
    """Canonical (invariant factors, free rank) of a direct sum of groups."""
    free = sum(s[1] for s in shapes)
    primary: dict[int, list[int]] = {}
    for torsion, _ in shapes:
        for d in torsion:
            x = d
            p = 2
            while x > 1:
                if x % p == 0:
                    e = 0
                    while x % p == 0:
                        x //= p
                        e += 1
                    primary.setdefault(p, []).append(p**e)
                p += 1
    for v in primary.values():
        v.sort(reverse=True)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p in sorted(primary):
            vals = primary[p]
            if i < len(vals):
                f *= vals[i]
        factors.append(f)
    return (tuple(sorted(f for f in factors if f >= 2)), free)


def canonical_shape(shape) -> tuple[tuple[int, ...], int]:
    """Normalize a (torsion, free) pair for comparisons across presentations."""
    return group_direct_sum(shape)


def first_sign_pattern(charges):
    """The brute-force scan over all 2^m sign masks: the signs of the smallest
    mask (bit i set means charge i enters with -1) whose signed sum vanishes,
    or None when no mask does."""
    m = len(charges)
    for mask in range(1 << m):
        signs = tuple(-1 if (mask >> i) & 1 else 1 for i in range(m))
        if sum(s * k for s, k in zip(signs, charges)) == 0:
            return signs
    return None


def eye_rows(rows, cols, offset):
    """Row lists of the matrix with ones at (i, i + offset), cell by cell."""
    return [[1 if j == i + offset else 0 for j in range(cols)] for i in range(rows)]


def block_diag_rows(blocks):
    """Row lists of the block-diagonal matrix, one cell at a time: cell (r, c)
    is the entry of the block owning both row r and column c, else 0."""
    shapes = [(len(b), width) for b, width in blocks]
    rows = sum(h for h, _ in shapes)
    cols = sum(w for _, w in shapes)
    out = []
    for r in range(rows):
        line = []
        for c in range(cols):
            top = left = 0
            value = 0
            for (b, width), (h, _) in zip(blocks, shapes):
                if top <= r < top + h and left <= c < left + width:
                    value = b[r - top][c - left]
                top += h
                left += width
            line.append(value)
        out.append(line)
    return out


def _rank(ranks, n):
    return ranks[n] if 0 <= n < len(ranks) else 0


def _rows(mats, n, rows, cols):
    """Row lists of matrix ``n`` of ``mats``, or the rows x cols zero matrix
    when ``n`` is outside the list."""
    if 0 <= n < len(mats):
        return [list(row) for row in mats[n]]
    return [[0] * cols for _ in range(rows)]


def _two_by_two(top_left, top_right, bottom_left, bottom_right):
    return ([left + right for left, right in zip(top_left, top_right)]
            + [left + right for left, right in zip(bottom_left, bottom_right)])


def twisted_total(ranks, deltas, mu):
    """Ranks and coboundary row lists of the twisted total of a base (its
    ranks and coboundary row lists) under a degree-2 operator ``mu`` (row
    lists per base degree): ``T^n = B^n (+) B^{n-1}`` with
    ``D(phi, psi) = (delta phi + (-1)^n mu(psi), delta psi)``, up to one
    degree above the base."""
    def r(n):
        return _rank(ranks, n)

    out = []
    for n in range(len(ranks)):
        sign = -1 if n % 2 else 1
        twist = [[sign * x for x in row] for row in _rows(mu, n - 1, r(n + 1), r(n - 1))]
        out.append(_two_by_two(_rows(deltas, n, r(n + 1), r(n)), twist,
                               [[0] * r(n) for _ in range(r(n))],
                               _rows(deltas, n - 1, r(n), r(n - 1))))
    return [r(n) + r(n - 1) for n in range(len(ranks) + 1)], out


def degree0_cone(a_ranks, a_deltas, c_ranks, c_deltas, f):
    """Ranks and coboundary row lists of the cone of a degree-0 map
    ``f : A -> C`` (row lists per degree of A): ``Cone^n = A^n (+) C^{n-1}``
    with ``D(a, c) = (-delta a, f(a) + delta c)``."""
    def ra(n):
        return _rank(a_ranks, n)

    def rc(n):
        return _rank(c_ranks, n)

    top = max(len(a_ranks) - 1, len(c_ranks))
    out = []
    for n in range(top):
        out.append(_two_by_two(
            [[-x for x in row] for row in _rows(a_deltas, n, ra(n + 1), ra(n))],
            [[0] * rc(n - 1) for _ in range(ra(n + 1))],
            _rows(f, n, rc(n), ra(n)),
            _rows(c_deltas, n - 1, rc(n), rc(n - 1)),
        ))
    return [ra(n) + rc(n - 1) for n in range(top + 1)], out


def _row_step(x, i, j, q):
    """``x <- E x`` for the step ``E``: ``row_i -= q row_j``, a swap when
    ``q == 0``, a negation when ``i == j``."""
    if i == j:
        x[i] = [-a for a in x[i]]
    elif q == 0:
        x[i], x[j] = x[j], x[i]
    else:
        x[i] = [a - q * b for a, b in zip(x[i], x[j])]


def _col_step(x, i, j, q):
    """``x <- x E`` for the same step ``E = I - q e_i e_j^T``: ``col_j -= q
    col_i``, a swap of columns ``i`` and ``j`` when ``q == 0``, a negation of
    column ``i`` when ``i == j``."""
    for row in x:
        if i == j:
            row[i] = -row[i]
        elif q == 0:
            row[i], row[j] = row[j], row[i]
        else:
            row[j] -= q * row[i]


def step_log_transforms(snf):
    """``(U, U^-1, V, V^-1)`` of a Smith form as row lists, multiplied out
    here from its step logs alone.

    ``U`` is the product of the row log, last step leftmost, and ``V`` of the
    column log, first step leftmost.  The inverse of the step ``(i, j, q)``
    is ``(i, j, -q)`` (a swap or a negation is its own inverse), so ``U^-1``
    is the inverses in log order, each multiplied on the right, and ``V^-1``
    the same multiplied on the left.
    """
    rows, cols = snf.shape
    u, u_inv = eye_rows(rows, rows, 0), eye_rows(rows, rows, 0)
    v, v_inv = eye_rows(cols, cols, 0), eye_rows(cols, cols, 0)
    for i, j, q in snf.row_steps:
        _row_step(u, i, j, q)
        _col_step(u_inv, i, j, -q)
    for i, j, q in snf.col_steps:
        _col_step(v, i, j, q)
        _row_step(v_inv, i, j, -q)
    return u, u_inv, v, v_inv


def smith_step_log(rows, width):
    """``(factors, row_steps, col_steps)`` of the documented Smith rule on
    plain dense lists, for comparison with ``smith_normal_form``.

    Stage ``t`` pivots on the entry of smallest ``(|x|, row, column)`` in
    rows and columns ``t..``; that is the first unit in row-major order when
    there is one.  It is moved to ``(t, t)`` by a row swap then a column
    swap and made positive by a negation; each row ``i > t`` then takes
    ``row_i -= (a[i][t] // p) row_t`` and each column ``j > t`` takes
    ``col_j -= (a[t][j] // p) col_t``.  Remainders restart the stage with a
    new pivot; otherwise the first row ``i > t`` with an entry not divisible
    by ``p`` is added to row ``t`` (the step ``(t, i, -1)``) and the stage
    restarts, and with none the stage ends.  A column step ``col_i -= q
    col_j`` is logged as the row step ``(j, i, q)``.
    """
    a = [list(r) for r in rows]
    height = len(a)
    row_log, col_log = [], []

    def on_rows(i, j, q):
        row_log.append((i, j, q))
        _row_step(a, i, j, q)

    def on_cols(i, j, q):
        col_log.append((j, i, q))
        _col_step(a, j, i, q)

    def smallest(t):
        cells = [(abs(a[i][j]), i, j)
                 for i in range(t, height) for j in range(t, width) if a[i][j]]
        return min(cells, default=None)

    t = 0
    best = smallest(0)
    while t < min(height, width) and best is not None:
        _, i, j = best
        if i != t:
            on_rows(t, i, 0)
        if j != t:
            on_cols(t, j, 0)
        if a[t][t] < 0:
            on_rows(t, t, 2)
        p = a[t][t]
        for i in range(t + 1, height):
            if a[i][t] // p:
                on_rows(i, t, a[i][t] // p)
        for j in range(t + 1, width):
            if a[t][j] // p:
                on_cols(j, t, a[t][j] // p)
        remainders = [a[i][t] for i in range(t + 1, height)] + a[t][t + 1:]
        undivided = [i for i in range(t + 1, height) if any(x % p for x in a[i][t + 1:])]
        if not any(remainders) and undivided:
            on_rows(t, undivided[0], -1)
        elif not any(remainders):
            t += 1
        best = smallest(t)
    return tuple(a[i][i] for i in range(t)), tuple(row_log), tuple(col_log)


def presentation(c, n):
    """``H^n(c)`` presented over the whole kernel of ``delta^n``, then
    selected: ``(torsion, free_rank, generators, coordinates)``.

    With ``U_a delta^n V_a = D_a`` of rank ``r`` and ``U_p P V_p = D_p`` for
    ``P = V_a^-1[r:] delta^{n-1}``, every transform multiplied out whole
    by ``step_log_transforms``, the kernel generators are the columns of
    ``V_a[:, r:] U_p^-1`` and their coordinate rows the rows of
    ``U_p V_a^-1[r:]``, plain products.  The indices whose factor on the
    diagonal of ``D_p`` is >= 2 are selected, then those whose factor is 0;
    a selected generator whose first nonzero entry is negative is negated
    with its row.  ``coordinates`` maps a cocycle to its selected
    coordinates, torsion ones reduced modulo their factor.
    """
    from tduality.matrices import IntMatrix, smith_normal_form

    rank_n, b = c.rank_at(n), c.delta_at(n - 1)
    snf_a = smith_normal_form(c.delta_at(n))
    r = len(snf_a.factors)
    k = rank_n - r
    _, _, v_a, v_a_inv = step_log_transforms(snf_a)
    kernel = [row[r:] for row in v_a]
    reduce_rows = v_a_inv[r:]
    snf_p = smith_normal_form(
        IntMatrix.from_rows(mat_mul(reduce_rows, [list(row) for row in b.entries], b.cols),
                            cols=b.cols))
    u_p, u_p_inv, _, _ = step_log_transforms(snf_p)
    gens = [list(col) for col in zip(*mat_mul(kernel, u_p_inv, k))]
    coord_rows = mat_mul(u_p, reduce_rows, rank_n)
    factors = (list(snf_p.factors) + [0] * k)[:k]
    selection = [i for i in range(k) if factors[i] >= 2] + [i for i in range(k) if factors[i] == 0]
    for i in selection:
        if next(x for x in gens[i] if x) < 0:
            gens[i] = [-x for x in gens[i]]
            coord_rows[i] = [-x for x in coord_rows[i]]

    def coordinates(z):
        w = [sum(x * y for x, y in zip(row, z)) for row in coord_rows]
        return tuple(w[i] % factors[i] if factors[i] else w[i] for i in selection)

    return (tuple(factors[i] for i in selection if factors[i]),
            sum(1 for i in selection if factors[i] == 0),
            tuple(tuple(gens[i]) for i in selection),
            coordinates)


def smith_exact_at(incoming, node, outgoing, nxt):
    """``im(incoming) == ker(outgoing)`` inside ``node``, the kernel read from
    ``kernel_basis`` of ``[outgoing | relation columns of nxt]``.  The two
    lattices are equal when each spanning vector of one is an integer
    combination of the spanning vectors of the other, as the ``solve`` of
    one Smith form per lattice decides; no Hermite form is taken."""
    from tduality.matrices import IntMatrix, kernel_basis, smith_normal_form

    dim = node.coord_dim
    relations = list(node.relation_rows())
    dense = incoming.entries
    image_rows = [tuple(row[j] for row in dense) for j in range(incoming.cols)] + relations

    rel_rows = list(nxt.relation_rows())
    augmented = IntMatrix.from_rows(
        [list(row) + [rel[i] for rel in rel_rows] for i, row in enumerate(outgoing.entries)],
        cols=outgoing.cols + len(rel_rows),
    )
    ker_rows = [vec[:dim] for vec in kernel_basis(augmented)] + relations

    def inside(vectors, spanning):
        # the spanning vectors as the columns of a dim x len(spanning) matrix
        span = IntMatrix.from_rows([[v[i] for v in spanning] for i in range(dim)],
                                   cols=len(spanning))
        solve = smith_normal_form(span).solve
        return all(solve(vec) is not None for vec in vectors)

    return inside(image_rows, ker_rows) and inside(ker_rows, image_rows)
