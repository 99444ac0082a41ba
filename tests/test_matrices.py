import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_unimodular
from oracles import (
    bareiss_det,
    block_diag_rows,
    brute_solutions,
    eye_rows,
    mat_mul,
    matrix_rank,
    smith_step_log,
    snf_diag,
    step_log_transforms,
)
from tduality.complexes import _kron, direct_sum
from tduality.errors import PreconditionError
from tduality.matrices import (
    IntMatrix,
    SNFDecomposition,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    lattice_member,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer_system,
    unimodular_inverse,
)
from tduality.simplicial import Cochain, _cup_matrix, cochain_complex_of, from_facets


def check_snf_invariants(m: IntMatrix):
    snf = smith_normal_form(m)
    assert snf.d.shape == (m.rows, m.cols)
    assert snf.u @ m @ snf.v == snf.d
    assert abs(bareiss_det(snf.u.entries)) == 1
    assert abs(bareiss_det(snf.v.entries)) == 1
    diag = [snf.d.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.d.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert snf.factors == tuple(nonzero)
    assert diag[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return snf


def test_snf_zero_1x1():
    snf = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert snf.d == IntMatrix.from_rows([[0]])
    assert snf.u == IntMatrix.eye(1, 1, 0)
    assert snf.v == IntMatrix.eye(1, 1, 0)


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.eye(3, 3, 0))
    assert snf.d == IntMatrix.eye(3, 3, 0)


def test_snf_2x2_example():
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8, so d2 = 4
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert abs(bareiss_det(m.entries)) == 8
    snf = check_snf_invariants(m)
    assert snf.d == IntMatrix.from_rows([[2, 0], [0, 4]])


def test_snf_deterministic():
    m = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    assert smith_normal_form(m) == smith_normal_form(m)


def test_snf_empty_shapes():
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        snf = smith_normal_form(IntMatrix.zeros(rows, cols))
        assert snf.d.shape == (rows, cols)
        assert snf.u @ IntMatrix.zeros(rows, cols) @ snf.v == snf.d


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_gcd_reduction_oracle(rows, cols, data):
    entries = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    m = IntMatrix.from_rows(entries, cols=cols)
    snf = check_snf_invariants(m)
    assert list(snf.factors) == snf_diag(entries)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.sampled_from((10, 40, 100)),
       st.booleans(), st.randoms(use_true_random=True))
def test_invariant_factors_equal_the_smith_diagonal(rows, cols, percent, wide, rng):
    # unit draws are eliminated whole by the sparse pivots; wide draws mix
    # units with entries up to 2^64, so fill-in reaches the dense core
    bounds = (1, 2**64) if wide else (1,)
    entries = [
        [rng.randint(-b, b) if rng.randrange(100) < percent else 0
         for b in (rng.choice(bounds) for _ in range(cols))]
        for _ in range(rows)
    ]
    m = IntMatrix.from_rows(entries, cols=cols)
    assert invariant_factors(m) == smith_normal_form(m).factors


def test_invariant_factors_split_off_units_and_leave_the_torsion_core():
    # two unit pivots, then the core [[2, 0], [0, 6]] -> (2, 6)
    m = IntMatrix.from_rows([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [1, 1, 0, 1]])
    assert invariant_factors(m) == (1, 1, 2, 6)
    assert invariant_factors(IntMatrix.zeros(3, 2)) == ()
    assert invariant_factors(IntMatrix.zeros(0, 4)) == ()
    assert invariant_factors(IntMatrix.from_rows([[4, 6]])) == (2,)


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_snf_inverses_mirror_the_transforms(rows, cols, data):
    # unit entries take the early pivot exit; wider ones force remainders
    entry = st.one_of(st.integers(-1, 1), st.integers(-9, 9))
    entries = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    m = IntMatrix.from_rows(entries, cols=cols)
    snf = smith_normal_form(m)
    # the decomposition keeps the diagonal alone; d is built on read
    d = snf.d
    assert d.shape == (rows, cols)
    assert snf.factors == tuple(
        d.entries[i][i] for i in range(min(rows, cols)) if d.entries[i][i])
    assert snf.u @ m @ snf.v == d
    # the inverses multiplied out from the step logs by the oracle invert
    # the transforms the package builds
    u, u_inv, v, v_inv = step_log_transforms(snf)
    assert (u, v) == ([list(r) for r in snf.u.entries], [list(r) for r in snf.v.entries])
    assert len(u_inv) == rows and len(v_inv) == cols
    assert mat_mul(u_inv, snf.u.entries, rows) == _identity_rows(rows)
    assert mat_mul(snf.v.entries, v_inv, cols) == _identity_rows(cols)


def test_snf_unit_pivot_tie_break_is_pinned():
    # Five entries of absolute value 1; the rule (smallest value, then lowest
    # row, then lowest column) picks the -1 at (0, 1), which is also the first
    # unit entry of a row-major scan.  The expected transforms are those of a
    # full scan of every step's submatrix.
    m = IntMatrix.from_rows([[3, -1, 2, 1], [1, 0, -1, 5], [-1, 1, 4, 0]])
    snf = smith_normal_form(m)
    assert snf.u.entries == ((-1, 0, 0), (0, 1, 0), (1, -2, 1))
    assert snf.d.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert snf.v.entries == (
        (0, 1, 4, -31), (1, 3, 9, -67), (0, 0, -1, 9), (0, 0, -1, 8)
    )
    _, u_inv, _, v_inv = step_log_transforms(snf)
    assert u_inv == [[-1, 0, 0], [0, 1, 0], [1, 2, 1]]
    assert v_inv == [[-3, 1, -2, -1], [1, 0, -1, 5], [0, 0, 8, -9], [0, 0, 1, -1]]


def test_no_engine_path_replays_a_transform(monkeypatch):
    # H^1 of Z -(1,2)-> Z^2 -(2,-1)-> Z reads the outgoing coboundary's
    # kernel slab of V and V^-1 and applies the incoming one's U and U^-1 as
    # step logs; no whole transform is read there, nor by the kernel, the
    # solver or the shapes
    import tduality.complexes as complexes_mod

    forms = []

    def recording_snf(m):
        forms.append(smith_normal_form(m))
        return forms[-1]

    def forbidden(self):
        raise AssertionError("a whole transform was read")

    monkeypatch.setattr(complexes_mod, "smith_normal_form", recording_snf)
    for name in ("u", "v", "d"):
        monkeypatch.setattr(SNFDecomposition, name, property(forbidden))
    c = complexes_mod.GradedComplex(
        (1, 2, 1), (IntMatrix.from_rows([[1], [2]]), IntMatrix.from_rows([[2, -1]]))
    )
    assert complexes_mod.cohomology.__wrapped__(c, 1).shape == ((), 0)
    assert len(forms) == 2
    assert complexes_mod.cohomology_shapes(c, 2) == (((), 0), ((), 0), ((), 0))

    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
    assert kernel_basis(m) == ((-2, 4, -3),)
    assert solve_integer_system(m, (2, -6)) == (1, 0, 0)
    assert solve_integer_system(m, (1, 0)) is None
    with pytest.raises(AssertionError, match="whole transform"):
        smith_normal_form(m).v


def check_kernel_slab(m: IntMatrix):
    """``kernel_basis`` and ``kernel_coordinate_rows`` give ``k = n - rank``
    columns ``K`` and rows ``R`` with ``M K = 0`` and ``R K = I_k``, so ``K``
    is a basis of the kernel lattice and ``R`` reads coordinates in it."""
    snf = smith_normal_form(m)
    k = m.cols - snf.rank
    columns, rows = kernel_basis(m), snf.kernel_coordinate_rows()
    assert len(columns) == len(rows) == k
    kernel = [list(row) for row in zip(*columns)] or [[] for _ in range(m.cols)]
    assert mat_mul(rows, kernel, k) == _identity_rows(k)
    assert mat_mul(m.entries, kernel, k) == [[0] * k for _ in range(m.rows)]


def test_kernel_slab_is_a_kernel_basis_with_coordinates_on_edge_shapes():
    for entries, cols in (([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]], 3),
                          ([[0], [0]], 1), ([[1, 0], [0, 1]], 2), ([[2, 4, 4]], 3),
                          ([[3, 1], [1, 2], [5, 5]], 2)):
        check_kernel_slab(IntMatrix.from_rows(entries, cols=cols))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from((0, 10, 40, 100)),
       st.randoms(use_true_random=True))
def test_kernel_slab_is_a_kernel_basis_with_coordinates(rows, cols, percent, rng):
    # zero rows and columns, rank 0 and full rank, entries up to 300 bits
    check_kernel_slab(IntMatrix.from_rows(_sparse_rows(rng, rows, cols, percent), cols=cols))


@st.composite
def smith_inputs(draw):
    """Dense rows and a width: sparse draws with zero rows and columns and
    300-bit entries, products through a narrower inner size (rank
    deficient), and coboundary-like rows of a few entries +-1."""
    rng = draw(st.randoms(use_true_random=True))
    kind = draw(st.sampled_from(("sparse", "low rank", "coboundary")))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if kind == "sparse":
        return _sparse_rows(rng, rows, cols, draw(st.sampled_from((0, 10, 30, 60, 100)))), cols
    if kind == "low rank":
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        return mat_mul(_sparse_rows(rng, rows, inner, 70), _sparse_rows(rng, inner, cols, 70),
                       cols), cols
    rows, cols = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    out = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), min(cols, rng.randint(0, 3))):
            row[j] = rng.choice((-1, 1))
        out.append(row)
    return out, cols


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_smith_form_follows_the_documented_pivot_rule_step_by_step(drawn):
    rows, cols = drawn
    snf = smith_normal_form(IntMatrix.from_rows(rows, cols=cols))
    assert (snf.factors, snf.row_steps, snf.col_steps) == smith_step_log(rows, cols)


def test_matmul_empty_shapes():
    for (r, k, c) in ((0, 0, 1), (0, 0, 0), (2, 0, 3), (0, 3, 2), (3, 2, 0)):
        prod = IntMatrix.zeros(r, k) @ IntMatrix.zeros(k, c)
        assert prod == IntMatrix.zeros(r, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_triple_loop(rows, inner, cols, data):
    entry = st.one_of(st.integers(-2, 2), st.integers(-(2**300), 2**300))
    a = [[data.draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(entry) for _ in range(cols)] for _ in range(inner)]
    prod = IntMatrix.from_rows(a, cols=inner) @ IntMatrix.from_rows(b, cols=cols)
    assert prod.shape == (rows, cols)
    assert [list(row) for row in prod.entries] == mat_mul(a, b, cols)


def _sparse_rows(rng, rows, cols, percent):
    """Rows with each cell nonzero at the given percent, small of either sign
    or of 300 bits, and sometimes a whole zero row and a whole zero column on
    top."""
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.3 else None
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.3 else None
    return [
        [(rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.7
          else rng.randint(-(2**300), 2**300))
         if i != zero_row and j != zero_col and rng.random() * 100 < percent else 0
         for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from((0, 10, 30, 60, 100)), st.randoms(use_true_random=True))
def test_sparse_product_matches_triple_loop_at_every_density(rows, inner, cols, percent, rng):
    # the product skips zero entries of both factors, so draw from all-zero
    # to full, empty shapes included
    a = _sparse_rows(rng, rows, inner, percent)
    b = _sparse_rows(rng, inner, cols, percent)
    prod = IntMatrix.from_rows(a, cols=inner) @ IntMatrix.from_rows(b, cols=cols)
    assert prod.shape == (rows, cols)
    assert [list(row) for row in prod.entries] == mat_mul(a, b, cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.sampled_from((0, 10, 30, 60, 100)),
       st.randoms(use_true_random=True))
def test_apply_matches_dense_sum_at_every_density(rows, cols, percent, rng):
    # apply sums over the stored nonzeros of each row: the zero vector, then
    # vectors as sparse as the matrix
    m = _sparse_rows(rng, rows, cols, percent)
    mat = IntMatrix.from_rows(m, cols=cols)
    for vec in ([0] * cols, *_sparse_rows(rng, 3, cols, percent)):
        want = tuple(sum(row[k] * vec[k] for k in range(cols)) for row in m)
        got = mat.apply(vec)
        assert got == want and all(type(x) is int for x in got)
        assert mat @ tuple(vec) == want


def test_apply_rejects_a_wrong_length_vector():
    m = IntMatrix.from_rows([[1, 0], [0, 1]])
    for _ in range(2):  # a rejected call leaves the matrix as it was
        for vec in ((), (1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                m.apply(vec)
        assert m.apply((3, 4)) == (3, 4)
    with pytest.raises(ValueError):
        IntMatrix.zeros(0, 3).apply(())
    assert IntMatrix.zeros(3, 0).apply(()) == (0, 0, 0)


def test_from_rows_rejects_a_width_that_differs_from_its_rows():
    # the ValueError names the declared width first, then the row's
    for rows, cols in (([[1, 2]], 3), ([[1, 2]], 1), ([[1, 2]], 0), ([[1], [2, 3]], 1)):
        want = len(next(row for row in rows if len(row) != cols))
        with pytest.raises(ValueError, match=f"expected {cols} columns, got {want}"):
            IntMatrix.from_rows(rows, cols=cols)
    assert IntMatrix.from_rows([[1, 2]], cols=2).shape == (1, 2)
    assert IntMatrix.from_rows([[1, 2]]).shape == (1, 2)
    assert IntMatrix.from_rows([], cols=3).shape == (0, 3)
    assert IntMatrix.from_rows([]).shape == (0, 0)


def test_sorted_sparse_rows_are_the_one_stored_form():
    import dataclasses
    import pickle

    m, twin = (IntMatrix.from_rows([[0, 2, 0], [1, 0, -3]]) for _ in range(2))
    before = repr(m)
    assert tuple(f.name for f in dataclasses.fields(m)) == ("rows", "cols", "nonzeros")
    assert m.nonzeros == (((1, 2),), ((0, 1), (2, -3)))
    # the dense rows and the columns are built on each read and kept nowhere
    assert m.entries == ((0, 2, 0), (1, 0, -3)) and m.entries is not m.entries
    assert m.columns() == ((0, 1), (2, 0), (0, -3))
    assert m.apply((1, 1, 1)) == (2, -2)
    assert m @ IntMatrix.eye(3, 1, 0) == IntMatrix.from_rows([[0], [1]])
    assert set(vars(m)) == {"rows", "cols", "nonzeros"}
    assert m == twin and hash(m) == hash(twin) and repr(m) == before == repr(twin)
    copy = pickle.loads(pickle.dumps(m))
    assert set(vars(copy)) == {"rows", "cols", "nonzeros"} and copy == m
    assert copy.apply((1, 1, 1)) == (2, -2)
    # every operation keeps the form: no zero is stored, columns increase
    for built in (m + m.scale(-1), m.scale(0), IntMatrix.zeros(2, 3), m @ IntMatrix.zeros(3, 2)):
        assert built.nonzeros == ((), ()) and built.is_zero()
    sums = IntMatrix.from_rows([[1, 1], [0, 2]]) + IntMatrix.from_rows([[-1, 3], [5, -2]])
    assert sums.nonzeros == (((1, 4),), ((0, 5),))


def _canonical(m: IntMatrix) -> bool:
    """Each row's pairs have increasing columns inside the width and nonzero
    integer values: the one form equality, the hash and Smith's pivot search
    rely on."""
    return len(m.nonzeros) == m.rows and all(
        all(type(j) is int and type(x) is int and x for j, x in row)
        and all(0 <= j < m.cols for j, _ in row)
        and all(a[0] < b[0] for a, b in zip(row, row[1:]))
        for row in m.nonzeros
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.sampled_from((0, 10, 40, 100)),
       st.randoms(use_true_random=True))
def test_every_constructor_and_operation_stores_canonical_rows(rows, cols, percent, rng):
    # __post_init__ checks the shape only; this pins the rest of the row form
    # on everything that builds a matrix, sums and products cancelling to zero
    # and the simplicial coboundaries and cup operators included
    def drawn(r, c):
        return IntMatrix.from_rows(_sparse_rows(rng, r, c, percent), cols=c)

    a, b, c = drawn(rows, cols), drawn(rows, cols), drawn(cols, rows)
    built = [a, a + b, a + a.scale(-1), a.scale(rng.choice((-2, 0, 1, 3))), a @ c, c @ a,
             IntMatrix.eye(rows, cols, rng.randint(-3, 3)), IntMatrix.zeros(rows, cols),
             IntMatrix.block_diag([a, c, b]), IntMatrix.from_blocks([[a, b], [b, a]]),
             _kron(a, c), IntMatrix.from_rows([[0] * cols] * rows, cols=cols)]
    facets = [sorted(rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(1, 5))]
    k = from_facets(facets)
    built += cochain_complex_of(k).deltas
    for p in range(k.dim + 1):
        f = Cochain(k, p, tuple(rng.choice((0, 0, 1, -2)) for _ in range(k.n_faces(p))))
        built += [_cup_matrix(f, n) for n in range(k.dim + 1 - p)]
    for m in built:
        assert _canonical(m), m
        assert IntMatrix.from_rows(m.entries, cols=m.cols) == m


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_structural_maps_times_dense_factors_match_triple_loop(data):
    size = st.integers(0, 4)
    entry = st.one_of(st.integers(-5, 5), st.integers(-(2**300), 2**300))

    def dense(rows, cols):
        return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]

    r, c, offset = data.draw(size), data.draw(size), data.draw(st.integers(-4, 4))
    shapes = [(data.draw(size), data.draw(size)) for _ in range(data.draw(size))]
    block_mats = [IntMatrix.from_rows(dense(br, bc), cols=bc) for br, bc in shapes]
    structural = (
        (IntMatrix.eye(r, c, offset), eye_rows(r, c, offset)),
        (IntMatrix.block_diag(block_mats),
         block_diag_rows([(m.entries, m.cols) for m in block_mats])),
    )
    for m, want in structural:
        k = data.draw(size)
        left, right = dense(k, m.rows), dense(m.cols, k)
        assert [list(row) for row in (m @ IntMatrix.from_rows(right, cols=k)).entries] == \
            mat_mul(want, right, k)
        assert [list(row) for row in (IntMatrix.from_rows(left, cols=m.rows) @ m).entries] == \
            mat_mul(left, want, m.cols)


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = unimodular_inverse(m)
    assert m @ inv == IntMatrix.eye(2, 2, 0)
    with pytest.raises(PreconditionError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(0, 7)
        m = random_unimodular(rng, n, steps=rng.randint(0, 12))
        assert mat_mul(unimodular_inverse(m).entries, m.entries, n) == _identity_rows(n)


def test_solve_simple():
    assert solve_integer_system(IntMatrix.from_rows([[2]]), (4,)) == (2,)
    assert solve_integer_system(IntMatrix.from_rows([[2]]), (3,)) is None


def test_solve_with_kernel():
    m = IntMatrix.from_rows([[1, 2], [2, 4]])
    x1, x2 = solve_integer_system(m, (1, 2))
    assert x1 + 2 * x2 == 1
    kernel = kernel_basis(m)
    assert len(kernel) == 1
    # the kernel lattice must match brute force over a box
    expected = {x for x in brute_solutions(m.entries, (0, 0), -5, 5) if any(x)}
    k = kernel[0]
    spanned = {
        tuple(c * v for v in k) for c in range(-5, 6) if any(c * v for v in k)
    }
    assert {x for x in spanned if all(-5 <= v <= 5 for v in x)} == expected


def test_solve_unsolvable_rectangular():
    m = IntMatrix.from_rows([[1, 0], [0, 0]])
    assert solve_integer_system(m, (1, 1)) is None
    assert m.apply(solve_integer_system(m, (7, 0))) == (7, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_agrees_with_brute_force(rows, cols, data):
    entries = [
        [data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)
    ]
    b = tuple(data.draw(st.integers(-4, 4)) for _ in range(rows))
    m = IntMatrix.from_rows(entries, cols=cols)
    sol = solve_integer_system(m, b)
    if sol is None:
        # no solution may exist in any box; check a generous one
        assert not brute_solutions(entries, b, -24, 24)
    else:
        assert m.apply(sol) == b
        for k in kernel_basis(m):
            assert m.apply(k) == (0,) * rows


def test_kernel_basis_rank():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    kb = kernel_basis(m)
    assert len(kb) == 3 - matrix_rank(m.entries)
    for v in kb:
        assert m.apply(v) == (0, 0)


def test_hnf_canonical_and_membership():
    rows = [(2, 1), (0, 3)]
    h1 = hermite_normal_form(rows, 2)
    h2 = hermite_normal_form([(2, 4), (0, 3), (2, 1)], 2)
    assert h1 == h2  # same lattice, same form
    assert lattice_member((2, 4), h1)
    assert not lattice_member((1, 0), h1)


def test_hnf_pivots_reduced():
    h = hermite_normal_form([(4, 7, 1), (0, 5, 2), (0, 0, 3)], 3)
    pivots = []
    for row in h:
        j = next(i for i, x in enumerate(row) if x)
        assert row[j] > 0
        pivots.append(j)
        for other in h:
            if other is not row:
                if any(other[i] for i in range(j)):
                    continue
                # rows with later pivots have a zero here
    assert pivots == sorted(pivots)


def test_reduce_mod_lattice_is_coset_invariant():
    rng = random.Random(7)
    lattice = hermite_normal_form([(2, 1, 0), (0, 3, 1)], 3)
    base = (5, -4, 9)
    canonical = reduce_mod_lattice(base, lattice)
    for _ in range(20):
        shift = list(base)
        for row in lattice:
            c = rng.randint(-4, 4)
            shift = [s + c * r for s, r in zip(shift, row)]
        assert reduce_mod_lattice(tuple(shift), lattice) == canonical


def test_matrix_shape_and_type_guards():
    for rows, cols, nonzeros in ((1, 2, ((),) * 2), (1, 2, (((2, 1),),)), (1, 2, (((-1, 1),),)),
                                 (-1, 0, ())):
        with pytest.raises(ValueError):
            IntMatrix(rows, cols, nonzeros)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_blocks([[IntMatrix.zeros(1, 1)], [IntMatrix.zeros(1, 2)]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]) @ IntMatrix.from_rows([[1, 2]])


def test_block_assembly():
    a = IntMatrix.eye(2, 2, 0)
    b = IntMatrix.zeros(2, 1)
    c = IntMatrix.zeros(1, 2)
    d = IntMatrix.from_rows([[5]])
    m = IntMatrix.from_blocks([[a, b], [c, d]])
    assert m.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 5))


def test_eye_against_cell_by_cell_reference():
    for rows in range(5):
        for cols in range(5):
            for offset in range(-5, 6):
                m = IntMatrix.eye(rows, cols, offset)
                assert m.shape == (rows, cols)
                assert [list(r) for r in m.entries] == eye_rows(rows, cols, offset)
    assert IntMatrix.eye(3, 3, 0).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert IntMatrix.eye(3, 2, -1).entries == ((0, 0), (1, 0), (0, 1))
    assert IntMatrix.eye(2, 4, 2).entries == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_block_diag_against_cell_by_cell_reference():
    rng = random.Random(11)
    for _ in range(200):
        blocks = []
        for _ in range(rng.randint(0, 4)):
            r, c = rng.randint(0, 3), rng.randint(0, 3)
            blocks.append(IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)], cols=c
            ))
        m = IntMatrix.block_diag(blocks)
        assert m.shape == (sum(b.rows for b in blocks), sum(b.cols for b in blocks))
        want = block_diag_rows([(b.entries, b.cols) for b in blocks])
        assert [list(r) for r in m.entries] == want
    # empty blocks still take their rows or columns
    m = IntMatrix.block_diag(
        [IntMatrix.zeros(0, 2), IntMatrix.from_rows([[7]]), IntMatrix.zeros(1, 0)]
    )
    assert m.entries == ((0, 0, 7), (0, 0, 0))
    assert IntMatrix.block_diag([]) == IntMatrix.zeros(0, 0)


def test_direct_sum_is_associative_over_block_diag():
    from generators import random_complex

    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (random_complex(rng) for _ in range(3))
        assert direct_sum(a, b, c) == direct_sum(direct_sum(a, b), c)
        assert direct_sum(a, b, c) == direct_sum(a, direct_sum(b, c))
        assert direct_sum(a) == a


def test_snf_exact_on_entries_beyond_machine_words():
    # intermediate values overflow 64-bit words; arithmetic must stay exact
    m = IntMatrix.from_rows(
        [
            [2**40, 3**25, 5**17],
            [7**15, 2**41 + 1, 3**26],
            [5**18, 7**16, 2**42 + 3],
        ]
    )
    snf = check_snf_invariants(m)
    assert abs(bareiss_det(m.entries)) == abs(
        snf.d.entries[0][0] * snf.d.entries[1][1] * snf.d.entries[2][2]
    )


# --- cache keys that hash once --------------------------------------------


def _key_pairs():
    """Per class that keeps its hash: two equal instances built by different
    routes, and the names of its fields."""
    from tduality.catalog import catalog_build, euler_model_from_label_coeffs
    from tduality.complexes import CochainMap, GradedComplex
    from tduality.gysin import PROVENANCE_ALGEBRAIC, EulerModel

    cp2 = catalog_build("cp", (2,))
    built = GradedComplex((1, 0, 1, 0, 1), tuple(
        IntMatrix.from_rows([[0] * a] * b, cols=a) for a, b in ((1, 0), (0, 1), (1, 0), (0, 1))
    ))
    mu = CochainMap(built, built, 2, tuple(
        IntMatrix.eye(built.rank_at(d + 2), built.rank_at(d), 0).scale(3) for d in range(5)
    ))
    return (
        (IntMatrix.eye(2, 3, 1), IntMatrix.from_rows([[0, 1, 0], [0, 0, 1]]),
         ("rows", "cols", "nonzeros")),
        (cp2.complex, built, ("ranks", "deltas")),
        (euler_model_from_label_coeffs(cp2, {"u": 3}).mu, mu,
         ("source", "target", "degree", "mats")),
        (euler_model_from_label_coeffs(cp2, {"u": 3}),
         EulerModel(built, (3,), mu, PROVENANCE_ALGEBRAIC, cp2.cup),
         ("base", "euler_rep", "mu", "provenance", "cup")),
    )


def test_kept_hash_is_the_dataclass_default_and_leaves_the_class_unchanged():
    import dataclasses
    import pickle

    for first, second, names in _key_pairs():
        assert first is not second and first == second
        cls = type(first)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        before = repr(second)
        for obj in (first, second):
            compared = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare)
            assert hash(obj) == hash(obj) == hash(compared)
        assert repr(second) == before == cls.__name__ + "(" + ", ".join(
            f"{name}={getattr(second, name)!r}" for name in names) + ")"
        # the kept value is left behind on pickling: string hashes differ
        # between processes
        copy = pickle.loads(pickle.dumps(first))
        assert "_hash" not in vars(copy) and copy == first and hash(copy) == hash(first)


def test_second_hash_does_not_rehash_the_rows():
    calls = []

    class CountingRow(tuple):
        def __hash__(self):
            calls.append(self)
            return super().__hash__()

    m = IntMatrix(2, 2, (CountingRow(((0, 1), (1, 2))), CountingRow(((0, 3), (1, 4)))))
    assert hash(m) == hash((2, 2, (((0, 1), (1, 2)), ((0, 3), (1, 4)))))
    assert len(calls) == 2
    hash(m)
    assert len(calls) == 2


def test_equal_but_distinct_complex_is_a_cohomology_cache_hit():
    from tduality.catalog import catalog_build
    from tduality.complexes import GradedComplex, cohomology

    cx = catalog_build("cp", (3,)).complex
    cohomology(cx, 2)
    twin = GradedComplex(cx.ranks, tuple(
        IntMatrix.from_rows(d.entries, cols=d.cols) for d in cx.deltas
    ))
    assert twin is not cx and twin == cx
    hits = cohomology.cache_info().hits
    group = cohomology(twin, 2)
    assert cohomology.cache_info().hits == hits + 1
    assert group is cohomology(cx, 2)


def test_internal_results_skip_the_entry_type_scan(monkeypatch):
    from tduality.complexes import GradedComplex, cohomology

    rng = random.Random(61)
    m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)])
    blocks = [[m, IntMatrix.zeros(3, 2)], [IntMatrix.eye(1, 4, 1), IntMatrix.from_rows([[7, 8]])]]
    want_blocks = IntMatrix.from_rows(
        [row + (0, 0) for row in m.entries] + [(0, 1, 0, 0, 7, 8)])
    cx = GradedComplex((1, 1, 1), (IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])))
    cohomology.cache_clear()

    def scanned(*args, **kwargs):
        raise AssertionError("internal result went through from_rows")

    monkeypatch.setattr(IntMatrix, "from_rows", staticmethod(scanned))
    snf = smith_normal_form(m)
    assert snf.u @ m @ snf.v == snf.d
    _, u_inv, _, v_inv = step_log_transforms(snf)
    assert snf.u @ IntMatrix._computed(u_inv, 3) == IntMatrix.eye(3, 3, 0) == \
        IntMatrix._computed([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert IntMatrix._computed(v_inv, 4) @ snf.v == IntMatrix.eye(4, 4, 0)
    assert IntMatrix.from_blocks(blocks) == want_blocks
    assert cohomology(cx, 1).shape == ((), 0) and cohomology(cx, 2).shape == ((2,), 0)
