"""Exact integer matrices, Smith and Hermite normal forms, lattice utilities.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  Intermediate entries of a Smith reduction can exceed
machine words even for small inputs, so fixed-width integer types are not an
option.

Conventions:

* An ``IntMatrix`` stores one form: per row, its nonzero entries as
  ``(column, value)`` pairs in increasing column order.  Every constructor
  and operation builds that form directly, so equal matrices have equal
  rows and a matrix costs what its nonzeros cost.  ``entries``, the dense
  rows, is a view built on each read for printing and the test oracles; no
  engine path reads it.
* Matrices act on column vectors; ``m @ v`` is matrix-vector application.
  ``a @ b`` adds ``x * (row k of b)`` for each pair ``(k, x)`` of a row of
  ``a``; ``m @ v`` sums ``x * v[k]`` over the pairs of each row.
* ``smith_normal_form`` returns ``U, D, V`` with ``U @ M @ V == D``, both
  transforms unimodular, ``D`` diagonal with a divisibility chain
  ``d1 | d2 | ...`` and nonnegative entries.  The pivot rule (smallest nonzero
  absolute value, ties broken by lowest row then lowest column index) is fixed
  so decompositions are deterministic.  The pivot search stops at the first
  row holding an entry of absolute value 1, whose first such entry is the
  one the rule picks, so the early exit leaves the decomposition unchanged.
  It eliminates on dict rows with an index of the rows holding each
  column, so a step touches only nonzeros.
* ``smith_normal_form`` eliminates on a copy of ``M`` only and logs each
  step as a row step ``(i, j, q)``: ``row_i -= q row_j``, a swap when
  ``q == 0``, a negation when ``i == j``.  A column step ``col_i -= q col_j``
  is ``M @ E`` for the row step ``E = (j, i, q)`` and is logged as that.  A
  transform is the product of its steps (Kannan-Bachem), so ``_apply_steps``
  applies a log to the operand instead: ``U @ X`` is the row log in order on
  the rows of ``X``, ``V @ X`` the column log last step first, and
  ``X @ U^-1`` and ``X @ V^-1`` are the same on the columns of ``X`` with
  each step ``E`` turned into ``E^-T`` by ``_inverse_transpose``.  A kernel
  reads only the ``k = n - rank`` columns of ``V`` past the rank and the
  same rows of ``V^-1``: the column log applied to the ``n x k`` unit slab.
  ``solve`` applies the row log to ``b`` and the column log to ``D^+ U b``.
  No engine path forms a whole transform or ``D``: the properties ``u``,
  ``v`` and ``d`` build them on read for the test oracles and the
  benchmark's tracer.
* ``invariant_factors`` gives the nonzero Smith diagonal alone.  It splits
  off unit pivots first, choosing each to limit fill-in
  (Kaczynski-Mrozek-Slusarek; Dumas-Saunders-Villard), and runs
  ``smith_normal_form`` only on the core left.  It logs no step and keeps no
  transform.  Invariant factors are unique, so the result is that of the
  full elimination whatever the pivot order.  Only shapes use it: a
  presentation's generators are read off the transforms, and another pivot
  order would print other generators.
* Structural maps and assembled coboundaries are built from three
  constructors: ``IntMatrix.eye(rows, cols, offset)``, ones at
  ``(i, i + offset)``, ``IntMatrix.block_diag(blocks)``, the blocks along
  the diagonal, and ``IntMatrix.from_blocks``, a grid of blocks (the
  coboundaries of cones and tensor products).
* Cache keys hash once: ``IntMatrix``, and through ``hash_once`` the complexes,
  cochain maps and Euler models that key the ``lru_cache`` lookups, keep the
  dataclass default hash after its first computation.  A value these types
  build on first read (a complex's edge maps, a cone's structural maps) is a
  ``functools.cached_property``, kept in the instance ``__dict__`` and, like
  the hash, left behind on pickling.
* Entry types are checked where outside input enters, in
  ``IntMatrix.from_rows``: ``dsl`` calls it on model-file matrices, and
  ``borel._glued_cup`` and ``borel._multi_monopole_bundle`` on their
  one-column blocks.  Every result the engine computes itself (Smith's
  ``D``, presentations, induced matrices, cup operators, coboundaries) is
  built from its rows directly or through the private
  ``IntMatrix._computed``, which takes dense rows and keeps the shape
  checks only.
* Lattices are handled through a unique row-style Hermite normal form:
  positive pivots, entries in the pivot column of earlier rows reduced into
  ``[0, pivot)``, rows ordered by pivot column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count
from typing import Iterable, Optional, Sequence

from .errors import PreconditionError

Vector = tuple[int, ...]
Row = tuple[tuple[int, int], ...]  # (column, value) pairs, columns increasing, values nonzero


def hash_once(cls):
    """Class decorator for a frozen dataclass that keys a cache.

    The first ``hash`` computes the dataclass default, the hash of the tuple
    of compared fields, and keeps it on the instance, so every later lookup
    costs O(1).  Equality, ``repr`` and ``dataclasses.fields`` are untouched;
    only the fields are pickled, because string hashes differ between
    processes and anything else kept on the instance is rebuilt on demand.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", field_hash(self))
            return self._hash

    def __getstate__(self):
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def _collected(acc: dict[int, int]) -> Row:
    """The nonzeros of a ``{column: value}`` accumulator, in column order."""
    return tuple(pair for pair in sorted(acc.items()) if pair[1])


@hash_once
@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as sorted sparse rows (see the module
    docstring)."""

    rows: int
    cols: int
    nonzeros: tuple[Row, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.nonzeros) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.nonzeros)}")
        for row in self.nonzeros:
            if row and not 0 <= row[0][0] <= row[-1][0] < self.cols:
                raise ValueError(f"a row holds a column outside 0..{self.cols - 1}")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "IntMatrix":
        """The matrix of dense rows of integers, ``cols`` wide: a ``cols``
        that differs from a row's length raises ``ValueError`` naming both.
        Without ``cols`` the first row sets the width, ``0`` with no rows."""
        data = tuple(tuple(row) for row in rows)
        for row in data:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be integers, got {type(x).__name__}")
        width = cols if cols is not None else len(data[0]) if data else 0
        return IntMatrix._computed(data, width)

    @staticmethod
    def _computed(rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """``from_rows`` without the entry type scan, for dense rows of
        integers the engine computed itself."""
        data = []
        for row in rows:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
            data.append(tuple(zip(compress(count(), row), filter(None, row))))
        return IntMatrix(len(data), cols, tuple(data))

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The dense rows, built on each read from ``columns``."""
        return tuple(zip(*self.columns())) if self.cols else ((),) * self.rows

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def eye(rows: int, cols: int, offset: int) -> "IntMatrix":
        """Ones at ``(i, i + offset)`` where that lies inside, zeros elsewhere."""
        return IntMatrix(rows, cols, tuple(
            ((j, 1),) if 0 <= j < cols else () for j in range(offset, rows + offset)
        ))

    @staticmethod
    def block_diag(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """The blocks along the diagonal, zeros elsewhere; any block may be empty."""
        rows: list[Row] = []
        left = 0
        for b in blocks:
            rows += [tuple((j + left, x) for j, x in row) for row in b.nonzeros]
            left += b.cols
        return IntMatrix(len(rows), left, tuple(rows))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
            right = other.nonzeros
            out = []
            for row in self.nonzeros:
                acc: dict[int, int] = {}
                for k, a in row:
                    for j, b in right[k]:
                        acc[j] = acc.get(j, 0) + a * b
                out.append(_collected(acc))
            return IntMatrix(self.rows, other.cols, tuple(out))
        return self.apply(other)

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.shape} matrix")
        out = []
        for row in self.nonzeros:
            acc = 0
            for j, x in row:
                acc += x * vec[j]
            out.append(acc)
        return tuple(out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        out = []
        for r1, r2 in zip(self.nonzeros, other.nonzeros):
            acc = dict(r1)
            for j, x in r2:
                acc[j] = acc.get(j, 0) + x
            out.append(_collected(acc))
        return IntMatrix(self.rows, self.cols, tuple(out))

    def scale(self, c: int) -> "IntMatrix":
        if c == 1:
            return self
        if c == 0:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple((j, c * x) for j, x in row) for row in self.nonzeros))

    def columns(self) -> tuple[Vector, ...]:
        """Every column as a dense vector: rows filled from the nonzeros,
        transposed by ``zip`` (faster on small matrices than filled columns)."""
        if not self.rows:
            return ((),) * self.cols
        filled = []
        for row in self.nonzeros:
            dense = [0] * self.cols
            for j, x in row:
                dense[j] = x
            filled.append(dense)
        return tuple(zip(*filled))

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        """Assemble a block matrix; each block row must have uniform height
        and the width of the first."""
        width = sum(b.cols for b in blocks[0]) if blocks else 0
        rows: list[Row] = []
        for block_row in blocks:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row) or sum(b.cols for b in block_row) != width:
                raise ValueError("ragged block row")
            lefts = list(accumulate((b.cols for b in block_row), initial=0))
            rows += [tuple((j + left, x) for left, part in zip(lefts, parts) for j, x in part)
                     for parts in zip(*(b.nonzeros for b in block_row))]
        return IntMatrix(len(rows), width, tuple(rows))


def _apply_steps(rows: list[list[int]], steps: Iterable[tuple[int, int, int]]) -> list[list[int]]:
    """The logged row steps applied in order to ``rows`` in place, each
    ``row_i -= q row_j``, a swap when ``q == 0``, a negation when ``i == j``;
    returns ``rows``."""
    for i, j, q in steps:
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif q == 0:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    return rows


def _inverse_transpose(steps: Iterable[tuple[int, int, int]]) -> Iterable[tuple[int, int, int]]:
    """``E^-T`` of each row step ``E``: ``row_i -= q row_j`` gives ``row_j +=
    q row_i``; a swap or a negation is its own inverse transpose."""
    return ((j, i, -q) for i, j, q in steps)


def _unit_columns(n: int, start: int) -> list[list[int]]:
    """Columns ``start..`` of the ``n x n`` identity, as ``n`` rows."""
    return [[int(i - start == j) for j in range(n - start)] for i in range(n)]


@dataclass(frozen=True)
class SNFDecomposition:
    """``U @ M @ V == D`` from ``smith_normal_form``.

    Holds the shape of ``M``, the invariant factors (the nonzero diagonal
    of ``D``, which comes first) and two logs of row steps: ``U`` is the
    product of the row log, last step leftmost, and ``V`` of the column
    log, first step leftmost.  Every product with a transform is one log
    applied to an operand, as is or through ``_inverse_transpose``; ``u``,
    ``v`` and the dense ``d`` are built on each read.
    """

    shape: tuple[int, int]
    factors: Vector
    row_steps: tuple[tuple[int, int, int], ...]
    col_steps: tuple[tuple[int, int, int], ...]

    def u_times(self, rows: list[list[int]]) -> list[list[int]]:
        """``U @ X`` on the rows of ``X``."""
        return _apply_steps(rows, self.row_steps)

    def times_inverse_u(self, cols: list[list[int]]) -> list[list[int]]:
        """``X @ U^-1`` on the columns of ``X``."""
        return _apply_steps(cols, _inverse_transpose(self.row_steps))

    def v_times(self, rows: list[list[int]]) -> list[list[int]]:
        """``V @ X`` on the rows of ``X``."""
        return _apply_steps(rows, reversed(self.col_steps))

    def times_inverse_v(self, cols: list[list[int]]) -> list[list[int]]:
        """``X @ V^-1`` on the columns of ``X``."""
        return _apply_steps(cols, _inverse_transpose(reversed(self.col_steps)))

    def kernel_columns(self) -> list[Vector]:
        """Columns ``rank..`` of ``V``, a basis of the kernel of ``M``."""
        return list(zip(*self.v_times(_unit_columns(self.shape[1], self.rank))))

    def kernel_coordinate_rows(self) -> list[Vector]:
        """Rows ``rank..`` of ``V^-1``, the kernel coordinates."""
        return list(zip(*self.times_inverse_v(_unit_columns(self.shape[1], self.rank))))

    @property
    def d(self) -> IntMatrix:
        (rows, cols), r = self.shape, self.rank
        blocks = [IntMatrix(1, 1, (((0, f),),)) for f in self.factors]
        return IntMatrix.block_diag(blocks + [IntMatrix.zeros(rows - r, cols - r)])

    @property
    def u(self) -> IntMatrix:
        return IntMatrix._computed(self.u_times(_unit_columns(self.shape[0], 0)), self.shape[0])

    @property
    def v(self) -> IntMatrix:
        return IntMatrix._computed(self.v_times(_unit_columns(self.shape[1], 0)), self.shape[1])

    @property
    def rank(self) -> int:
        return len(self.factors)

    def solve(self, b: Sequence[int]) -> Optional[Vector]:
        """An integer ``x`` with ``M @ x == b``, ``b`` of length ``rows``, or ``None``."""
        c = [row[0] for row in self.u_times([[x] for x in b])]
        if any(c[self.rank:]):
            return None
        y = [0] * self.shape[1]
        for i, d in enumerate(self.factors):  # the nonzero entries come first on D
            if c[i] % d:
                return None
            y[i] = c[i] // d
        return tuple(row[0] for row in self.v_times([[x] for x in y]))


def _dict_rows(m: IntMatrix) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The rows of ``m`` as ``{column: value}`` dicts, and its columns as
    ``{row: value}`` dicts."""
    cols: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.nonzeros):
        for j, x in row:
            cols[j][i] = x
    return [dict(row) for row in m.nonzeros], cols


def _step(rows: list[dict[int, int]], cols: list[dict[int, int]], i: int, j: int, q: int):
    """``row_i -= q row_j`` on dict rows, a swap when ``q == 0`` and a
    negation when ``i == j``, mirrored in their columns.  With the roles of
    ``rows`` and ``cols`` exchanged it is the column step."""
    ri, rj = rows[i], rows[j]
    if i == j:
        for k in ri:
            ri[k] = cols[k][i] = -ri[k]
    elif q == 0:
        rows[i], rows[j] = rj, ri
        for k in ri.keys() | rj.keys():
            col = cols[k]
            x, y = col.pop(i, 0), col.pop(j, 0)
            if y:
                col[i] = y
            if x:
                col[j] = x
    else:
        for k, y in rj.items():
            x = ri.get(k, 0) - q * y
            if x:
                ri[k] = cols[k][i] = x
            else:
                del ri[k], cols[k][i]


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form ``U @ M @ V == D`` with unimodular transforms.

    Deterministic: the pivot is always the submatrix entry of smallest nonzero
    absolute value, ties broken by lowest row index then lowest column index.
    Only ``M`` is eliminated, on its dict rows and columns; a transform is
    its step log applied to an operand.
    """
    nr, nc = m.rows, m.cols
    a, at = _dict_rows(m)
    row_steps: list[tuple[int, int, int]] = []
    col_steps: list[tuple[int, int, int]] = []

    def row_step(i, j, q):
        row_steps.append((i, j, q))
        _step(a, at, i, j, q)

    def col_step(i, j, q):
        # col_i -= q col_j (a swap when q == 0) is M @ E for the row step (j, i, q)
        col_steps.append((j, i, q))
        _step(at, a, i, j, q)

    def pivot(t):
        # Rows in order, each at its smallest (|x|, column): a unit there is
        # the entry the rule picks.
        best = None
        for i in range(t, nr):
            if a[i]:
                ax, j = min((abs(x), j) for j, x in a[i].items())
                if ax == 1:
                    return (1, i, j)
                if best is None or ax < best[0]:
                    best = (ax, i, j)
        return best

    t = 0
    while t < min(nr, nc):
        best = pivot(t)
        if best is None:
            break
        while True:
            _, pi, pj = best
            if pi != t:
                row_step(t, pi, 0)
            if pj != t:
                col_step(t, pj, 0)
            if a[t][t] < 0:
                row_step(t, t, 2)  # negate: row_t -= 2 row_t
            p = a[t][t]
            # rows above t and columns left of t are zero off the diagonal
            for i in sorted(at[t].keys() - {t}):
                q = a[i][t] // p
                if q:
                    row_step(i, t, q)
            for j in sorted(a[t].keys() - {t}):
                q = a[t][j] // p
                if q:
                    col_step(j, t, q)
            if len(at[t]) > 1 or len(a[t]) > 1:
                best = pivot(t)  # remainders force a strictly smaller pivot
                continue
            if p == 1:
                break  # every entry is divisible by a unit pivot
            bad_row = next((i for i in range(t + 1, nr) if any(x % p for x in a[i].values())),
                           None)
            if bad_row is None:
                break
            row_step(t, bad_row, -1)  # drag a non-divisible entry into row t
            best = pivot(t)
        t += 1

    pivots = tuple(a[i][i] for i in range(t))  # the nonzero diagonal; all else is zero
    return SNFDecomposition((nr, nc), pivots, tuple(row_steps), tuple(col_steps))


def invariant_factors(m: IntMatrix) -> Vector:
    """``smith_normal_form(m).factors`` without transforms.

    Unit pivots are eliminated first: a unit splits off as a direct summand
    ``(1)``.  The pivot is the unit entry in a shortest row whose column has
    fewest entries, which keeps fill-in low.  The documented Smith routine
    then runs on the core that is left.  Invariant factors are unique, so
    any correct elimination gives the same result.
    """
    rows, cols = _dict_rows(m)
    heap = [(len(r), i) for i, r in enumerate(rows) if r]
    heapify(heap)
    units = 0
    while heap:
        length, i = heappop(heap)
        r = rows[i]
        if len(r) != length:
            continue  # stale: the row was eliminated or changed since
        unit_cols = [j for j, x in r.items() if x == 1 or x == -1]
        if not unit_cols:
            continue  # no unit now; the row is queued again if it changes
        pj = min(unit_cols, key=lambda j: len(cols[j]))
        # row_k -= (r_k[pj] / p) row_i clears column pj; then column steps
        # against the pivot clear row i without touching anything else
        for k in [k for k in cols[pj] if k != i]:
            _step(rows, cols, k, i, rows[k][pj] * r[pj])
            if rows[k]:
                heappush(heap, (len(rows[k]), k))
        for j in r:
            del cols[j][i]
        rows[i] = {}
        units += 1
    core = tuple(tuple(sorted(r.items())) for r in rows if r)  # zero columns change no factor
    return (1,) * units + smith_normal_form(IntMatrix(len(core), m.cols, core)).factors


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular square matrix (via U m V = I, so m^-1 = V U)."""
    if m.rows != m.cols:
        raise PreconditionError("only square matrices can be unimodular")
    snf = smith_normal_form(m)
    if snf.factors != (1,) * m.rows:
        raise PreconditionError("matrix is not unimodular")
    return IntMatrix._computed(snf.v_times(snf.u_times(_unit_columns(m.rows, 0))), m.rows)


def kernel_basis(m: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the lattice ``{x : m @ x == 0}``, the columns of V past the
    rank."""
    return tuple(smith_normal_form(m).kernel_columns())


def solve_integer_system(m: IntMatrix, b: Sequence[int]) -> Optional[Vector]:
    """Solve ``m @ x == b`` over the integers.

    Returns ``None`` when no integer solution exists; otherwise a particular
    solution (``kernel_basis(m)`` generates the rest).  Deterministic for
    fixed input.
    """
    if len(b) != m.rows:
        raise PreconditionError(f"right-hand side length {len(b)} against {m.shape} matrix")
    return smith_normal_form(m).solve(b)


def hermite_normal_form(vectors: Iterable[Sequence[int]], width: int) -> tuple[Vector, ...]:
    """Unique row-style Hermite normal form of the lattice the rows span.

    Zero rows are dropped; pivots are positive; for every pivot, the entries
    of earlier rows in that column lie in ``[0, pivot)``.  Two row sets span
    the same lattice iff their forms are identical.
    """
    rest = [list(v) for v in vectors if any(v)]
    for v in rest:
        if len(v) != width:
            raise ValueError("row width mismatch")
    result: list[list[int]] = []
    for col in range(width):
        carrier = None
        remaining = []
        for r in rest:
            if r[col] == 0:
                remaining.append(r)
                continue
            if carrier is None:
                carrier = r
                continue
            while r[col]:
                q = carrier[col] // r[col]
                if q:
                    for k in range(width):
                        carrier[k] -= q * r[k]
                carrier, r = r, carrier
            if any(r):
                remaining.append(r)
        rest = remaining
        if carrier is None:
            continue
        if carrier[col] < 0:
            carrier = [-x for x in carrier]
        for fixed in result:
            q = fixed[col] // carrier[col]
            if q:
                for k in range(width):
                    fixed[k] -= q * carrier[k]
        result.append(carrier)
    return tuple(tuple(r) for r in result)


def reduce_mod_lattice(vec: Sequence[int], hnf_rows: Sequence[Sequence[int]]) -> Vector:
    """Canonical coset representative of ``vec`` modulo an HNF lattice.

    Scanning rows in pivot order, each pivot coordinate is floored into
    ``[0, pivot)``; the result is the unique such representative, so it is
    invariant under adding lattice elements to ``vec``.
    """
    out = list(vec)
    for row in hnf_rows:
        j = next(i for i, x in enumerate(row) if x)
        q = out[j] // row[j]
        if q:
            for k in range(len(out)):
                out[k] -= q * row[k]
    return tuple(out)


def lattice_member(vec: Sequence[int], hnf_rows: Sequence[Sequence[int]]) -> bool:
    return all(x == 0 for x in reduce_mod_lattice(vec, hnf_rows))
