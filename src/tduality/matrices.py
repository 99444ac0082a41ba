"""Exact integer matrices, Smith and Hermite normal forms, lattice utilities.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  Intermediate entries of a Smith reduction can exceed
machine words even for small inputs, so fixed-width integer types are not an
option.

Conventions:

* Matrices act on column vectors; ``m @ v`` is matrix-vector application.
* ``smith_normal_form`` returns ``U, D, V`` with ``U @ M @ V == D``, both
  transforms unimodular, ``D`` diagonal with a divisibility chain
  ``d1 | d2 | ...`` and nonnegative entries.  The pivot rule (smallest nonzero
  absolute value, ties broken by lowest row then lowest column index) is fixed
  so decompositions are deterministic.  The pivot search stops at the first
  entry of absolute value 1 in row-major order, which is the entry the rule
  picks, so the early exit leaves the decomposition unchanged.
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
  off unit pivots on dict rows of the nonzeros, choosing each to limit
  fill-in (Kaczynski-Mrozek-Slusarek; Dumas-Saunders-Villard), and runs
  ``smith_normal_form`` only on the dense core left.  It logs no step and
  keeps no transform.  Invariant factors are unique, so the result is that of
  the full elimination whatever the pivot order.  Only shapes use it: a
  presentation's generators are read off the transforms, and another pivot
  order would print other generators.
* Structural maps and assembled coboundaries are built from three
  constructors: ``IntMatrix.eye(rows, cols, offset)``, ones at
  ``(i, i + offset)``, ``IntMatrix.block_diag(blocks)``, the blocks along
  the diagonal, and ``IntMatrix.from_blocks``, a grid of blocks (the
  coboundaries of cones and tensor products).
* Products skip zeros: ``a @ b`` adds ``a[i][k] * (row k of b)`` only where
  ``a[i][k] != 0``, and only at that row's nonzero columns, so a structural
  map or a coboundary costs what its nonzeros cost.  ``m @ v`` adds
  ``m[i][k] * v[k]`` only where ``v[k] != 0``, at the rows where column ``k``
  is nonzero.  The arithmetic is exact, so each result equals the dense sum.
* The two layouts these read, the nonzero columns of each row and the
  nonzero rows of each column, are built on first use and kept in the
  instance ``__dict__`` by ``kept``, a ``functools.cached_property``
  without the per-instance lock it takes before Python 3.12; a later read
  finds the value there and calls nothing.  Neither is a field, so
  equality, ``repr`` and pickling ignore them; each costs one index per
  nonzero entry.
* Cache keys hash once: ``IntMatrix``, and through ``hash_once`` the complexes,
  cochain maps and Euler models that key the ``lru_cache`` lookups, keep the
  dataclass default hash after its first computation.
* Entry types are checked where outside input enters, in
  ``IntMatrix.from_rows``, which in the engine only ``dsl`` calls.  Every
  result the engine computes itself (Smith's ``D``, presentations, induced
  matrices, cup operators, coboundaries) goes through the private
  ``IntMatrix._computed``, which keeps the shape checks only, or through the
  integer constructors.
* Lattices are handled through a unique row-style Hermite normal form:
  positive pivots, entries in the pivot column of earlier rows reduced into
  ``[0, pivot)``, rows ordered by pivot column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import PreconditionError

Vector = tuple[int, ...]


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


class kept:
    """``functools.cached_property`` without its lock: the first read stores
    the value in the instance ``__dict__`` under the attribute's name, where
    every later read finds it before this non-data descriptor."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@hash_once
@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = tuple(tuple(row) for row in rows)
        for row in data:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be integers, got {type(x).__name__}")
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return IntMatrix(len(data), width, data)

    @staticmethod
    def _computed(rows: Iterable[Iterable[int]], cols: int) -> "IntMatrix":
        """``from_rows`` without the entry type scan, for rows of integers the
        engine computed itself."""
        data = tuple(map(tuple, rows))
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def eye(rows: int, cols: int, offset: int) -> "IntMatrix":
        """Ones at ``(i, i + offset)`` where that lies inside, zeros elsewhere."""
        zero = (0,) * cols
        return IntMatrix(rows, cols, tuple(
            zero[:j] + (1,) + zero[j + 1:] if 0 <= j < cols else zero
            for j in range(offset, rows + offset)
        ))

    @staticmethod
    def block_diag(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """The blocks along the diagonal, zeros elsewhere; any block may be empty."""
        cols = sum(b.cols for b in blocks)
        rows: list[tuple[int, ...]] = []
        left = 0
        for b in blocks:
            rows += [(0,) * left + row + (0,) * (cols - left - b.cols) for row in b.entries]
            left += b.cols
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def column(vec: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple((int(x),) for x in vec))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
            # Each nonzero a = row[k] adds a * (right row k), at that row's
            # nonzero columns only, so the cost follows the nonzeros.
            right = other.entries
            support = other._row_cols
            out = []
            for row, nonzero in zip(self.entries, self._row_cols):
                acc = [0] * other.cols
                for k in nonzero:
                    a, r = row[k], right[k]
                    for j in support[k]:
                        acc[j] += a * r[j]
                out.append(tuple(acc))
            return IntMatrix(self.rows, other.cols, tuple(out))
        return self.apply(other)

    @kept
    def _row_cols(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the columns holding a nonzero entry."""
        cols = range(self.cols)
        return tuple(tuple(compress(cols, row)) for row in self.entries)

    @kept
    def _col_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per column, the rows holding a nonzero entry."""
        rows = range(self.rows)
        return tuple(tuple(compress(rows, col)) for col in zip(*self.entries))

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} against {self.shape} matrix")
        entries = self.entries
        if not entries:
            return ()
        layout = self._col_rows
        acc = [0] * self.rows
        for k, x in enumerate(vec):
            if x:
                for i in layout[k]:
                    acc[i] += entries[i][k] * x
        return tuple(acc)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def scale(self, c: int) -> "IntMatrix":
        if c == 1:
            return self
        return IntMatrix(
            self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries)
        )

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        """Assemble a block matrix; each block row must have uniform height."""
        rows: list[tuple[int, ...]] = []
        for block_row in blocks:
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ValueError("ragged block row")
            rows += [sum(parts, ()) for parts in zip(*(b.entries for b in block_row))]
        width = sum(b.cols for b in blocks[0]) if blocks else 0
        return IntMatrix._computed(rows, width)


def _apply_step(rows: list[list[int]], i: int, j: int, q: int) -> None:
    """``row_i -= q row_j`` in place; a swap when ``q == 0``, a negation
    when ``i == j``."""
    if i == j:
        rows[i] = [-x for x in rows[i]]
    elif q == 0:
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]


def _apply_steps(rows: list[list[int]], steps: Iterable[tuple[int, int, int]]) -> list[list[int]]:
    """The logged row steps applied in order to ``rows`` in place; returns
    ``rows``."""
    for i, j, q in steps:
        _apply_step(rows, i, j, q)
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
        blocks = [IntMatrix.column((f,)) for f in self.factors]
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


def smith_normal_form(m: IntMatrix) -> SNFDecomposition:
    """Smith normal form ``U @ M @ V == D`` with unimodular transforms.

    Deterministic: the pivot is always the submatrix entry of smallest nonzero
    absolute value, ties broken by lowest row index then lowest column index.
    Only ``M`` is eliminated; a transform is its step log applied to an
    operand.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    row_steps: list[tuple[int, int, int]] = []
    col_steps: list[tuple[int, int, int]] = []

    def row_step(i, j, q):
        row_steps.append((i, j, q))
        _apply_step(a, i, j, q)

    def col_step(i, j, q):
        # col_i -= q col_j (a swap when q == 0) is M @ E for the row step (j, i, q)
        col_steps.append((j, i, q))
        if q == 0:
            for r in a:
                r[i], r[j] = r[j], r[i]
        else:
            for r in a:
                r[i] -= q * r[j]

    def pivot(t):
        # Row-major scan: the first unit entry is the one the rule picks.
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x:
                    ax = abs(x)
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
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    row_step(i, t, q)
            for j in range(t + 1, nc):
                q = a[t][j] // p
                if q:
                    col_step(j, t, q)
            if any(a[i][t] for i in range(t + 1, nr)) or any(
                a[t][j] for j in range(t + 1, nc)
            ):
                best = pivot(t)  # remainders force a strictly smaller pivot
                continue
            if p == 1:
                break  # every entry is divisible by a unit pivot
            bad_row = None
            for i in range(t + 1, nr):
                if any(a[i][j] % p for j in range(t + 1, nc)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            row_step(t, bad_row, -1)  # drag a non-divisible entry into row t
            best = pivot(t)
        t += 1

    pivots = tuple(a[i][i] for i in range(t))  # the nonzero diagonal; all else is zero
    return SNFDecomposition((nr, nc), pivots, tuple(row_steps), tuple(col_steps))


def invariant_factors(m: IntMatrix) -> Vector:
    """``smith_normal_form(m).factors`` without transforms.

    Unit pivots are eliminated on dict rows of the nonzeros first: a unit
    splits off as a direct summand ``(1)``.  The pivot is the unit entry in
    a shortest row whose column has fewest entries, which keeps fill-in
    low.  The documented Smith routine then runs on the dense core that is
    left.  Invariant factors are unique, so any correct elimination gives
    the same result.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    indices = list(range(m.cols))
    for i, row in enumerate(m.entries):
        r = {j: row[j] for j in compress(indices, row)}
        if r:
            rows[i] = r
            for j in r:
                cols.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in rows.items()]
    heapify(heap)
    units = 0
    while heap:
        length, i = heappop(heap)
        r = rows.get(i)
        if r is None or len(r) != length:
            continue  # stale: the row was eliminated or changed since
        unit_cols = [j for j, x in r.items() if x == 1 or x == -1]
        if not unit_cols:
            continue  # no unit now; the row is queued again if it changes
        pj = min(unit_cols, key=lambda j: len(cols[j]))
        del rows[i]
        for j in r:
            cols[j].discard(i)
        # row_k -= (r_k[pj] / p) row_i clears column pj; then column steps
        # against the pivot clear row i without touching anything else
        p = r[pj]
        for k in cols.pop(pj):
            rk = rows[k]
            q = rk[pj] * p
            for j, x in r.items():
                y = rk.get(j, 0) - q * x
                if y:
                    if j not in rk:
                        cols[j].add(k)
                    rk[j] = y
                else:
                    del rk[j]
                    if j != pj:
                        cols[j].discard(k)
            if rk:
                heappush(heap, (len(rk), k))
            else:
                del rows[k]
        units += 1
    core_cols = sorted({j for r in rows.values() for j in r})
    if not core_cols:
        return (1,) * units
    core = IntMatrix._computed(
        ([r.get(j, 0) for j in core_cols] for _, r in sorted(rows.items())), len(core_cols)
    )
    return (1,) * units + smith_normal_form(core).factors


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
