"""Exact integer matrices stored as sparse columns, and their invariant factors.

All arithmetic is over Python ints (arbitrary precision), so homology
computations downstream are exact.  Each edge element of a cube functor adds
one ±1 to its totalization, so differentials are as sparse as the functor:
``Matrix`` stores only nonzeros, one ``{row: entry}`` map per column, and has
no second, dense form.  The chain-level checks multiply over nonzeros
(``sparse_product``), and homology reads the invariant factors off one
elimination that tracks no transforms (``invariant_factors``).  Nothing in
the library needs the unimodular transforms of a Smith normal form:
quasi-isomorphism is tested as acyclicity of the mapping cone.

The elimination runs in two phases.  Phase 1 takes unit pivots, cheapest
fill-in first, from a lazy heap; a unit pivot needs no reduction mod the
pivot, so its row and column are dropped as soon as its column is cleared.
Phase 2 takes what is left, a core without unit entries that is a few rows
at most on totalized differentials, by least |entry| and a gcd/lcm fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Mapping


@dataclass(frozen=True, slots=True)
class Matrix:
    """Integer matrix; ``columns[j]`` maps each row of a nonzero entry of
    column j to that entry.  Build it with ``from_columns`` (or the
    constructors on top of it), which drops zeros, so two equal matrices
    store equal columns."""

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    @staticmethod
    def from_columns(rows: int, cols: int,
                     columns: Iterable[Mapping[int, int]]) -> "Matrix":
        out = tuple({i: x for i, x in c.items() if x} for c in columns)
        if len(out) != cols:
            raise ValueError("column count mismatch")
        for c in out:
            if c and not (0 <= min(c) and max(c) < rows):
                raise ValueError("row index out of range")
        return Matrix(rows, cols, out)

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("column count mismatch")
        return Matrix.from_columns(r, c, ({i: int(row[j]) for i, row in enumerate(rows)}
                                          for j in range(c)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple({} for _ in range(cols)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple({j: 1} for j in range(n)))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense row tuples, built on each access; nothing stores them."""
        return tuple(tuple(c.get(i, 0) for c in self.columns) for i in range(self.rows))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.columns[j].get(i, 0)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple({i: -x for i, x in c.items()} for c in self.columns))

    def transpose(self) -> "Matrix":
        out: tuple[dict[int, int], ...] = tuple({} for _ in range(self.rows))
        for j, c in enumerate(self.columns):
            for i, x in c.items():
                out[i][j] = x
        return Matrix(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.columns)


def sparse_product(a: Matrix, b: Matrix) -> list[dict[int, int]]:
    """The columns of a * b as {row: nonzero entry}, summed over the
    nonzeros of both factors only.

    Two products are equal exactly when these lists are equal, and a
    product is zero exactly when every column is empty."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in product")
    acols = a.columns
    out = []
    for bcol in b.columns:
        acc: dict[int, int] = {}
        for k, y in bcol.items():
            for i, x in acols[k].items():
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: x for i, x in acc.items() if x})
    return out


def _pivot(rows: dict[int, dict[int, int]],
           cols: list[dict[int, int]]) -> tuple[int, int]:
    """The entry of least |entry|, ties broken by the least fill-in bound
    (row nnz - 1)(col nnz - 1); so the cheapest unit while one is left."""
    best, best_size, best_cost = None, 0, 0
    for i, r in rows.items():
        row_cost = len(r) - 1
        for j, x in r.items():
            size = x if x > 0 else -x
            if best is not None and size > best_size:
                continue
            cost = row_cost * (len(cols[j]) - 1)
            if best is None or size < best_size or cost < best_cost:
                if size == 1 and cost == 0:
                    return i, j
                best, best_size, best_cost = (i, j), size, cost
    return best


def _clear_column(rows: dict[int, dict[int, int]], cols: list[dict[int, int]],
                  p: int, q: int) -> list[int]:
    """Subtract (a // u) times row p from every other row with an entry a
    in column q, u the entry at (p, q); return the rows left nonempty."""
    prow = rows[p]
    u = prow[q]
    touched = []
    for i, a in list(cols[q].items()):
        if i == p:
            continue
        f = a // u
        r = rows[i]
        for j, x in prow.items():
            y = r.get(j, 0) - f * x
            if y:
                r[j] = y
                cols[j][i] = y
            else:
                del r[j]
                del cols[j][i]
        if r:
            touched.append(i)
        else:
            del rows[i]
    return touched


def _core_factors(rows: dict[int, dict[int, int]],
                  cols: list[dict[int, int]]) -> tuple[int, ...]:
    """The invariant factors of what phase 1 leaves: the least-|entry|
    elimination, then the gcd/lcm fold.

    Each step takes the pivot u at (p, q) chosen by ``_pivot`` and clears
    column q against row p (``_clear_column``).  A remainder left in
    column q is smaller than u, so the next pivot is smaller.  Otherwise
    column q is u at row p alone, so column operations change row p only,
    and reduce it mod u; once u is all that is left of row p, |u| is
    recorded and row p and column q are dropped.  The recorded entries are
    diagonal but need not divide one another, so pairs are replaced by
    their (gcd, lcm) until they do."""
    units = 0
    factors: list[int] = []
    while rows:
        p, q = _pivot(rows, cols)
        prow = rows[p]
        u = prow[q]
        _clear_column(rows, cols, p, q)
        if len(cols[q]) > 1:
            continue
        for j in [j for j in prow if j != q]:
            y = prow[j] % u
            if y:
                prow[j] = y
                cols[j][p] = y
            else:
                del prow[j]
                del cols[j][p]
        if len(prow) > 1:
            continue
        del rows[p]
        cols[q].clear()
        if u == 1 or u == -1:
            units += 1
        else:
            factors.append(abs(u))
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
    return (1,) * units + tuple(factors)


def _cheapest_unit(r: dict[int, int],
                   cols: list[dict[int, int]]) -> tuple[int, int] | None:
    """(cost, column) of the unit of row r with the least fill-in bound
    (row nnz - 1)(col nnz - 1), or None if r holds no unit."""
    row_cost = len(r) - 1
    best = None
    for j, x in r.items():
        if x == 1 or x == -1:
            cost = row_cost * (len(cols[j]) - 1)
            if best is None or cost < best[0]:
                if cost == 0:
                    return 0, j
                best = cost, j
    return best


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``m``, d1 | d2 | ..., those of its
    Smith normal form.

    One sparse elimination that tracks no transforms, in two phases.

    Phase 1 is Bar-Natan's Gaussian elimination on unit pivots, cheapest
    first by the fill-in bound (row nnz - 1)(col nnz - 1).  A lazy min-heap
    holds each row under the cost of its cheapest unit (``_cheapest_unit``),
    so no pivot rescans the matrix: a popped row whose cost has changed
    goes back under its current cost, and every row an elimination touches
    is pushed again.  For a unit pivot u at (p, q), ``_clear_column``
    leaves u alone in column q, since a // u = a*u is exact.  Column
    operations by u then clear the rest of row p and change no other row,
    and since u divides everything they need no reduction mod u: row p and
    column q are dropped outright, and one factor 1 is counted.

    Phase 2 hands the core that is left, rows without a unit entry, to the
    least-|entry| elimination and gcd/lcm fold of ``_core_factors``.  On
    totalized differentials that core is a few rows at most.
    """
    cols = [dict(c) for c in m.columns]
    rows: dict[int, dict[int, int]] = {}
    for j, c in enumerate(cols):
        for i, x in c.items():
            rows.setdefault(i, {})[j] = x
    heap = []
    for i, r in rows.items():
        cheapest = _cheapest_unit(r, cols)
        if cheapest:
            heap.append((cheapest[0], i))
    heapify(heap)
    units = 0
    while heap:
        cost, p = heappop(heap)
        prow = rows.get(p)
        cheapest = _cheapest_unit(prow, cols) if prow else None
        if cheapest is None:
            continue
        if cheapest[0] != cost:
            heappush(heap, (cheapest[0], p))
            continue
        for i in _clear_column(rows, cols, p, cheapest[1]):
            cheapest = _cheapest_unit(rows[i], cols)
            if cheapest:
                heappush(heap, (cheapest[0], i))
        for j in prow:
            del cols[j][p]
        del rows[p]
        units += 1
    return (1,) * units + _core_factors(rows, cols)
