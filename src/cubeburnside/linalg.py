"""Exact integer matrices stored as sparse columns, and one elimination.

All arithmetic is over Python ints (arbitrary precision), so homology
computations downstream are exact.  Each edge element of a cube functor adds
one ±1 to its totalization, so differentials are as sparse as the functor:
``Matrix`` stores only nonzeros, one ``{row: entry}`` map per column, and has
no second, dense form.  The chain-level checks multiply over nonzeros
(``sparse_product``).  Nothing in the library needs the unimodular
transforms of a Smith normal form: quasi-isomorphism is tested as
acyclicity of the mapping cone.

The elimination is ``cancel_units``, Bar-Natan's Gaussian elimination over
a whole chain complex: it eliminates each generator once per complex.  Its
residue has no unit entry and is a few generators at most on totalized
differentials; ``_core_factors`` reads its invariant factors.  A matrix's
``invariant_factors`` are read the same way off the two-term complex it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Mapping

_Cols = list[dict[int, int]] | dict[int, dict[int, int]]  # {row: entry} maps by column


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


def _clear_column(rows: dict[int, dict[int, int]], cols: _Cols, p: int, q: int) -> list[int]:
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


def _core_factors(residue: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """The invariant factors of the matrix with nonzero rows ``residue``,
    {row: {column: entry}}, as ``cancel_units`` leaves it.  Each step takes
    the entry u at (p, q) of least |entry|, then of least fill-in bound,
    and clears column q against row p.  A remainder left in column q is
    smaller than u, so the next pivot is smaller.  Otherwise column
    operations reduce row p mod u; once u is all that is left of it, |u|
    is recorded and row p and column q are dropped.  The recorded entries
    are made a divisibility chain by (gcd, lcm) steps on pairs."""
    rows = {i: dict(r) for i, r in residue.items()}
    cols: dict[int, dict[int, int]] = {}
    for i, r in rows.items():
        for j, x in r.items():
            cols.setdefault(j, {})[i] = x
    units = 0
    factors: list[int] = []
    while rows:
        *_, p, q = min((abs(x), (len(r) - 1) * (len(cols[j]) - 1), i, j)
                       for i, r in rows.items() for j, x in r.items())
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


def _cheapest_unit(r: dict[int, int], cols: list[dict[int, int]]) -> tuple[int, int] | None:
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


def cancel_units(diffs: Mapping[int, Matrix],
                 ) -> tuple[dict[int, set[int]], dict[int, dict[int, dict[int, int]]]]:
    """Bar-Natan's Gaussian elimination over the chain complex with
    differentials ``diffs``, d_d: C_d -> C_{d-1}, which must compose to zero
    (*Fast Khovanov homology computations*, arXiv:math/0606318).

    A unit of d_d at row b' and column b cancels the pair b, b': d_d becomes
    its Schur complement (``_clear_column``, exact as a // u = a*u), and row
    b of d_{d+1} and column b' of d_{d-1} are deleted.  The result is chain
    homotopy equivalent over Z.  Differentials go in ascending degree, each
    loaded in its turn without the rows its predecessor cancelled, cheapest
    unit first from a lazy min-heap of rows keyed on ``_cheapest_unit``: a
    row whose cost changed goes back under its new cost, and every row a
    pivot touches is pushed again.

    Returns (cancelled, residue): ``cancelled[d]`` the generators of C_d a
    pivot took, and ``residue[d]`` the nonzero rows {b': {b: entry}} left
    of d_d, in the input's indices, on no cancelled generator and with no
    unit entry."""
    cancelled: dict[int, set[int]] = {}
    residue: dict[int, dict[int, dict[int, int]]] = {}
    for d in sorted(diffs):
        gone_rows = cancelled.setdefault(d - 1, set())
        gone_cols = cancelled[d] = set()
        cols = [{i: x for i, x in c.items() if i not in gone_rows} for c in diffs[d].columns]
        rows: dict[int, dict[int, int]] = {}
        for j, c in enumerate(cols):
            for i, x in c.items():
                rows.setdefault(i, {})[j] = x
        heap = [(cheapest[0], i) for i, r in rows.items()
                if (cheapest := _cheapest_unit(r, cols))]
        heapify(heap)
        while heap:
            cost, p = heappop(heap)
            prow = rows.get(p)
            cheapest = _cheapest_unit(prow, cols) if prow else None
            if cheapest is None:
                continue
            if cheapest[0] != cost:
                heappush(heap, (cheapest[0], p))
                continue
            gone_rows.add(p)
            gone_cols.add(cheapest[1])
            for i in _clear_column(rows, cols, p, cheapest[1]):
                cheapest = _cheapest_unit(rows[i], cols)
                if cheapest:
                    heappush(heap, (cheapest[0], i))
            for j in prow:
                del cols[j][p]
            del rows[p]
        residue[d] = rows
    for d, rows in residue.items():  # the columns d_{d+1}'s pivots deleted
        gone = cancelled[d]
        residue[d] = {i: kept for i, r in rows.items()
                      if (kept := {j: x for j, x in r.items() if j not in gone})}
    return cancelled, residue


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``m``, d1 | d2 | ..., those of its
    Smith normal form: a factor 1 for each pivot of ``cancel_units`` on the
    two-term complex {1: m}, then ``_core_factors`` of its residue."""
    cancelled, residue = cancel_units({1: m})
    return (1,) * len(cancelled[1]) + _core_factors(residue[1])
