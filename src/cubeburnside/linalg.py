"""Exact integer matrices, Smith normal form and sparse kernels.

All arithmetic is over Python ints (arbitrary precision), so homology
computations downstream are exact.  ``Matrix`` is stored dense, but the
differentials of totalized cube functors are almost all zero with ±1
entries, so the chain-level checks multiply over nonzeros only
(``sparse_product``) and homology reads invariant factors after cancelling
unit pivots (``invariant_factors``); the full ``smith_normal_form``, which
tracks unimodular transforms, runs only on the dense core that is left.
This is the one homology path: quasi-isomorphism is tested as acyclicity
of the mapping cone, so nothing in the library needs the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Matrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return Matrix(r, c, tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        ot = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            out.append([sum(a * b for a, b in zip(row, col)) for col in ot]
                       if ot else [0] * other.cols)
        return Matrix.from_rows(out) if out else Matrix.zero(0, other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sum")
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(tuple(-a for a in row) for row in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else
                      tuple(() for _ in range(self.cols)))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "Matrix":
        return Matrix(len(row_idx), len(col_idx),
                      tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def det(self) -> int:
        """Exact determinant (Bareiss); square matrices only."""
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """D = U * M * V with U, V unimodular and D diagonal, d1 | d2 | ...

    ``u_inv`` and ``v_inv`` are the exact inverses of ``u`` and ``v``.
    """

    d: Matrix
    u: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x != 0)


def smith_normal_form(m: Matrix) -> SmithForm:
    """Diagonalize by unimodular row/column operations.

    Pivoting by least absolute value keeps intermediate entries small for
    the sparse ±1/±2 matrices that dominate this package.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    ui = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    vi = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row i += c * row j; inverse: column j of ui gets -c * column i
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= c * r[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def col_add(i, j, c):
        # col i += c * col j; inverse: row j of vi gets -c * row i
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vi[j] = [x - c * y for x, y in zip(vi[j], vi[i])]

    def col_negate(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]
        vi[i] = [-x for x in vi[i]]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # least-|entry| pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_negate(t)
        # clear row and column t; restart if a remainder shrinks the pivot
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_negate(t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        if a[t][t] < 0:
                            col_negate(t)
                        dirty = True
                        break
            if not dirty:
                break
        t += 1

    # enforce divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di == 0 and dj != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True
                continue
            if di != 0 and dj % di != 0:
                # fold d_{i+1} into position (i, i) via gcd
                col_add(i, i + 1, 1)
                while True:
                    p = a[i][i]
                    q2 = a[i + 1][i] // p if p else 0
                    row_add(i + 1, i, -q2)
                    if a[i + 1][i] != 0:
                        row_swap(i, i + 1)
                        if a[i][i] < 0:
                            row_negate(i)
                        continue
                    q3 = a[i][i + 1] // a[i][i]
                    col_add(i + 1, i, -q3)
                    if a[i][i + 1] != 0:
                        col_swap(i, i + 1)
                        if a[i][i] < 0:
                            col_negate(i)
                        continue
                    break
                changed = True
        for i in range(limit):
            if a[i][i] < 0:
                row_negate(i)

    return SmithForm(Matrix.from_rows(a) if a else Matrix.zero(nr, nc),
                     Matrix.from_rows(u) if u else Matrix.zero(0, 0),
                     Matrix.from_rows(v) if v else Matrix.zero(0, 0),
                     Matrix.from_rows(ui) if ui else Matrix.zero(0, 0),
                     Matrix.from_rows(vi) if vi else Matrix.zero(0, 0))


def _sparse_columns(m: Matrix) -> list[dict[int, int]]:
    """The nonzeros of each column of ``m`` as {row: entry}."""
    cols: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def sparse_product(a: Matrix, b: Matrix) -> list[dict[int, int]]:
    """The columns of a * b as {row: nonzero entry}, summed over the
    nonzeros of both factors only.

    Two products are equal exactly when these lists are equal, and a
    product is zero exactly when every column is empty."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in product")
    acols = _sparse_columns(a)
    out = []
    for bcol in _sparse_columns(b):
        acc: dict[int, int] = {}
        for k, y in bcol.items():
            for i, x in acols[k].items():
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: x for i, x in acc.items() if x})
    return out


def _cheapest_unit(rows: dict[int, dict[int, int]],
                   cols: dict[int, dict[int, int]]) -> tuple[int, int] | None:
    """The ±1 entry with the least (row nnz - 1)(col nnz - 1), or None."""
    best, best_cost = None, 0
    for i, r in rows.items():
        row_cost = len(r) - 1
        for j, x in r.items():
            if x == 1 or x == -1:
                cost = row_cost * (len(cols[j]) - 1)
                if cost == 0:
                    return i, j
                if best is None or cost < best_cost:
                    best, best_cost = (i, j), cost
    return best


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``m``, d1 | d2 | ..., the same as
    ``smith_normal_form(m).invariant_factors``.

    Unit pivots are cancelled first by sparse row and column elimination,
    the matrix form of Bar-Natan's Gaussian elimination: each step takes
    the ±1 entry with the least fill-in bound (row nnz - 1)(col nnz - 1),
    clears its column by row operations, and then drops its row and
    column, which contributes a factor 1.  ``smith_normal_form`` runs on
    the dense core that is left.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(m.entries):
        r = {j: x for j, x in enumerate(row) if x}
        if r:
            rows[i] = r
            for j, x in r.items():
                cols.setdefault(j, {})[i] = x
    units = 0
    while (pivot := _cheapest_unit(rows, cols)) is not None:
        p, q = pivot
        prow = rows.pop(p)
        u = prow.pop(q)
        pcol = cols.pop(q)
        del pcol[p]
        for j in prow:
            del cols[j][p]
        # row i -= (a / u) * row p clears column q; as u = ±1, a / u = a * u
        for i, a in pcol.items():
            r = rows[i]
            del r[q]
            f = a * u
            for j, x in prow.items():
                y = r.get(j, 0) - f * x
                if y:
                    r[j] = y
                    cols[j][i] = y
                else:
                    del r[j]
                    del cols[j][i]
            if not r:
                del rows[i]
        for j in prow:
            if not cols[j]:
                del cols[j]
        units += 1
    if not rows:
        return (1,) * units
    core = Matrix.from_rows([[rows[i].get(j, 0) for j in sorted(cols)] for i in sorted(rows)])
    return (1,) * units + smith_normal_form(core).invariant_factors
