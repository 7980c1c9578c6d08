"""Dense reference arithmetic for the tests: the product, the Bareiss
determinant, submatrices, and the Smith normal form with its four unimodular
transforms.  The library computes invariant factors by one transform-free
sparse elimination; these are the independent oracles it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from cubeburnside.linalg import Matrix


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """a * b, summed over every entry, zeros included."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in product")
    arows = a.entries
    return Matrix.from_columns(a.rows, b.cols, (
        {i: sum(x * y for x, y in zip(row, bcol)) for i, row in enumerate(arows)}
        for bcol in b.transpose().entries))


def submatrix(m: Matrix, row_idx: list[int], col_idx: list[int]) -> Matrix:
    return Matrix.from_columns(len(row_idx), len(col_idx),
                               ({k: m[i, j] for k, i in enumerate(row_idx)}
                                for j in col_idx))


def det(m: Matrix) -> int:
    """Exact determinant (Bareiss); square matrices only."""
    if m.rows != m.cols:
        raise ValueError("det of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
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
