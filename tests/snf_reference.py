"""Reference arithmetic for the tests: the dense product, the Bareiss
determinant, submatrices, the Smith normal form with its four unimodular
transforms, and the per-matrix homology route.  The library reads homology
off one cancellation over the whole complex; these are the independent
oracles it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from cubeburnside.linalg import Matrix
from cubeburnside.totalization import ChainComplex, HomologyGroup


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


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


class _Elimination:
    """a = u * m * v with u, v unimodular and their inverses kept exact.

    Every step is a unimodular 2x2 operation on two rows; a column step is
    a row step on the transpose, which swaps the roles of u and v."""

    def __init__(self, m: Matrix):
        def eye(n):
            return [[int(i == j) for j in range(n)] for i in range(n)]
        self.a = [list(row) for row in m.entries]
        self.u, self.ui = eye(m.rows), eye(m.rows)
        self.v, self.vi = eye(m.cols), eye(m.cols)
        self.ncols = m.cols

    def rows(self, i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """(row i, row j) <- (p row i + q row j, r row i + s row j)."""
        for mat in (self.a, self.u):
            x, y = mat[i], mat[j]
            mat[i] = [p * e + q * f for e, f in zip(x, y)]
            mat[j] = [r * e + s * f for e, f in zip(x, y)]
        det = p * s - q * r
        for row in self.ui:
            x, y = row[i], row[j]
            row[i], row[j] = det * (s * x - r * y), det * (p * y - q * x)

    def cols(self, i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """(column i, column j) <- (p col i + q col j, r col i + s col j)."""
        self.transpose()
        self.rows(i, j, p, q, r, s)
        self.transpose()

    def negate(self, i: int) -> None:
        self.a[i] = [-e for e in self.a[i]]
        self.u[i] = [-e for e in self.u[i]]
        for row in self.ui:
            row[i] = -row[i]

    def transpose(self) -> None:
        def t(mat, n):
            return [list(col) for col in zip(*mat)] if mat else [[] for _ in range(n)]
        self.a = t(self.a, self.ncols)
        self.ncols = len(self.u)
        self.u, self.v = t(self.v, 0), t(self.u, 0)
        self.ui, self.vi = t(self.vi, 0), t(self.ui, 0)

    def row_hermite(self) -> None:
        """Row Hermite form, one row inserted at a time (Kannan-Bachem).

        Rows [0, k) are the basis: leading columns ``lead`` increasing,
        leading entries positive, and every entry above a leading entry
        reduced into [0, leading entry).  Row i is cleared against the basis
        by gcd steps and joins it if anything is left; the basis is reduced
        again after each insertion, so no entry outgrows the lattice the
        rows span."""
        a = self.a
        lead: list[int] = []
        for i in range(len(a)):
            while True:
                c = next((c for c, x in enumerate(a[i]) if x), None)
                if c is None:
                    break
                if c in lead:
                    b = lead.index(c)
                    g, s, t = _ext_gcd(a[b][c], a[i][c])
                    self.rows(b, i, s, t, -a[i][c] // g, a[b][c] // g)
                    continue
                k = len(lead)
                if i != k:
                    self.rows(k, i, 0, 1, 1, 0)
                while k and lead[k - 1] > c:
                    self.rows(k - 1, k, 0, 1, 1, 0)
                    k -= 1
                lead.insert(k, c)
                break
            for b, c in enumerate(lead):
                if a[b][c] < 0:
                    self.negate(b)
                for j in range(b):
                    q = a[j][c] // a[b][c]
                    if q:
                        self.rows(j, b, 1, -q, 0, 1)

    def is_diagonal(self) -> bool:
        return all(not x or i == j
                   for i, row in enumerate(self.a) for j, x in enumerate(row))


def smith_normal_form(m: Matrix) -> SmithForm:
    """Diagonalize by unimodular row/column operations, with transforms.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan-Bachem, SIAM J. Comput. 1979).  Each keeps every entry above a
    leading entry reduced mod that leading entry, and leading entries
    divide minors of ``m``, so the matrix cannot grow the way a plain
    least-entry elimination does: that one reached entries of 50,000 bits
    on a 27x54 differential with entries of at most 3.  The diagonal is
    then made a divisibility chain by replacing pairs with (gcd, lcm).
    """
    e = _Elimination(m)
    while True:
        e.row_hermite()
        e.transpose()
        e.row_hermite()
        e.transpose()
        if e.is_diagonal():
            break
    rank = sum(1 for i in range(min(m.rows, m.cols)) if e.a[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = e.a[i][i], e.a[j][j]
            if dj % di:
                # column i += column j, a gcd step on rows i and j, then
                # clear row i at column j: diag(di, dj) becomes (gcd, lcm)
                e.cols(i, j, 1, 1, 0, 1)
                g, s, t = _ext_gcd(di, dj)
                e.rows(i, j, s, t, -dj // g, di // g)
                e.cols(j, i, 1, -t * dj // g, 0, 1)

    def dense(rows, r=0, c=0):
        return Matrix.from_rows(rows) if rows else Matrix.zero(r, c)
    return SmithForm(dense(e.a, m.rows, m.cols), dense(e.u), dense(e.v),
                     dense(e.ui), dense(e.vi))


# -- the per-matrix homology route ----------------------------------------------
#
# Homology from the invariant factors of each differential on its own, each
# found by a sparse elimination of its own: unit pivots first, cheapest
# fill-in first from a lazy heap, then a least-|entry| elimination and a
# gcd/lcm fold of the non-unit core.  Every generator goes through two
# eliminations, as a column of d_d and as a row of d_{d+1}.  It shares no
# code with the library's kernel, and is fast enough for 10-crossing blocks.

def _pivot(rows, cols):
    """The entry of least |entry|, ties broken by the least fill-in bound."""
    best, best_size, best_cost = None, 0, 0
    for i, r in rows.items():
        row_cost = len(r) - 1
        for j, x in r.items():
            size = abs(x)
            if best is not None and size > best_size:
                continue
            cost = row_cost * (len(cols[j]) - 1)
            if best is None or size < best_size or cost < best_cost:
                best, best_size, best_cost = (i, j), size, cost
    return best


def _clear_column(rows, cols, p, q):
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


def _core_factors(rows, cols):
    units = 0
    factors = []
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
        if abs(u) == 1:
            units += 1
        else:
            factors.append(abs(u))
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
    return (1,) * units + tuple(factors)


def _cheapest_unit(r, cols):
    row_cost = len(r) - 1
    best = None
    for j, x in r.items():
        if abs(x) == 1:
            cost = row_cost * (len(cols[j]) - 1)
            if best is None or cost < best[0]:
                best = cost, j
    return best


def per_matrix_invariant_factors(m: Matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of ``m`` by one elimination of m alone."""
    cols = [dict(c) for c in m.columns]
    rows: dict[int, dict[int, int]] = {}
    for j, c in enumerate(cols):
        for i, x in c.items():
            rows.setdefault(i, {})[j] = x
    heap = [(cheapest[0], i) for i, r in rows.items()
            if (cheapest := _cheapest_unit(r, cols))]
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


def per_matrix_homology(c: ChainComplex, invariant_factors=per_matrix_invariant_factors,
                        ) -> dict[int, HomologyGroup]:
    """H_d of rank dim C_d - rk d_d - rk d_{d+1} and torsion the factors of
    d_{d+1} greater than 1, from the ``invariant_factors`` of each
    differential on its own."""
    factors = {d: invariant_factors(m) for d, m in c.diffs.items()}
    out = {}
    for d in c.degrees():
        outgoing, incoming = factors.get(d, ()), factors.get(d + 1, ())
        out[d] = HomologyGroup(d, c.dim(d) - len(outgoing) - len(incoming),
                               tuple(x for x in incoming if x > 1))
    return out
