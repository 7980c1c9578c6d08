"""Chain complexes of finitely generated free abelian groups, their exact
integral homology, and the totalization of cube functors.

Homological (lower) grading throughout; dualizing negates degrees.  The
generator of a functor's totalization sitting over vertex v at set element x
is labeled "<bits(v)>|<x>" and placed in degree |v| + shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from . import cube
from .cube import FaceInclusion, Vertex
from .errors import InputError, InternalInvariantError
from .functor import CubeFunctorData, NaturalTransformation, StableFunctor
from .linalg import (Matrix, _core_factors, cancel_units, invariant_factors, product_columns,
                     sparse_product)


@dataclass(frozen=True, slots=True)
class ChainComplex:
    """Per-degree ordered bases and differentials d: C_d -> C_{d-1}.

    Normalized: only nonempty degrees appear, and a differential (possibly
    zero) is stored exactly for each adjacent pair of present degrees.
    Every construction checks d∘d = 0, ``build`` or direct alike.
    """

    basis: dict[int, tuple[str, ...]]
    diffs: dict[int, Matrix]

    def __post_init__(self):
        for d, m in self.diffs.items():
            if d - 1 in self.diffs and any(product_columns(self.diffs[d - 1], m)):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {d}")

    @staticmethod
    def build(basis: Mapping[int, tuple[str, ...]],
              diffs: Mapping[int, Matrix]) -> "ChainComplex":
        bs = {d: tuple(b) for d, b in basis.items() if len(b) > 0}
        ds: dict[int, Matrix] = {}
        for d in bs:
            if d - 1 in bs:
                m = diffs.get(d)
                if m is None:
                    m = Matrix.zero(len(bs[d - 1]), len(bs[d]))
                if (m.rows, m.cols) != (len(bs[d - 1]), len(bs[d])):
                    raise InputError(f"differential at degree {d} has wrong shape")
                ds[d] = m
        for d, m in diffs.items():
            if d not in ds and not m.is_zero():
                raise InputError(f"nonzero differential at degree {d} without groups")
        return ChainComplex(bs, ds)

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def diff(self, d: int) -> Matrix:
        if d in self.diffs:
            return self.diffs[d]
        return Matrix.zero(self.dim(d - 1), self.dim(d))


@dataclass(frozen=True, slots=True)
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    matrices: dict[int, Matrix]

    @staticmethod
    def build(source: ChainComplex, target: ChainComplex,
              matrices: Mapping[int, Matrix]) -> "ChainMap":
        ms = {}
        for d in set(source.basis) | set(matrices):
            m = matrices.get(d)
            if m is None:
                m = Matrix.zero(target.dim(d), source.dim(d))
            if (m.rows, m.cols) != (target.dim(d), source.dim(d)):
                raise InputError(f"chain map matrix at degree {d} has wrong shape")
            if m.rows and m.cols:
                ms[d] = m
            elif not m.is_zero():
                raise InputError(f"nonzero map at empty degree {d}")
        f = ChainMap(source, target, ms)
        for d in set(source.basis):
            lhs = sparse_product(f.matrix(d - 1), source.diff(d))
            rhs = sparse_product(target.diff(d), f.matrix(d))
            if lhs != rhs:
                raise InputError(f"does not commute with differentials at degree {d}")
        return f

    def matrix(self, d: int) -> Matrix:
        if d in self.matrices:
            return self.matrices[d]
        return Matrix.zero(self.target.dim(d), self.source.dim(d))


@dataclass(frozen=True, slots=True)
class HomologyGroup:
    degree: int
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, each dividing the next

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"degree": self.degree, "rank": self.free_rank,
                "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology(c: ChainComplex) -> dict[int, HomologyGroup]:
    """Exact integral homology in every nonempty degree, read off the
    residue of ``cancel_units``: H_d has rank (generators of C_d left) -
    rk d_d - rk d_{d+1} and torsion the factors of d_{d+1} greater than 1,
    d_d and d_{d+1} the residual ones.  The cancellation needs d∘d = 0,
    which ``ChainComplex.__post_init__`` checked when c was built."""
    cancelled, residue = cancel_units(c.diffs)
    factors = {d: _core_factors(r) for d, r in residue.items()}
    out = {}
    for d in c.degrees():
        outgoing, incoming = factors.get(d, ()), factors.get(d + 1, ())
        rank = c.dim(d) - len(cancelled.get(d, ())) - len(outgoing) - len(incoming)
        out[d] = HomologyGroup(d, rank, tuple(x for x in incoming if x > 1))
    return out


def homology_nontrivial(c: ChainComplex) -> dict[int, HomologyGroup]:
    return {d: h for d, h in homology(c).items() if not h.is_trivial}


def is_quasi_iso(f: ChainMap) -> bool:
    """True iff f induces an isomorphism on integral homology everywhere.

    By the long exact sequence of the mapping cone, that holds exactly when
    the cone is acyclic, which the one ``homology`` path reads off ``cone(f)``.
    """
    return all(h.is_trivial for h in homology(cone(f)).values())


# -- totalization ---------------------------------------------------------------

def tot_label(v: Vertex, x: str) -> str:
    return f"{cube.bits(v)}|{x}"


def tot(sf: StableFunctor | CubeFunctorData) -> ChainComplex:
    """Signed sum of linearized edge maps over the cube, graded by |v|+shift.

    Shifting by r follows the suspension convention and multiplies the
    differential by (-1)^r; that is what makes the face-inclusion shift map
    below a chain isomorphism.  Requires only vertex and edge data; squares
    must satisfy the fiberwise cardinality condition, which is re-asserted
    here as d∘d = 0.
    """
    if isinstance(sf, CubeFunctorData):
        sf = StableFunctor(sf, 0)
    f, r = sf.functor, sf.shift
    verts = cube.vertices(f.n)
    # one walk over the vertices: each one's basis offset in its degree and
    # the position of each of its labels
    basis: dict[int, list[str]] = {}
    at: dict[Vertex, tuple[int, dict[str, int]]] = {}
    for v in verts:
        xs = f.vset(v)
        if xs:
            b, prefix = basis.setdefault(sum(v) + r, []), cube.bits(v) + "|"
            at[v] = (len(b), xs.positions)
            b.extend([prefix + x for x in xs.elements])
    cols = {d: [{} for _ in b] for d, b in basis.items() if d - 1 in basis}
    # one walk over the edges, each from u down to v in coordinate k, signed
    # by the parity of the 1s of u before k and the shift
    for u in verts:
        d_cols = cols.get(sum(u) + r)
        if d_cols is None or u not in at:
            continue
        (off_u, pos_u), ones = at[u], 0
        for k, bit in enumerate(u):
            if not bit:
                continue
            v = u[:k] + (0,) + u[k + 1:]
            sign = -1 if (ones + r) % 2 else 1
            ones += 1
            es = f.edge_corrs[(u, v)].elements
            if es:
                off_v, pos_v = at[v]
                for e in es:
                    col, i = d_cols[off_u + pos_u[e.s]], off_v + pos_v[e.t]
                    col[i] = col.get(i, 0) + sign
    diffs = {d: Matrix.from_columns(len(basis[d - 1]), len(basis[d]), c)
             for d, c in cols.items()}
    try:
        return ChainComplex.build({d: tuple(b) for d, b in basis.items()}, diffs)
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            "totalization differential does not square to zero; "
            "the square condition fails") from exc


def tot_nat_trans(eta: NaturalTransformation, shift: int = 0) -> ChainMap:
    """Degree-preserving chain map extracted from the mixed edges."""
    src = tot(StableFunctor(eta.source_functor(), shift))
    tgt = tot(StableFunctor(eta.target_functor(), shift))
    mats: dict[int, Matrix] = {}
    for d in src.degrees():
        if tgt.dim(d) == 0:
            continue
        cols: list[dict[int, int]] = [{} for _ in range(src.dim(d))]
        src_index = {lbl: i for i, lbl in enumerate(src.basis[d])}
        tgt_index = {lbl: i for i, lbl in enumerate(tgt.basis.get(d, ()))}
        for v in cube.vertices(eta.n):
            if cube.grading(v) + shift != d:
                continue
            for e in eta.component(v).elements:
                col, i = cols[src_index[tot_label(v, e.s)]], tgt_index[tot_label(v, e.t)]
                col[i] = col.get(i, 0) + 1
        mats[d] = Matrix.from_columns(tgt.dim(d), src.dim(d), cols)
    return ChainMap.build(src, tgt, mats)


# -- constructions on complexes ---------------------------------------------------

def dualize(c: ChainComplex) -> ChainComplex:
    """Transpose differentials; degree d becomes -d."""
    basis = {-d: b for d, b in c.basis.items()}
    diffs = {}
    for d in c.basis:
        if d + 1 in c.basis:
            diffs[-d] = c.diff(d + 1).transpose()
    return ChainComplex.build(basis, diffs)


def direct_sum(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Blockwise sum, c1's generators tagged "l·" and c2's "r·"."""
    basis = {}
    diffs = {}
    for d in sorted(set(c1.basis) | set(c2.basis)):
        basis[d] = tuple("l·" + x for x in c1.basis.get(d, ())) + \
                   tuple("r·" + x for x in c2.basis.get(d, ()))
    for d in basis:
        if d - 1 not in basis:
            continue
        m1, m2 = c1.diff(d), c2.diff(d)
        diffs[d] = Matrix.from_columns(
            m1.rows + m2.rows, m1.cols + m2.cols,
            [*m1.columns, *({m1.rows + i: x for i, x in c.items()} for c in m2.columns)])
    return ChainComplex.build(basis, diffs)


def tensor(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Tensor product with the sign (-1)^p on the second-factor differential.

    Degree-m basis: pairs (p ascending, first factor major)."""
    basis: dict[int, list[str]] = {}
    index: dict[tuple[int, int, int, int], int] = {}  # (p, q, i, j) -> position
    for p in c1.degrees():
        for q in c2.degrees():
            m = p + q
            basis.setdefault(m, [])
            for i, a in enumerate(c1.basis[p]):
                for j, b in enumerate(c2.basis[q]):
                    index[(p, q, i, j)] = len(basis[m])
                    basis[m].append(f"{a}⊗{b}")
    diffs = {}
    for m in basis:
        if m - 1 not in basis:
            continue
        cols: list[dict[int, int]] = [{} for _ in basis[m]]
        for p in c1.degrees():
            q = m - p
            if q not in c2.basis:
                continue
            d1 = c1.diff(p)
            d2 = c2.diff(q)
            sgn = -1 if p % 2 else 1
            for i in range(c1.dim(p)):
                for j in range(c2.dim(q)):
                    col = cols[index[(p, q, i, j)]]
                    for i2, x in d1.columns[i].items():
                        col[index[(p - 1, q, i2, j)]] = x
                    for j2, y in d2.columns[j].items():
                        col[index[(p, q - 1, i, j2)]] = sgn * y
        diffs[m] = Matrix.from_columns(len(basis[m - 1]), len(basis[m]), cols)
    return ChainComplex.build({d: tuple(b) for d, b in basis.items()}, diffs)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree m is target_m then source_{m-1}; the source block
    differential is negated and the map feeds the target block."""
    basis = {}
    degrees = set(f.target.basis) | {d + 1 for d in f.source.basis}
    for m in degrees:
        basis[m] = tuple("0·" + x for x in f.target.basis.get(m, ())) + \
                   tuple("1·" + x for x in f.source.basis.get(m - 1, ()))
    diffs = {}
    for m in basis:
        if m - 1 not in basis:
            continue
        dt = f.target.diff(m)
        ds = f.source.diff(m - 1)
        fm = f.matrix(m - 1)
        tr = f.target.dim(m - 1)
        diffs[m] = Matrix.from_columns(
            tr + f.source.dim(m - 2), len(basis[m]),
            [*dt.columns, *({**fc, **{tr + i: -x for i, x in sc.items()}}
                            for fc, sc in zip(fm.columns, ds.columns))])
    return ChainComplex.build(basis, diffs)


def shift_complex(c: ChainComplex, r: int) -> ChainComplex:
    """Suspension: raise degrees by r and scale the differential by (-1)^r."""
    sgn = -1 if r % 2 else 1
    return ChainComplex.build({d + r: b for d, b in c.basis.items()},
                              {d + r: (m if sgn == 1 else -m)
                               for d, m in c.diffs.items()})


def complexes_equal_under(c1: ChainComplex, c2: ChainComplex,
                          lmap: Callable[[int, str], str]) -> bool:
    """Entrywise equality after identifying bases by the label bijection."""
    if set(c1.basis) != set(c2.basis):
        return False
    perms: dict[int, list[int]] = {}
    for d in c1.basis:
        mapped = [lmap(d, x) for x in c1.basis[d]]
        if sorted(mapped) != sorted(c2.basis[d]):
            return False
        pos2 = {x: i for i, x in enumerate(c2.basis[d])}
        perms[d] = [pos2[x] for x in mapped]
    for d in c1.basis:
        if d - 1 not in c1.basis:
            continue
        rowperm = perms[d - 1]
        m2 = c2.diff(d).columns
        for j, col in enumerate(c1.diff(d).columns):
            if {rowperm[i]: x for i, x in col.items()} != m2[perms[d][j]]:
                return False
    return True


# -- face inclusion shift isomorphism ----------------------------------------------

@dataclass(frozen=True, slots=True)
class SignTwist:
    """A mod-2 vertex assignment solving the edge equation
    t_u + t_v = |iota| + s_{u,v} + s_{iota u, iota v}."""

    iota: FaceInclusion
    values: dict[Vertex, int]


def face_shift_iso(f: CubeFunctorData, iota: FaceInclusion,
                   ) -> tuple[SignTwist, ChainMap]:
    """The signed identity identifying the extension's totalization with the
    weight-shifted totalization of the original functor."""
    if iota.n != f.n:
        raise InputError("dimension mismatch")
    n = f.n
    w = iota.weight
    t: dict[Vertex, int] = {(0,) * n: 0}
    order = sorted(cube.vertices(n), key=cube.grading)
    for v in order:
        if v in t:
            continue
        k = next(i for i in range(n) if v[i] == 1)
        below = cube.clear_coordinate(v, k)
        rhs = (w + cube.sign_assignment(v, below)
               + cube.sign_assignment(iota.apply(v), iota.apply(below))) % 2
        t[v] = (t[below] + rhs) % 2
    for (u, v) in cube.edges(n):
        rhs = (w + cube.sign_assignment(u, v)
               + cube.sign_assignment(iota.apply(u), iota.apply(v))) % 2
        if (t[u] + t[v]) % 2 != rhs:
            raise InternalInvariantError("sign twist closure fails")
    from .functor import extend_along_face_inclusion
    src = tot(StableFunctor(extend_along_face_inclusion(f, iota), 0))
    tgt = tot(StableFunctor(f, w))
    mats = {}
    for d in src.degrees():
        src_index = {lbl: i for i, lbl in enumerate(src.basis[d])}
        cols: list[dict[int, int]] = [{} for _ in range(src.dim(d))]
        tgt_index = {lbl: i for i, lbl in enumerate(tgt.basis.get(d, ()))}
        for v in cube.vertices(n):
            if cube.grading(v) + w != d:
                continue
            for x in f.vset(v):
                sign = -1 if t[v] else 1
                cols[src_index[tot_label(iota.apply(v), x)]][tgt_index[tot_label(v, x)]] = sign
        mats[d] = Matrix.from_columns(tgt.dim(d), src.dim(d), cols)
    cm = ChainMap.build(src, tgt, mats)
    for d in src.degrees():
        m = cm.matrix(d)
        # unimodular exactly when square with every invariant factor 1
        if m.rows != m.cols or invariant_factors(m) != (1,) * m.rows:
            raise InternalInvariantError("face shift map is not an isomorphism")
    return SignTwist(iota, t), cm
