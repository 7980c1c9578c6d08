"""Finite complexes built from simplices with distinct vertices, the span
functor they induce on the cube over their vertex set, and an independent
boundary-matrix homology used to cross-validate the totalization route."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import cube
from .burnside import COMPOSE_SEP, CorrElem, Correspondence, FiniteSet
from .errors import InputError
from .functor import CubeFunctorData, StableFunctor, _forced_tables
from .linalg import Matrix
from .totalization import ChainComplex, HomologyGroup, homology


@dataclass(frozen=True, slots=True)
class Simplex:
    id: str
    verts: tuple[int, ...]  # 1-based vertex numbers, ordered, distinct

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InputError(f"simplex id must be a string, not {self.id!r}")
        # the functor route joins ids with these into its element ids
        if any(sep in self.id for sep in (COMPOSE_SEP, "<")):
            raise InputError(f"simplex id {self.id!r} contains {COMPOSE_SEP!r} or '<'")
        if not self.verts:
            raise InputError(f"simplex {self.id} has no vertices")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.verts)

    @property
    def dim(self) -> int:
        return len(self.verts) - 1


@dataclass(frozen=True, slots=True)
class DeltaComplex:
    n_vertices: int
    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        ids = [s.id for s in self.simplices]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate simplex ids")
        supports = self.by_support()
        for s in self.simplices:
            # face signs and the d²=0 check rely on the vertex order
            if any(a >= b for a, b in zip(s.verts, s.verts[1:])):
                raise InputError(f"simplex {s.id} vertices do not strictly increase")
            if any(not 1 <= v <= self.n_vertices for v in s.verts):
                raise InputError(f"simplex {s.id} uses an unknown vertex")
            for k in range(len(s.verts)):
                face = frozenset(s.verts[:k] + s.verts[k + 1:])
                if face and face not in supports:
                    raise InputError(f"face {sorted(face)} of {s.id} is missing")

    def by_dim(self, k: int) -> list[Simplex]:
        return [s for s in self.simplices if s.dim == k]

    def by_support(self) -> dict[frozenset[int], list[Simplex]]:
        """The simplices on each support: the one index of the complex."""
        index: dict[frozenset[int], list[Simplex]] = {}
        for s in self.simplices:
            index.setdefault(s.support, []).append(s)
        return index

    def to_json(self) -> dict:
        return {"n_vertices": self.n_vertices,
                "simplices": [{"id": s.id, "verts": list(s.verts)}
                              for s in self.simplices]}

    @staticmethod
    def from_json(obj: dict) -> "DeltaComplex":
        try:
            n = cube.json_int(obj["n_vertices"], "n_vertices")
            if not isinstance(obj["simplices"], list):
                raise ValueError("simplices must be an array")
            simplices = tuple(Simplex(s["id"], tuple(cube.json_int(v, "vertex")
                                                     for v in s["verts"]))
                              for s in obj["simplices"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed delta complex: {exc}") from exc
        cube.check_dim(n, "vertex count")
        return DeltaComplex(n, simplices)


def complex_from_maximal(n_vertices: int, maximal: list[tuple[int, ...]]) -> DeltaComplex:
    """Simplicial complex generated by maximal faces; ids name vertex sets."""
    supports: set[tuple[int, ...]] = set()
    for m in maximal:
        vs = tuple(sorted(set(m)))
        for k in range(1, len(vs) + 1):
            for sub in itertools.combinations(vs, k):
                supports.add(sub)
    simplices = tuple(Simplex("s" + "_".join(map(str, vs)), vs)
                      for vs in sorted(supports, key=lambda t: (len(t), t)))
    return DeltaComplex(n_vertices, simplices)


def delta_functor(x: DeltaComplex) -> StableFunctor:
    """Vertex v carries the simplices supported exactly on its 1-bits; edges
    are the containment pairs.  Squares are checked on positions for the
    forced rule, and no face matching is written (``forced_matchings``
    writes them on request).  The stable shift is -1 so a k-simplex sits in
    degree k."""
    n = x.n_vertices
    by_support = x.by_support()
    at = {v: by_support.get(frozenset(i + 1 for i, b in enumerate(v) if b), [])
          for v in cube.vertices(n)}
    vs = {v: FiniteSet(tuple(s.id for s in sims)) for v, sims in at.items()}
    ec = {(u, v): Correspondence(vs[u], vs[v], tuple(CorrElem(f"{sv.id}<{su.id}", su.id, sv.id)
                                                     for su in at[u] for sv in at[v]))
          for (u, v) in cube.edges(n)}
    data = CubeFunctorData.build(n, vs, ec, None)
    _forced_tables(data)
    return StableFunctor(data, -1)


def simplicial_homology(x: DeltaComplex) -> dict[int, HomologyGroup]:
    """Boundary matrices with alternating signs, assembled without the cube."""
    basis = {}
    diffs = {}
    for k in range(0, max((s.dim for s in x.simplices), default=-1) + 1):
        sims = x.by_dim(k)
        if sims:
            basis[k] = tuple(s.id for s in sims)
    index = {k: {sid: i for i, sid in enumerate(b)} for k, b in basis.items()}
    by_support = x.by_support()
    for k in basis:
        if k - 1 not in basis:
            continue
        cols: list[dict[int, int]] = [{} for _ in basis[k]]
        for col, s in zip(cols, x.by_dim(k)):
            for i in range(len(s.verts)):
                support = frozenset(s.verts[:i] + s.verts[i + 1:])
                hits = by_support.get(support, [])
                if len(hits) != 1:
                    raise InputError(f"support {sorted(support)} names {len(hits)} simplices")
                row = index[k - 1][hits[0].id]
                col[row] = col.get(row, 0) + (-1) ** i
        diffs[k] = Matrix.from_columns(len(basis[k - 1]), len(basis[k]), cols)
    return homology(ChainComplex.build(basis, diffs))
