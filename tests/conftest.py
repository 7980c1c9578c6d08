import pytest

from cubeburnside import cube, fixtures as FX
from cubeburnside.burnside import BijectionOver, Correspondence, FiniteSet
from cubeburnside.functor import CubeFunctorData


@pytest.fixture(scope="session")
def pd_corpus():
    return FX.pd_corpus()


@pytest.fixture(scope="session")
def small_corpus(pd_corpus):
    """Diagrams with at most 4 crossings (cheap enough for repeated builds)."""
    return {k: v for k, v in pd_corpus.items() if v.n <= 4}


@pytest.fixture(scope="session")
def wedge_cube():
    return FX.wedge_cube()


@pytest.fixture(scope="session")
def projective():
    return FX.projective_functor()


def _restrict_by_composing(f, s):
    """Reference restriction of functor data to the generators ``s``: the
    face composites are composed again from the restricted edges (through
    ``CubeFunctorData.square``) instead of filtered from the matchings."""
    vs = {v: FiniteSet(tuple(x for x in f.vset(v) if (v, x) in s))
          for v in cube.vertices(f.n)}
    ec = {(u, v): Correspondence(vs[u], vs[v], tuple(
              e for e in f.edge(u, v).elements if (u, e.s) in s and (v, e.t) in s))
          for (u, v) in cube.edges(f.n)}
    probe = CubeFunctorData(f.n, vs, ec, None)
    fm = {}
    for face in cube.faces2(f.n):
        ca, cb = probe.square(face)
        keep = set(ca.ids())
        fm[face] = BijectionOver.of(
            ca, cb, {a: b for a, b in f.matching(face).mapping if a in keep})
    return CubeFunctorData(f.n, vs, ec, fm)


@pytest.fixture(scope="session")
def restrict_by_composing():
    return _restrict_by_composing
