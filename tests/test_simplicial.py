import pytest

from cubeburnside import cube, fixtures as FX
from cubeburnside.corpus import list_fixtures, load_delta
from cubeburnside.errors import InputError
from cubeburnside.functor import (composite_along_chain, forced_matchings,
                                  validate_coherence)
from cubeburnside.simplicial import (DeltaComplex, Simplex,
                                     complex_from_maximal, delta_functor,
                                     simplicial_homology)
from cubeburnside.totalization import homology_nontrivial, tot


def groups(h):
    return {d: (g.free_rank, g.torsion) for d, g in h.items() if not g.is_trivial}


def test_point():
    x = FX.delta_point()
    assert groups(simplicial_homology(x)) == {0: (1, ())}


def test_single_zero_simplex_functor():
    x = complex_from_maximal(1, [(1,)])
    sf = delta_functor(x)
    assert sf.shift == -1
    assert len(sf.functor.vset((1,))) == 1
    assert len(sf.functor.vset((0,))) == 0


def test_sphere_both_routes():
    x = FX.delta_sphere()
    expected = {0: (1, ()), 2: (1, ())}
    assert groups(simplicial_homology(x)) == expected
    sf = delta_functor(x)
    assert groups(homology_nontrivial(tot(sf))) == expected


def test_projective_plane_both_routes():
    x = FX.delta_projective_plane()
    expected = {0: (1, ()), 1: (0, (2,))}
    assert groups(simplicial_homology(x)) == expected
    assert groups(homology_nontrivial(tot(delta_functor(x)))) == expected


def test_torus_both_routes():
    x = FX.delta_torus()
    expected = {0: (1, ()), 1: (2, ()), 2: (1, ())}
    assert groups(simplicial_homology(x)) == expected
    assert groups(homology_nontrivial(tot(delta_functor(x)))) == expected


def test_functor_fibers_forced_and_coherent():
    """The build writes no face matching; its forced ones, asked for, are
    coherent."""
    for name in list_fixtures("delta"):
        bare = delta_functor(load_delta(name)).functor
        assert bare.face_matchings is None, name
        f = forced_matchings(bare)
        assert validate_coherence(f).ok, name
        for face in cube.faces2(f.n):
            ca = composite_along_chain(f, (face.top, face.mid_a, face.bottom))
            assert all(len(v) <= 1 for v in ca.fibers().values())


def test_validation_errors():
    with pytest.raises(InputError):
        DeltaComplex(3, (Simplex("t", (1, 2, 3)),))  # faces missing
    with pytest.raises(InputError):
        DeltaComplex(2, (Simplex("e", (1, 1)),))     # repeated vertex
    with pytest.raises(InputError):
        DeltaComplex(1, (Simplex("v", (2,)),))       # unknown vertex
    with pytest.raises(InputError):
        DeltaComplex(1, (Simplex("a", (1,)), Simplex("a", (1,))))
    with pytest.raises(InputError, match="has no vertices"):
        Simplex("e", ())
    for sid in ("a∘b", "a<b"):                    # separators of the functor route
        with pytest.raises(InputError, match="contains"):
            Simplex(sid, (1,))


def test_duplicate_support_is_fine_without_higher_faces():
    # a doubled edge: both routes still work (no face lookup is ambiguous)
    x = DeltaComplex(2, (Simplex("v1", (1,)), Simplex("v2", (2,)),
                         Simplex("e", (1, 2)), Simplex("e2", (1, 2))))
    assert groups(simplicial_homology(x)) == {0: (1, ()), 1: (1, ())}  # a circle
    assert groups(homology_nontrivial(tot(delta_functor(x)))) == \
        {0: (1, ()), 1: (1, ())}


def test_duplicate_support_rejected_by_boundary_lookup():
    # a triangle over a doubled edge leaves the face lookup ambiguous
    x = DeltaComplex(3, (Simplex("v1", (1,)), Simplex("v2", (2,)),
                         Simplex("v3", (3,)),
                         Simplex("e", (1, 2)), Simplex("e2", (1, 2)),
                         Simplex("f", (1, 3)), Simplex("g", (2, 3)),
                         Simplex("t", (1, 2, 3))))
    with pytest.raises(InputError, match=r"support \[1, 2\] names 2 simplices"):
        simplicial_homology(x)
    with pytest.raises(InputError, match="fiber sizes differ"):
        delta_functor(x)


def test_doubled_edges_under_a_triangle_rejected_as_ambiguous():
    # every edge of the triangle doubled: the squares under it have fibers of two
    x = DeltaComplex(3, (Simplex("v1", (1,)), Simplex("v2", (2,)), Simplex("v3", (3,)))
                     + tuple(Simplex(f"{e}{k}", vs) for e, vs in
                             (("a", (1, 2)), ("b", (1, 3)), ("c", (2, 3))) for k in "12")
                     + (Simplex("t", (1, 2, 3)),))
    with pytest.raises(InputError, match=r"^face 111>001 via 011\|101: ambiguous fiber$"):
        delta_functor(x)


def test_full_simplex_on_ten_vertices_both_routes():
    """1023 simplices, each face looked up in the one support index: the
    full simplex is contractible by either route."""
    x = complex_from_maximal(10, [tuple(range(1, 11))])
    assert groups(simplicial_homology(x)) == {0: (1, ())}
    assert groups(homology_nontrivial(tot(delta_functor(x)))) == {0: (1, ())}


def test_json_round_trip():
    x = FX.delta_torus()
    assert DeltaComplex.from_json(x.to_json()) == x
