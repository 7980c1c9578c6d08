import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside import cube
from cubeburnside.cube import Face2, FaceInclusion


def test_grading_examples():
    assert cube.grading((0, 0, 0)) == 0
    assert cube.grading((1, 0, 1)) == 2
    assert cube.grading((1, 1, 1, 1)) == 4


def test_geq_examples():
    assert cube.geq((1, 1), (1, 0))
    assert cube.geq((0, 1), (0, 1))
    assert not cube.geq((1, 0), (0, 1))
    with pytest.raises(ValueError):
        cube.geq((1, 0), (1, 0, 0))


def test_edge_coordinate_examples():
    assert cube.edge_coordinate((1, 0, 1), (0, 0, 1)) == 0
    assert cube.edge_coordinate((1, 0, 1), (1, 0, 0)) == 2
    for u, v in cube.edges(4):
        k = cube.edge_coordinate(u, v)
        assert u[k] == 1 and v == cube.clear_coordinate(u, k)


@pytest.mark.parametrize("u, v", [
    ((1, 0, 1), (1, 0, 1)),  # equal vertices
    ((1, 1, 0), (0, 0, 0)),  # two changed coordinates
    ((0, 1, 0), (1, 1, 0)),  # u < v
])
def test_edge_coordinate_rejects_non_edges(u, v):
    with pytest.raises(ValueError, match="not an edge"):
        cube.edge_coordinate(u, v)


def test_sign_assignment_examples():
    assert cube.sign_assignment((1, 1, 0), (0, 1, 0)) == 0
    assert cube.sign_assignment((1, 1), (1, 0)) == 1
    assert cube.sign_assignment((1, 0, 1), (1, 0, 0)) == 1
    with pytest.raises(ValueError):
        cube.sign_assignment((1, 1), (0, 0))


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_parity_on_every_square(n):
    # the property making the totalization differential square to zero
    for face in cube.faces2(n):
        total = (cube.sign_assignment(face.top, face.mid_a)
                 + cube.sign_assignment(face.mid_a, face.bottom)
                 + cube.sign_assignment(face.top, face.mid_b)
                 + cube.sign_assignment(face.mid_b, face.bottom))
        assert total % 2 == 1


def test_maximal_chains_examples():
    assert cube.maximal_chains((1, 0), (1, 0)) == [((1, 0),)]
    chains = cube.maximal_chains((1, 1), (0, 0))
    assert len(chains) == 2
    mids = {c[1] for c in chains}
    assert mids == {(0, 1), (1, 0)}
    assert len(cube.maximal_chains((1, 1, 1), (0, 0, 0))) == 6


@pytest.mark.parametrize("n", range(1, 5))
def test_maximal_chain_counts(n):
    import math
    top = (1,) * n
    for v in cube.vertices(n):
        chains = cube.maximal_chains(top, v)
        k = n - cube.grading(v)
        assert len(chains) == math.factorial(k)
        assert len(set(chains)) == len(chains)


def test_maximal_chains_requires_order():
    with pytest.raises(ValueError):
        cube.maximal_chains((1, 0), (0, 1))


def test_chain_swap_path_examples():
    c = cube.chain_from_coords((1, 1, 1), (0, 1, 2))
    assert cube.chain_swap_path(c, c) == []
    c2 = cube.chain_from_coords((1, 1), (0, 1))
    c3 = cube.chain_from_coords((1, 1), (1, 0))
    assert len(cube.chain_swap_path(c2, c3)) == 1
    rev = cube.chain_from_coords((1, 1, 1), (2, 1, 0))
    assert len(cube.chain_swap_path(c, rev)) == 3


@given(st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_chain_swap_path_transforms(n, data):
    coords = list(range(n))
    o1 = data.draw(st.permutations(coords))
    o2 = data.draw(st.permutations(coords))
    c1 = cube.chain_from_coords((1,) * n, o1)
    c2 = cube.chain_from_coords((1,) * n, o2)
    cur = c1
    for idx, nxt in cube.chain_swap_path(c1, c2):
        assert cube.chain_swap(cur, idx) == nxt
        cube.check_chain(nxt)
        cur = nxt
    assert cur == c2


def test_all_swap_paths_hexagon():
    c1 = cube.chain_from_coords((1, 1, 1), (0, 1, 2))
    c2 = cube.chain_from_coords((1, 1, 1), (2, 1, 0))
    paths = list(cube.all_swap_paths(c1, c2))
    # two ways around the hexagon of the six maximal chains
    assert sorted(len(p) for p in paths) == [3, 3]


def test_face_inclusion_examples():
    ident = FaceInclusion.identity(3)
    assert ident.apply((1, 0, 1)) == (1, 0, 1)
    i1 = FaceInclusion(1, 2, (0, 0), (1,))
    assert i1.apply((1,)) == (0, 1)
    i2 = FaceInclusion(2, 3, (1, 0, 0), (1, 2))
    assert i2.apply((1, 0)) == (1, 1, 0)
    assert i2.weight == 1
    with pytest.raises(ValueError):
        FaceInclusion(1, 2, (0, 1), (1,))  # bottom not zero on coords
    with pytest.raises(ValueError):
        i2.apply((1, 0, 0))


def _all_inclusions(n, N):
    for coords in itertools.permutations(range(N), n):
        free = [i for i in range(N) if i not in coords]
        for bits in itertools.product((0, 1), repeat=len(free)):
            bottom = [0] * N
            for i, b in zip(free, bits):
                bottom[i] = b
            yield FaceInclusion(n, N, tuple(bottom), coords)


@pytest.mark.parametrize("n,N", [(0, 2), (1, 3), (2, 4), (3, 4), (4, 6)])
def test_face_inclusion_injective_and_edge_preserving(n, N):
    for iota in _all_inclusions(n, N):
        images = [iota.apply(v) for v in cube.vertices(n)]
        assert len(set(images)) == len(images)
        for v, w in zip(cube.vertices(n), images):
            assert cube.grading(w) == cube.grading(v) + iota.weight
        for (u, v) in cube.edges(n):
            cube.edge_coordinate(iota.apply(u), iota.apply(v))  # still an edge


def test_face_inclusion_json():
    i2 = FaceInclusion(2, 3, (1, 0, 0), (1, 2))
    assert FaceInclusion.from_json(i2.to_json()) == i2


def test_face2_canonical_orientation():
    f = Face2.from_top((1, 1), 0, 1)
    assert f.mid_a == (0, 1) and f.mid_b == (1, 0)
    g = Face2.spanning((1, 1), (1, 0), (0, 1), (0, 0))
    assert g == f
    with pytest.raises(ValueError):
        Face2.spanning((1, 1), (1, 0), (1, 0), (0, 0))


def test_faces_counts():
    assert len(cube.faces2(3)) == 6
    assert len(cube.faces3(3)) == 1
    assert len(cube.faces2(4)) == 24


@pytest.mark.parametrize("n", range(9))
def test_edges_come_sorted_and_masks_in_vertex_order(n):
    """``edges`` lists u in ``vertices`` order and then the cleared
    coordinate in increasing order, which is already sorted; ``masks``
    lists the vertices' bitmasks (bit k for coordinate k) in ``vertices``
    order."""
    edges = cube.edges(n)
    assert edges == sorted(edges)
    assert edges == [(u, cube.clear_coordinate(u, k)) for u in cube.vertices(n)
                     for k in range(n) if u[k]]
    assert len(edges) == n * 2 ** max(n - 1, 0)
    assert cube.masks(n) == [sum(b << k for k, b in enumerate(v)) for v in cube.vertices(n)]
