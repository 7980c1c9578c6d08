import collections
import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coherence_reference as ref
from cubeburnside import corpus, cube, fixtures as FX
from cubeburnside import burnside, functor, khovanov as kh
from cubeburnside.burnside import linearize
from cubeburnside.errors import InputError, InternalInvariantError
from cubeburnside.functor import (CubeFunctorData, composite_along_chain,
                                  coproduct, find_natural_isomorphism, functor_to_json,
                                  validate_c0, validate_coherence)
from cubeburnside.linalg import Matrix
from cubeburnside.totalization import (direct_sum, homology_nontrivial,
                                       tot)


# -- parsing ---------------------------------------------------------------------

def test_parse_examples():
    u0 = kh.parse_pd("PD[]", free_loops=1)
    assert u0.n == 0 and u0.free_loops == 1
    tref = kh.parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]")
    assert tref.n == 3 and len(tref.arcs()) == 6
    kink = kh.parse_pd("PD[X(1,1,2,2)]")
    assert kink.n == 1


def test_parse_errors():
    with pytest.raises(InputError):
        kh.parse_pd("PD[X(1,2,3)]")
    with pytest.raises(InputError):
        kh.parse_pd("PD[X(1,1,1,2)]")          # arc 1 occurs three times
    with pytest.raises(InputError):
        # over-strand arcs not consecutive either way at the first crossing
        kh.parse_pd("PD[X(1,6,2,3),X(3,2,4,5),X(5,4,6,1)]")
    with pytest.raises(InputError, match="not planar"):
        kh.parse_pd("PD[X(1,2,1,2)]")
    with pytest.raises(InputError, match="ambiguous"):
        kh.per_crossing_signs(kh.PDCode(((1, 2, 1, 2),)))  # head/tail data underdetermined
    with pytest.raises(InputError):
        kh.parse_pd("nonsense")
    with pytest.raises(InputError):
        kh.parse_pd("PD[X(1,5,2,6),X(2,6,1,5)]")  # labels not consecutive


def test_parse_refuses_virtual_diagrams():
    """Codes whose arcs and orientations are consistent but that cannot be
    drawn in the plane; on such a code some resolution change neither merges
    nor splits circles."""
    with pytest.raises(InputError, match="3 faces, expected 5"):
        # one-arc component crossing the rest once
        kh.parse_pd({"crossings": [[1, 4, 1, 5], [3, 6, 4, 2], [5, 2, 6, 3]]})
    with pytest.raises(InputError, match="not planar"):
        # the trefoil with one crossing reflected: its signs are consistent
        kh.parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,3,6,2)]")


def test_parse_json_form():
    pd = kh.parse_pd({"crossings": [[1, 1, 2, 2]], "free_loops": 1})
    assert pd.n == 1 and pd.free_loops == 1
    assert kh.parse_pd(pd.to_json()) == pd


# -- signs -----------------------------------------------------------------------

def test_crossing_signs_examples(pd_corpus):
    assert kh.crossing_signs(pd_corpus["unknot0"]) == (0, 0)
    np_, nm = kh.crossing_signs(pd_corpus["trefoil_pos"])
    assert np_ + nm == 3
    np2, nm2 = kh.crossing_signs(pd_corpus["trefoil_neg"])
    assert (np2, nm2) == (nm, np_)  # mirror swaps the counts
    assert kh.crossing_signs(pd_corpus["kink_neg"]) == (0, 1)
    assert kh.crossing_signs(pd_corpus["kink_pos"]) == (1, 0)
    assert kh.crossing_signs(pd_corpus["fig8"]) == (2, 2)


def _signs_by_search(pd):
    """Reference: try every sign choice over the crossings whose over-strand
    reads both ways, and demand exactly one head per arc."""
    if not pd.crossings:
        return ()
    succ = kh._succ_table(pd)
    cands = []
    for (a, b, c, d) in pd.crossings:
        if succ[a] != c:
            raise InputError(f"under-strand {a}->{c} is not consecutive")
        opts = [s for s, ok in ((1, succ[b] == d), (-1, succ[d] == b)) if ok]
        if not opts:
            raise InputError(f"crossing ({a},{b},{c},{d}): over-strand arcs "
                             "are not consecutive either way")
        cands.append(opts)
    arcs = kh._occurrences(pd)
    solutions = []
    for combo in itertools.product(*cands):
        heads = {arc: 0 for arc in arcs}
        for (a, b, c, d), sign in zip(pd.crossings, combo):
            heads[a] += 1
            heads[b if sign == 1 else d] += 1
        if all(v == 1 for v in heads.values()):
            solutions.append(combo)
    if not solutions:
        raise InputError("no orientation-consistent crossing signs exist")
    if len(solutions) > 1:
        ambiguous = [i for i, o in enumerate(cands) if len(o) == 2]
        raise InputError("crossing signs are ambiguous; orientation data "
                         f"underdetermined at crossings {ambiguous}")
    return solutions[0]


@st.composite
def _sign_inputs(draw):
    """Braid closures or disjoint Hopf links, sometimes with one crossing's
    arcs permuted."""
    if draw(st.booleans()):
        word = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=8))
        # unvalidated, so that only the two functions under test judge the signs
        with mock.patch.object(kh, "validate_pd", lambda pd: None):
            crossings = list(kh.braid_closure_pd(word, 4).crossings)
    else:
        links = draw(st.integers(1, 5))
        crossings = [tuple(a + 4 * k for a in x)
                     for k in range(links) for x in ((4, 1, 3, 2), (2, 3, 1, 4))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(crossings) - 1))
        perm = draw(st.permutations(range(4)))
        crossings[i] = tuple(crossings[i][p] for p in perm)
    return kh.PDCode(tuple(crossings))


def _outcome(fn, pd):
    try:
        return fn(pd)
    except InputError as exc:
        return str(exc)


@given(_sign_inputs())
@settings(max_examples=300, deadline=None)
def test_per_crossing_signs_match_search(pd):
    assert _outcome(kh.per_crossing_signs, pd) == _outcome(_signs_by_search, pd)


def test_free_loops_capped():
    assert kh.parse_pd("PD[]", free_loops=cube.MAX_DIM).free_loops == cube.MAX_DIM
    with pytest.raises(InputError):
        kh.parse_pd("PD[]", free_loops=cube.MAX_DIM + 1)
    with pytest.raises(InputError):
        kh.parse_pd({"crossings": [], "free_loops": cube.MAX_DIM + 1})

# -- resolutions -----------------------------------------------------------------

def test_resolve_examples(pd_corpus):
    u0 = pd_corpus["unknot0"]
    assert len(kh.resolve(u0, ()).circles) == 1
    kink = pd_corpus["kink_neg"]
    counts = sorted(len(kh.resolve(kink, (b,)).circles) for b in (0, 1))
    assert counts == [1, 2]
    tref = pd_corpus["trefoil_pos"]
    assert len(kh.resolve(tref, (0, 0, 0)).circles) == 2
    assert len(kh.resolve(tref, (1, 1, 1)).circles) == 3
    with pytest.raises(InputError):
        kh.resolve(tref, (0, 0))


def test_resolve_circles_partition_arcs(pd_corpus):
    pd = pd_corpus["fig8"]
    for v in cube.vertices(pd.n):
        rd = kh.resolve(pd, v)
        arcs = sorted(a for c in rd.circles for a in c.arcs)
        assert arcs == pd.arcs()
        for c in rd.circles:
            assert len(c.passages) == len(c.walk_arcs)


def _resolve_reference(pd, v):
    """The circles of v's resolution traced on (crossing, slot) pairs, as
    (arcs, passages, walk arcs) with plain-tuple passages, sorted by least
    arc and then free loop index."""
    other = {}
    for p, q in kh._occurrences(pd).values():
        other[p], other[q] = q, p
    partner = ({0: 3, 3: 0, 1: 2, 2: 1}, {0: 1, 1: 0, 2: 3, 3: 2})
    seen, circles = set(), []
    for start in itertools.product(range(pd.n), range(4)):
        if start in seen:
            continue
        passages, node = [], start
        while not passages or node != start:
            c, s_in = node
            s_out = partner[v[c]][s_in]
            seen |= {(c, s_in), (c, s_out)}
            passages.append((c, s_in, s_out))
            node = other[(c, s_out)]
        walk = tuple(pd.crossings[c][s_out] for c, _, s_out in passages)
        circles.append(((0, min(walk)), frozenset(walk), tuple(passages), walk))
    circles += [((1, k), frozenset(), (), ()) for k in range(pd.free_loops)]
    return [c[1:] for c in sorted(circles, key=lambda c: c[0])]


def test_resolve_traces_as_the_slot_pair_reference(pd_corpus):
    """Tracing flat slots gives, on every vertex of every bundled diagram,
    the circles of a trace on (crossing, slot) pairs: the same arcs,
    passages in the same order and the same walks."""
    for pd in pd_corpus.values():
        for v in cube.vertices(pd.n):
            got = [(c.arcs, tuple((p.crossing, p.slot_in, p.slot_out) for p in c.passages),
                    c.walk_arcs)
                   for c in kh.resolve(pd, v).circles]
            assert got == _resolve_reference(pd, v), (pd, v)


# -- edge correspondences and gradings ---------------------------------------------

def test_edge_correspondence_merge_split(pd_corpus):
    kink = pd_corpus["kink_neg"]
    # u=(1): two circles; v=(0): one circle; the edge splits the v-circle
    corr = kh.DiagramCube(kink).edge_correspondence((1,), (0,))
    by_target = {}
    for e in corr.elements:
        by_target.setdefault(e.t, []).append(e.s)
    assert sorted(by_target["+"]) == ["+-", "-+"]   # comultiplying x_+
    assert by_target["-"] == ["--"]                 # comultiplying x_-
    # a merge edge: the positive kink merges two circles going up the cube
    kinkp = pd_corpus["kink_pos"]
    corr2 = kh.DiagramCube(kinkp).edge_correspondence((1,), (0,))
    by_source = {}
    for e in corr2.elements:
        by_source.setdefault(e.s, []).append(e.t)
    assert by_source["+"] == ["++"]                  # m(++)=+
    assert sorted(by_source["-"]) == ["+-", "-+"]    # m(+-)=m(-+)=-
    targets = {e.t for e in corr2.elements}
    assert "--" not in targets                       # m(--)=0


def test_merge_edge_coefficient_one(pd_corpus):
    # every nonzero multiplication entry appears with coefficient one
    pd = pd_corpus["hopf"]
    dc = kh.DiagramCube(pd)
    for (u, v) in cube.edges(pd.n):
        fibers = dc.edge_correspondence(u, v).fibers()
        assert all(len(e) == 1 for e in fibers.values())


def test_quantum_grading_examples(pd_corpus):
    u0 = pd_corpus["unknot0"]
    grads = kh.generator_gradings(u0, kh.build_khovanov_functor(u0).functor)
    assert grads[()] == {"+": 1, "-": -1}
    tref = pd_corpus["trefoil_pos"]
    np_, nm = kh.crossing_signs(tref)
    grads = kh.generator_gradings(tref, kh.build_khovanov_functor(tref).functor)
    assert grads[(1, 1, 1)]["+++"] == np_ - 2 * nm + 3 + 3


def test_quantum_grading_preserved_on_edges(small_corpus):
    for name, pd in small_corpus.items():
        f = kh.build_khovanov_functor(pd).functor
        grads = kh.generator_gradings(pd, f)
        for (u, v) in cube.edges(pd.n):
            for e in f.edge(u, v).elements:
                assert grads[u][e.s] == grads[v][e.t], (name, u, v, e)


def _assert_untouched_circles_go_in_order(pd):
    """On every edge u > v of pd's cube, the map of v's circles away from
    the changed crossing onto u's by circle key (arcs and loop index,
    ``circle_match``) is the order-preserving one.  The touched circles are
    read off the passages here, not from the build's tables."""
    dc = kh.DiagramCube(pd)
    for u, v in cube.edges(pd.n):
        k = cube.edge_coordinate(u, v)
        rv, ru = dc.resolved(v), dc.resolved(u)
        rest_v, rest_u = ([i for i, c in enumerate(rd.circles)
                           if all(p.crossing != k for p in c.passages)] for rd in (rv, ru))
        keyed = dc.circle_match(rv, ru)
        assert len(rest_v) == len(rest_u), (pd, u, v)
        assert {c: keyed.get(c) for c in rest_v} == dict(zip(rest_v, rest_u)), (pd, u, v)


def test_untouched_circles_go_in_order_on_the_corpus(pd_corpus):
    """``_edge_positions`` sends the circles away from the changed crossing
    in order, with no circle-key map: circles sort by (0, least arc) or (1,
    loop index) and such a circle keeps its arcs.  On every edge of every
    bundled diagram the order-preserving map is the circle-key map."""
    for pd in pd_corpus.values():
        _assert_untouched_circles_go_in_order(pd)


@pytest.mark.parametrize("pd_of", [lambda pds: pds["fig8"],
                                   lambda pds: kh.braid_closure_pd([1, -2] * 4, 3)],
                         ids=["fig8", "(s1 s2^-1)^4"])
@pytest.mark.parametrize("reduced", [False, True])
def test_kh_table_walks_masks_not_tuple_vertices(pd_corpus, pd_of, reduced, monkeypatch):
    """The table's build, coherence pass and split read vertices as masks
    and edges by (mask, coordinate) lists: no tuple vertex is turned into a
    mask, and no edge's coordinate is found from its tuple ends."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(functor, "_mask", counted("_mask", functor._mask))
    monkeypatch.setattr(cube, "edge_coordinate", counted("edge_coordinate", cube.edge_coordinate))
    pd = pd_of(pd_corpus)
    rows = kh.kh_table(pd, reduced=reduced, basepoint=1 if reduced else None)
    assert rows and calls == {}


# -- ladybug machinery --------------------------------------------------------------

def test_detect_ladybug_absent_cases(pd_corpus):
    tref = pd_corpus["trefoil_pos"]
    dc = kh.DiagramCube(tref)
    face = cube.Face2.from_top((1, 1, 0), 0, 1)
    gens_u = dc.generators(face.top)
    gens_w = dc.generators(face.bottom)
    for x, z in itertools.product(gens_u, gens_w):
        assert dc.detect_ladybug(face, x, z) is None


def test_ladybug_found_in_corpus(pd_corpus):
    pd = pd_corpus["unknot_ladybug"]
    dc = kh.DiagramCube(pd)
    data = dc.stable_functor().functor
    found = 0
    for face in cube.faces2(pd.n):
        ca = composite_along_chain(data, (face.top, face.mid_a, face.bottom))
        cb = composite_along_chain(data, (face.top, face.mid_b, face.bottom))
        for key, elems in ca.fibers().items():
            if len(elems) == 2:
                x, z = key
                lady = dc.detect_ladybug(face, x, z)
                assert lady is not None
                assert len(cb.fibers()[key]) == 2
                found += 1
                # wrong label: no ladybug
                flip_z = z.replace("+", "?").replace("-", "+").replace("?", "-")
                assert dc.detect_ladybug(face, x, flip_z) is None
    assert found >= 1


def test_ladybug_numbering_does_not_matter(pd_corpus):
    pd = pd_corpus["unknot_ladybug"]
    dc = kh.DiagramCube(pd)
    data = dc.stable_functor().functor
    for face in cube.faces2(pd.n):
        ca = composite_along_chain(data, (face.top, face.mid_a, face.bottom))
        for key, elems in ca.fibers().items():
            if len(elems) != 2:
                continue
            x, z = key
            lady = dc.detect_ladybug(face, x, z)
            swapped = kh.LadybugData(
                lady.face, lady.bottom_circle, lady.top_circle, lady.endpoints,
                (lady.right_pair[1], lady.right_pair[0]),
                (lady.split_a[1], lady.split_a[0]),
                (lady.split_b[1], lady.split_b[0]))
            a = dc.ladybug_transfer(lady)
            b = dc.ladybug_transfer(swapped)
            assert a == b


def test_ladybug_involution(pd_corpus):
    # swapping the roles of the two middles inverts the transfer of labels
    pd = pd_corpus["unknot_ladybug"]
    dc = kh.DiagramCube(pd)
    data = dc.stable_functor().functor
    for face in cube.faces2(pd.n):
        ca = composite_along_chain(data, (face.top, face.mid_a, face.bottom))
        for key, elems in ca.fibers().items():
            if len(elems) != 2:
                continue
            x, z = key
            lady = dc.detect_ladybug(face, x, z)
            fwd = dc.ladybug_transfer(lady)
            reversed_data = kh.LadybugData(
                cube.Face2(face.top, face.mid_b, face.mid_a, face.bottom),
                lady.bottom_circle, lady.top_circle, lady.endpoints,
                lady.right_pair, lady.split_b, lady.split_a)
            back = dc.ladybug_transfer(reversed_data)
            assert {v: k for k, v in enumerate(fwd)} == dict(enumerate(back))


def test_face_matching_is_two_morphism_corpus(small_corpus):
    # every face's matching, as the build names it on positions, passes the
    # 2-morphism check of the coherence pass
    for name, pd in small_corpus.items():
        dc = kh.DiagramCube(pd)
        edges, _ = dc._indexed()
        for v, t, (i, j) in functor._tops(pd.n, 2):
            sides = functor._sides(edges, t, i, j)
            pa, pb = functor._face_composites(*sides)
            ka, kb = functor._fiber_keys(sides[0], pa), functor._fiber_keys(sides[1], pb)
            image = dc.matching_image(v, t, i, j, sides, pa, pb, ka, kb)
            table = functor._table(sides, pa, pb, ka, kb, image)
            assert not isinstance(table, str), (name, v, i, j)


def test_flipping_ladybug_breaks_coherence(pd_corpus):
    pd = pd_corpus["unknot_ladybug"]
    dc = kh.DiagramCube(pd)
    full = dc.stable_functor().functor
    assert validate_coherence(full).ok
    for face in cube.faces2(pd.n):
        ca = composite_along_chain(full, (face.top, face.mid_a, face.bottom))
        twos = [k for k, v in ca.fibers().items() if len(v) == 2]
        if not twos:
            continue
        m = full.matching(face)
        d = m.as_dict()
        fib = ca.fibers()[twos[0]]
        d[fib[0].id], d[fib[1].id] = d[fib[1].id], d[fib[0].id]
        from cubeburnside.burnside import BijectionOver
        fm = dict(full.face_matchings)
        fm[face] = BijectionOver.of(m.src, m.dst, d)
        flipped = CubeFunctorData(full.n, full.vertex_sets, full.edge_corrs, fm)
        assert not validate_coherence(flipped).ok
        return
    pytest.fail("no ladybug face found")


def _flip_one_ladybug(monkeypatch):
    """Make the build's per-face matching step swap the images of one
    two-element fiber, on the first face (in pass order) that has one."""
    matching_image = kh.DiagramCube.matching_image
    flipped_face = []

    def flipping(self, v, t, i, j, sides, pa, pb, ka, kb):
        image = matching_image(self, v, t, i, j, sides, pa, pb, ka, kb)
        twos = [p for p, key in enumerate(ka) if ka.count(key) == 2]
        if twos and not flipped_face:
            flipped_face.append((t, i, j))
        if flipped_face == [(t, i, j)]:
            p = twos[0]
            q = next(q for q in twos if q > p and ka[q] == ka[p])
            image[p], image[q] = image[q], image[p]
        return image

    monkeypatch.setattr(kh.DiagramCube, "matching_image", flipping)


@pytest.mark.parametrize("matchings", [True, False])
@pytest.mark.parametrize("build", [kh.build_khovanov_functor,
                                   lambda pd, matchings: kh.reduced_functor(pd, 1, matchings)],
                         ids=["build_khovanov_functor", "reduced_functor"])
def test_flipped_ladybug_fails_the_build(pd_corpus, monkeypatch, build, matchings):
    """Swapping one ladybug fiber's images keeps a 2-morphism, so only a
    hexagon can catch it, with or without written matchings."""
    _flip_one_ladybug(monkeypatch)
    with pytest.raises(InternalInvariantError, match="hexagon does not commute"):
        build(pd_corpus["unknot_ladybug"], matchings)


def test_flipped_ladybug_fails_kh_verify(pd_corpus, monkeypatch):
    # kh verify reads the checked build, so a hexagon failure exits 3
    from click.testing import CliRunner
    from cubeburnside.cli import main
    _flip_one_ladybug(monkeypatch)
    res = CliRunner().invoke(main, ["kh", "verify", "unknot_ladybug", "--json"],
                             catch_exceptions=False)
    assert res.exit_code == 3 and res.stdout == ""
    assert "hexagon does not commute" in res.stderr


@pytest.mark.parametrize("reduced", [False, True])
def test_flipped_ladybug_fails_kh_table(pd_corpus, monkeypatch, reduced):
    # the table writes no matching, and still checks every hexagon
    _flip_one_ladybug(monkeypatch)
    with pytest.raises(InternalInvariantError, match="hexagon does not commute"):
        kh.kh_table(pd_corpus["unknot_ladybug"], reduced=reduced, basepoint=1)


def _walk_reference(edges, t, coords):
    """The elements of the 3-face's first chain composite, listed by
    ``chain_steps``, that share their (top, bottom) endpoints with another
    element; and the composite's size."""
    i, j, k = coords
    chain = [edges[t][i], edges[t ^ 1 << i][j], edges[t ^ 1 << i ^ 1 << j][k]]
    steps = ref.chain_steps(chain)
    keys = [(chain[0][0][a], chain[2][1][c]) for a, _, c in steps]
    count = collections.Counter(keys)
    return [st for st, key in zip(steps, keys) if count[key] > 1], len(steps)


def _khovanov_edges(pd):
    return pd.n, kh.DiagramCube(pd)._indexed()[0]


def _mixed_edges():
    """The wedge cube beside the trefoil's functor: one 3-face whose
    composite has a fiber of four elements and five fibers of one."""
    f = coproduct(corpus.load_functor("wedge_cube").functor,
                  kh.build_khovanov_functor(corpus.load_pd("trefoil_pos")).functor)
    return f.n, functor._indexed(f)[1]


@pytest.mark.parametrize("edges_of, counts", [
    (lambda pds: _khovanov_edges(kh.braid_closure_pd([1, -2] * 4, 3)), (0, 11_112, 0, 1_792)),
    (lambda pds: _khovanov_edges(kh.braid_closure_pd([1, 2] * 4, 3)), (2_160, 7_920, 816, 1_792)),
    (lambda pds: _khovanov_edges(pds["unknot_ladybug"]), (2, 2, 1, 1)),
    (lambda pds: _khovanov_edges(kh.braid_closure_pd([1, -2, 3, 1, -2, 3, 2], 4)),
     (332, 3_063, 125, 560)),
    (lambda pds: _mixed_edges(), (4, 9, 1, 1)),
], ids=["(s1 s2^-1)^4", "T(3,4)", "unknot_ladybug", "s1 s2^-1 s3 s1 s2^-1 s3 s2",
        "wedge_cube + trefoil_pos"])
def test_hexagon_walks_only_fibers_of_two_or_more(pd_corpus, edges_of, counts):
    """Summed over every 3-face of the Khovanov edge positions (and of one
    functor whose 3-face mixes fiber sizes): the walked elements, the
    3-step composite elements, the 3-faces with a nonempty walk and all
    3-faces.  Each walk is the composite's elements in (top, bottom)
    fibers of two or more, in composite order."""
    n, edges = edges_of(pd_corpus)
    walked = elements = faces_walked = faces = 0
    for _, t, coords in functor._tops(n, 3):
        walk = functor._hexagon_walk(t, coords, edges)
        reference, size = _walk_reference(edges, t, coords)
        assert walk == reference, (t, coords)
        walked, elements = walked + len(walk), elements + size
        faces_walked, faces = faces_walked + bool(walk), faces + 1
    assert (walked, elements, faces_walked, faces) == counts


def test_search_checks_no_hexagon_without_a_walk(monkeypatch):
    """The bare trefoil_kink functor has no fiber of two or more in any
    3-step composite, so its search calls the hexagon kernel 0 times and
    still finds its one completion, the build's forced matchings."""
    kink = kh.build_khovanov_functor(corpus.load_pd("trefoil_kink")).functor
    bare = CubeFunctorData.build(kink.n, kink.vertex_sets, kink.edge_corrs, None)
    calls = []
    kernel = functor._hexagon_commutes

    def counted(*args):
        calls.append(args[:2])
        return kernel(*args)

    monkeypatch.setattr(functor, "_hexagon_commutes", counted)
    assert functor.enumerate_matchings(bare) == [
        {face: dict(m.mapping) for face, m in kink.face_matchings.items()}]
    assert calls == []


# sha256 of the canonical JSON of the full and (at arc 1) the reduced functor
FUNCTOR_JSON_SHA = {
    "fig8": ("81265becb3ec078b", "1f32e3ccba135dd9"),
    "granny": ("aad363c0cd973d1b", "035d6cc1d81950b9"),
    "hopf": ("a5b89dd4f3cfcd6f", "ab743c1b0f28a7df"),
    "hopf_unknot": ("d3ab07605b9ecc73", "a6c1bbde22c1fe5b"),
    "kink_disjoint": ("d50814bd53e19611", "b1e97bdeb501c577"),
    "kink_kink": ("ff43947fafc020a6", "4c68e27a0e5b3486"),
    "kink_neg": ("ca78bf30a2ae9f8c", "75b31503ab7eae94"),
    "kink_pos": ("30a274c93be156e3", "8f19977056f399f7"),
    "square_knot": ("d0d6de8040c10ea0", "1a967c8effff350d"),
    "trefoil_fig8": ("1552181f9d57cb43", "028a4268291a85f3"),
    "trefoil_kink": ("cf572d093ab40985", "f274b800d26ee7e8"),
    "trefoil_neg": ("9c2a8c765fa0efbd", "d613aa6c249b407b"),
    "trefoil_pos": ("45e8ee01ae51ac7a", "02ca2087126f1d60"),
    "trefoil_unknot": ("93ce5b98bb8ec4c2", "09a1478775bf0366"),
    "unknot_ladybug": ("f31d4a38a642cdfd", "9772cf666028bbf7"),
    "unknot_r2": ("01319b19289e69b4", "08abc4b8bb990ed7"),
    "unknot0": ("f656f55f01df5e76", None),
    "unknot_pair": ("a45917c9ea0628a4", None),
}


def test_functor_json_is_pinned(pd_corpus):
    """The string form of the Khovanov functor (ids, element order and
    face matchings), full and reduced, on every PD fixture."""
    def sha(sf):
        text = json.dumps(functor_to_json(sf), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert set(FUNCTOR_JSON_SHA) == set(pd_corpus)
    for name, (full, reduced) in FUNCTOR_JSON_SHA.items():
        pd = pd_corpus[name]
        assert sha(kh.build_khovanov_functor(pd)) == full, name
        assert (sha(kh.reduced_functor(pd, 1)) if 1 in pd.arcs() else None) == reduced, name


# -- the functor and its totalization ------------------------------------------------

def test_build_unknot0(pd_corpus):
    sf = kh.build_khovanov_functor(pd_corpus["unknot0"])
    assert sf.shift == 0
    assert sf.functor.n == 0
    assert len(sf.functor.vset(())) == 2


def test_each_vertex_resolved_once_each_square_composed_once_per_pass(
        pd_corpus, monkeypatch):
    """A table (plain or reduced) and ``kh verify`` resolve every vertex
    once, make one generator set per circle count (3 on fig8's 16
    vertices) and build the functor data once.  A table lists the
    composites once per distinct side key, in the coherence pass on
    positions: 10 of fig8's 24 faces have distinct sides.  ``kh verify``
    lists them once more, in the string ``validate_coherence`` of the
    unvalidated data, whose equal edges are one object too."""
    from click.testing import CliRunner
    from cubeburnside.cli import main

    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kh, "resolve", counted("resolve", kh.resolve))
    monkeypatch.setattr(kh, "FiniteSet", counted("generator sets", kh.FiniteSet))
    monkeypatch.setattr(CubeFunctorData, "build",
                        staticmethod(counted("build", CubeFunctorData.build)))
    monkeypatch.setattr(functor, "_face_composites",
                        counted("face composites", functor._face_composites))
    pd = pd_corpus["fig8"]
    assert (len(cube.faces2(pd.n)), len(cube.vertices(pd.n))) == (24, 16)
    once = {"resolve": 2 ** pd.n, "generator sets": 3, "build": 1, "face composites": 10}
    runs = [(lambda: kh.kh_table(pd), 1),
            (lambda: kh.kh_table(pd, reduced=True, basepoint=1), 1),
            (lambda: CliRunner().invoke(main, ["kh", "verify", "fig8"],
                                        catch_exceptions=False), 2)]
    for run, passes in runs:
        calls.clear()
        run()
        assert calls == {**once, "face composites": passes * once["face composites"]}


def test_equal_ids_and_labels_are_one_string():
    """The closure of (σ1σ2⁻¹)^4 has 6,408 edge elements with 208 distinct
    ids; each id and each generator label is stored once, not per edge or
    per vertex."""
    pd = kh.braid_closure_pd([1, -2] * 4, 3)
    f = kh.build_khovanov_functor(pd, matchings=False).functor
    ids = [e.id for c in f.edge_corrs.values() for e in c.elements]
    labels = [x for s in f.vertex_sets.values() for x in s]
    assert (len(ids), len(set(ids)), len({id(x) for x in ids})) == (6408, 208, 208)
    assert len({id(x) for x in labels}) == len(set(labels))


@pytest.mark.parametrize("pd_of, sets", [(lambda pds: pds["fig8"], 3),
                                         (lambda pds: kh.braid_closure_pd([1, -2] * 4, 3), 5)],
                         ids=["fig8", "(s1 s2^-1)^4"])
def test_equal_vertex_sets_and_edges_are_one_object(pd_corpus, pd_of, sets):
    """Vertices with equal circle counts share one generator set (3 sets
    for the 16 vertices of fig8, 5 for the 256 of the (σ1σ2⁻¹)^4 closure),
    and edges with equal elements one element tuple.  The build releases
    its resolutions once the coherence pass has read them."""
    dc = kh.DiagramCube(pd_of(pd_corpus))
    f = dc.stable_functor(matchings=False).functor
    vertex_sets = list(f.vertex_sets.values())
    assert len({s.elements for s in vertex_sets}) == len({id(s) for s in vertex_sets}) == sets
    elements = [c.elements for c in f.edge_corrs.values()]
    assert len(set(elements)) == len({id(es) for es in elements}) < len(elements)
    assert not dc._resolved


@pytest.mark.parametrize("reduced", [False, True])
def test_diagram_tables_are_built_once_per_cube(pd_corpus, monkeypatch, reduced):
    """A table lists the arc occurrences and reads the crossing signs as
    often on ``fig8`` (16 vertices) as on ``trefoil_pos`` (8): the slot
    partners are built once per ``DiagramCube``, not once per resolution."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_occurrences", "per_crossing_signs"):
        monkeypatch.setattr(kh, name, counted(name, getattr(kh, name)))
    counts = []
    for name in ("trefoil_pos", "fig8"):
        calls.clear()
        kh.kh_table(pd_corpus[name], reduced=reduced, basepoint=1 if reduced else None)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"_occurrences": 4 + reduced, "per_crossing_signs": 2}


def test_corpus_functors_coherent(small_corpus):
    for name, pd in small_corpus.items():
        sf = kh.build_khovanov_functor(pd)  # validates on construction
        assert validate_c0(sf.functor).ok, name


def test_linearized_edges_transpose_of_matrix_path(small_corpus):
    # the span layer and the direct matrix tables describe the same maps
    for name, pd in small_corpus.items():
        dc = kh.DiagramCube(pd)
        for (u, v) in cube.edges(pd.n):
            corr = dc.edge_correspondence(u, v)
            gu, gv = list(dc.generators(u)), list(dc.generators(v))
            rv, ru = dc.resolved(v), dc.resolved(u)
            vk = [i for i, c in enumerate(rv.circles)
                  if any(p.crossing == cube.edge_coordinate(u, v)
                         for p in c.passages)]
            uk = [i for i, c in enumerate(ru.circles)
                  if any(p.crossing == cube.edge_coordinate(u, v)
                         for p in c.passages)]
            stable = dc.circle_match(rv, ru)
            rows = []
            for x in gu:
                row = []
                for y in gv:
                    row.append(1 if x in kh._abelian_images(y, rv, ru, vk, uk, stable)
                               else 0)
                rows.append(row)
            ab_matrix = Matrix.from_rows(rows)  # rows x (at u), cols y (at v)
            assert linearize(corr) == ab_matrix.transpose(), (name, u, v)


def test_unknot_tables_match(pd_corpus):
    expect = [{"i": 0, "j": -1, "rank": 1, "torsion": []},
              {"i": 0, "j": 1, "rank": 1, "torsion": []}]
    for name in ("unknot0", "kink_neg", "kink_pos", "unknot_r2",
                 "unknot_ladybug", "kink_kink"):
        assert kh.kh_table(pd_corpus[name]) == expect, name


def test_trefoil_published_table(pd_corpus):
    assert kh.kh_table(pd_corpus["trefoil_pos"]) == [
        {"i": 0, "j": 1, "rank": 1, "torsion": []},
        {"i": 0, "j": 3, "rank": 1, "torsion": []},
        {"i": 2, "j": 5, "rank": 1, "torsion": []},
        {"i": 3, "j": 7, "rank": 0, "torsion": [2]},
        {"i": 3, "j": 9, "rank": 1, "torsion": []},
    ]
    assert kh.kh_table(pd_corpus["trefoil_neg"]) == [
        {"i": -3, "j": -9, "rank": 1, "torsion": []},
        {"i": -2, "j": -7, "rank": 0, "torsion": [2]},
        {"i": -2, "j": -5, "rank": 1, "torsion": []},
        {"i": 0, "j": -3, "rank": 1, "torsion": []},
        {"i": 0, "j": -1, "rank": 1, "torsion": []},
    ]


def test_fig8_published_table(pd_corpus):
    assert kh.kh_table(pd_corpus["fig8"]) == [
        {"i": -2, "j": -5, "rank": 1, "torsion": []},
        {"i": -1, "j": -3, "rank": 0, "torsion": [2]},
        {"i": -1, "j": -1, "rank": 1, "torsion": []},
        {"i": 0, "j": -1, "rank": 1, "torsion": []},
        {"i": 0, "j": 1, "rank": 1, "torsion": []},
        {"i": 1, "j": 1, "rank": 1, "torsion": []},
        {"i": 2, "j": 3, "rank": 0, "torsion": [2]},
        {"i": 2, "j": 5, "rank": 1, "torsion": []},
    ]


def test_hopf_table(pd_corpus):
    assert kh.kh_table(pd_corpus["hopf"]) == [
        {"i": 0, "j": 0, "rank": 1, "torsion": []},
        {"i": 0, "j": 2, "rank": 1, "torsion": []},
        {"i": 2, "j": 4, "rank": 1, "torsion": []},
        {"i": 2, "j": 6, "rank": 1, "torsion": []},
    ]


def test_tables_match_direct_route(small_corpus):
    for name, pd in small_corpus.items():
        assert kh.kh_table(pd) == kh.kh_table_direct(pd), name


def test_tables_match_direct_route_large(pd_corpus):
    for name in ("granny", "square_knot", "trefoil_fig8"):
        pd = pd_corpus[name]
        assert kh.kh_table(pd) == kh.kh_table_direct(pd), name


def test_rmove_pairs_same_homology(pd_corpus):
    for a, b in FX.rmove_pairs():
        assert kh.kh_table(pd_corpus[a]) == kh.kh_table(pd_corpus[b]), (a, b)


def test_split_by_quantum(pd_corpus):
    u0 = pd_corpus["unknot0"]
    sf = kh.build_khovanov_functor(u0)
    parts = kh.split_by_quantum(u0, sf)
    assert sorted(parts) == [-1, 1]
    assert all(len(p.functor.vset(())) == 1 for p in parts.values())
    # the coproduct of the parts is naturally isomorphic to the functor
    kink = pd_corpus["kink_neg"]
    sk = kh.build_khovanov_functor(kink)
    ps = kh.split_by_quantum(kink, sk)
    total = None
    for j in sorted(ps):
        total = ps[j].functor if total is None else coproduct(total, ps[j].functor)
    assert find_natural_isomorphism(total, sk.functor) is not None


def test_split_by_quantum_homology_additivity(pd_corpus):
    tref = pd_corpus["trefoil_pos"]
    sf = kh.build_khovanov_functor(tref)
    whole = {d: (h.free_rank, tuple(sorted(h.torsion)))
             for d, h in homology_nontrivial(tot(sf)).items()}
    summed = None
    for j, part in sorted(kh.split_by_quantum(tref, sf).items()):
        c = tot(part)
        summed = c if summed is None else direct_sum(summed, c)
    got = {d: (h.free_rank, tuple(sorted(h.torsion)))
           for d, h in homology_nontrivial(summed).items()}
    assert got == whole


def test_split_parts_match_composed_reference(small_corpus, restrict_by_composing):
    """Every quantum part, plain and reduced at basepoint 1, is coherent and
    equals the restriction whose face composites are composed again."""
    for name, pd in sorted(small_corpus.items()):
        full = kh.build_khovanov_functor(pd)
        variants = [(full, False)]
        if 1 in pd.arcs():
            red = kh.reduced_functor(pd, 1)
            kept = set(red.functor.support())
            assert red.functor == restrict_by_composing(full.functor, kept), name
            variants.append((red, True))
        for sf, reduced in variants:
            grading = kh.generator_gradings(pd, sf.functor, reduced)
            for j, part in kh.split_by_quantum(pd, sf, reduced=reduced).items():
                assert validate_coherence(part.functor).ok, (name, reduced, j)
                s = {(v, x) for v, x in sf.functor.support() if grading[v][x] == j}
                assert part.functor == restrict_by_composing(sf.functor, s), \
                    (name, reduced, j)


def test_split_is_one_restriction_pass(monkeypatch):
    """On the closure of (σ1σ2⁻¹)^4 (10 gradings, 1792 faces), the split
    calls the restriction once and validates a matching only where a part
    has a generator at a corner, plus one shared empty matching: 8021
    against 17920 for a matching per (part, face)."""
    pd = kh.braid_closure_pd([1, -2] * 4, 3)
    sf = kh.build_khovanov_functor(pd)
    calls = collections.Counter()
    restrict_parts, post_init = kh.restrict_parts, burnside.BijectionOver.__post_init__

    def counted_restrict(*args):
        calls["restrict_parts"] += 1
        return restrict_parts(*args)

    def counted_post_init(self):
        calls["BijectionOver"] += 1
        post_init(self)

    monkeypatch.setattr(kh, "restrict_parts", counted_restrict)
    monkeypatch.setattr(burnside.BijectionOver, "__post_init__", counted_post_init)
    parts = kh.split_by_quantum(pd, sf)
    monkeypatch.undo()
    occupied = sum(1 for part in parts.values() for face in part.functor.face_matchings
                   if len(part.functor.vset(face.top)) or len(part.functor.vset(face.bottom)))
    assert (len(parts), len(sf.functor.face_matchings), occupied) == (10, 1792, 8020)
    assert calls == {"restrict_parts": 1, "BijectionOver": occupied + 1}


def test_split_rejects_an_edge_between_gradings(pd_corpus, monkeypatch):
    """A generator moved to another grading leaves an edge element joining
    two parts, which the split refuses with the closure witness."""
    tref = pd_corpus["trefoil_pos"]
    sf = kh.build_khovanov_functor(tref)
    gradings = kh.generator_gradings

    def moved(pd, f, reduced=False):
        out = gradings(pd, f, reduced)
        x = next(iter(out[(0, 0, 0)]))
        out[(0, 0, 0)][x] += 2
        return out

    monkeypatch.setattr(kh, "generator_gradings", moved)
    with pytest.raises(InputError, match="subset does not span a subcomplex: .* leaves"):
        kh.split_by_quantum(tref, sf)


def _splits_of_kh_table(pd, reduced, monkeypatch):
    """The parts that ``kh_table`` totalizes, caught at its split."""
    seen = []
    split = kh.split_by_quantum

    def caught(*args, **kwargs):
        seen.append(split(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(kh, "split_by_quantum", caught)
    kh.kh_table(pd, reduced=reduced, basepoint=1 if reduced else None)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


def test_kh_table_split_matches_split_with_matchings(small_corpus, monkeypatch):
    """``kh_table`` splits vertices and edges only; plain and reduced at
    basepoint 1, its parts are the gradings, vertices and edges of the split
    with matchings, and totalize to the same complexes."""
    for name, pd in sorted(small_corpus.items()):
        variants = [(False, kh.build_khovanov_functor(pd))]
        if 1 in pd.arcs():
            variants.append((True, kh.reduced_functor(pd, 1)))
        for reduced, sf in variants:
            got = _splits_of_kh_table(pd, reduced, monkeypatch)
            want = kh.split_by_quantum(pd, sf, reduced=reduced)
            assert list(got) == list(want), (name, reduced)
            for j, part in got.items():
                f, g = part.functor, want[j].functor
                assert not f.has_matchings and g.has_matchings, (name, reduced, j)
                assert (f.vertex_sets, f.edge_corrs, part.shift) == \
                    (g.vertex_sets, g.edge_corrs, want[j].shift), (name, reduced, j)
                assert tot(part) == tot(want[j]), (name, reduced, j)


@pytest.mark.parametrize("reduced", [False, True])
def test_kh_table_builds_one_correspondence_per_distinct_split_edge(monkeypatch, reduced):
    """On the closure of (σ1σ2⁻¹)^4 (1,024 edges, 10 gradings) ``kh_table``
    builds one ``Correspondence`` per distinct edge of the functor (36),
    and each restriction (the reduced table's quotient, then the split)
    one per distinct (edge, splits at its ends) and part, plus its shared
    empty edge: 342 plain and 318 reduced, where one per edge and part
    made about 5,000."""
    pd = kh.braid_closure_pd([1, -2] * 4, 3)
    made, restricted = [0], []
    post_init, restrict_parts = burnside.Correspondence.__post_init__, functor.restrict_parts

    def counted(self):
        made[0] += 1
        post_init(self)

    def caught(*args):
        restricted.append(restrict_parts(*args))
        return restricted[-1]

    monkeypatch.setattr(burnside.Correspondence, "__post_init__", counted)
    monkeypatch.setattr(functor, "restrict_parts", caught)
    monkeypatch.setattr(kh, "restrict_parts", caught)
    kh.kh_table(pd, reduced=reduced, basepoint=1 if reduced else None)
    monkeypatch.undo()
    built = kh.build_khovanov_functor(pd, matchings=False).functor
    distinct = len({id(c) for c in built.edge_corrs.values()})
    # a part's edge with neither end in the part is the call's one empty edge
    split_edges = [1 + len({id(c) for part in parts.values() for c in part.edge_corrs.values()
                            if len(c.source_set) or len(c.target_set)})
                   for parts in restricted]
    assert (distinct, len(built.edge_corrs), len(restricted)) == (36, 1024, 1 + reduced)
    assert made[0] == distinct + sum(split_edges) == (318 if reduced else 342)


def test_split_names_the_first_edge_between_parts_where_edges_are_shared(pd_corpus):
    """fig8's 32 edges are 8 objects.  A generator moved to another grading
    at 1100 makes edge 1101>1100 the first to join two parts, though its
    object serves an earlier edge whose split passes; the restriction,
    which splits each (edge, end splits) once, still names 1101>1100."""
    pd = pd_corpus["fig8"]
    f = kh.build_khovanov_functor(pd, matchings=False).functor
    grades = kh.generator_gradings(pd, f)
    grades[(1, 1, 0, 0)]["+++"] += 2  # this vertex's copy alone
    edges = list(f.edge_corrs.items())
    at, (u, v), e = next((n, uv, e) for n, (uv, c) in enumerate(edges) for e in c.elements
                         if grades[uv[0]][e.s] != grades[uv[1]][e.t])
    assert (len({id(c) for _, c in edges}), cube.bits(u), cube.bits(v)) == (8, "1101", "1100")
    assert any(c is edges[at][1] for _, c in edges[:at])
    assert sum(g != h for g, h in zip(grades.values(), kh.generator_gradings(pd, f).values())) == 1
    with pytest.raises(InputError) as exc:
        functor.restrict_parts(f, grades, sorted({j for g in grades.values() for j in g.values()}))
    assert str(exc.value) == "subset does not span a subcomplex: " + functor._leaves(u, v, e)


def test_kh_table_split_rejects_an_edge_between_gradings(pd_corpus, monkeypatch):
    # the edge-only split keeps the closure check of the split with matchings
    gradings = kh.generator_gradings

    def moved(pd, f, reduced=False):
        out = gradings(pd, f, reduced)
        x = next(iter(out[(0, 0, 0)]))
        out[(0, 0, 0)][x] += 2
        return out

    monkeypatch.setattr(kh, "generator_gradings", moved)
    with pytest.raises(InputError, match="subset does not span a subcomplex: .* leaves"):
        kh.kh_table(pd_corpus["trefoil_pos"])


@pytest.mark.parametrize("matchings", [True, False])
@pytest.mark.parametrize("reduced", [False, True])
def test_split_edges_run_between_their_parts_sets(pd_corpus, reduced, matchings):
    """Every edge of every part runs from that part's set at its source to
    its set at its target, also where the part has no edge element but
    generators at a corner: only an edge with neither corner in the part
    takes the shared empty value."""
    pd = pd_corpus["trefoil_fig8"]
    sf = (kh.reduced_functor(pd, 1, matchings) if reduced
          else kh.build_khovanov_functor(pd, matchings))
    parts = kh.split_by_quantum(pd, sf, reduced=reduced)
    empty_between_generators = 0
    for j, part in parts.items():
        f = part.functor
        assert f.has_matchings == matchings
        for (u, v), corr in f.edge_corrs.items():
            assert (corr.source_set, corr.target_set) == (f.vset(u), f.vset(v)), (j, u, v)
            if not corr.elements and (len(f.vset(u)) or len(f.vset(v))):
                empty_between_generators += 1
    assert empty_between_generators > 0


def test_kh_table_validates_matchings_once(monkeypatch):
    """An unreduced table on the closure of (σ1σ2⁻¹)^4 checks its matchings
    on positions and writes none: it constructs no ``BijectionOver``, and
    its one split builds no face data."""
    pd = kh.braid_closure_pd([1, -2] * 4, 3)
    calls = collections.Counter()
    splits = []
    restrict_parts, post_init = kh.restrict_parts, burnside.BijectionOver.__post_init__

    def counted_restrict(*args):
        splits.append(restrict_parts(*args))
        return splits[-1]

    def counted_post_init(self):
        calls["BijectionOver"] += 1
        post_init(self)

    monkeypatch.setattr(kh, "restrict_parts", counted_restrict)
    monkeypatch.setattr(burnside.BijectionOver, "__post_init__", counted_post_init)
    kh.kh_table(pd)
    monkeypatch.undo()
    assert calls == {}
    assert len(splits) == 1 and len(splits[0]) == 10
    assert not any(part.has_matchings for part in splits[0].values())

# -- reduced -------------------------------------------------------------------------

def test_reduced_unknot(pd_corpus):
    assert kh.kh_table(pd_corpus["unknot0"], reduced=True,
                       basepoint=("loop", 0)) == \
        [{"i": 0, "j": 0, "rank": 1, "torsion": []}]
    assert kh.kh_table(pd_corpus["kink_neg"], reduced=True, basepoint=1) == \
        [{"i": 0, "j": 0, "rank": 1, "torsion": []}]


def test_reduced_trefoil(pd_corpus):
    rows = kh.kh_table(pd_corpus["trefoil_pos"], reduced=True, basepoint=1)
    assert sum(r["rank"] for r in rows) == 3
    assert all(r["torsion"] == [] for r in rows)
    assert rows == kh.kh_table_direct(pd_corpus["trefoil_pos"], reduced=True,
                                      basepoint=1)


def test_reduced_unknown_basepoint(pd_corpus):
    with pytest.raises(InputError):
        kh.reduced_functor(pd_corpus["kink_neg"], 99)


@pytest.mark.parametrize("table", [kh.kh_table, kh.kh_table_direct])
@pytest.mark.parametrize("basepoint", [99, ("loop", 0)])
def test_bad_basepoint_rejected_before_any_resolution(table, basepoint, monkeypatch):
    # the checks depend on the diagram alone, so no vertex of the 2^8 is resolved
    calls = collections.Counter()
    resolve = kh.resolve

    def counted(*args, **kwargs):
        calls["resolve"] += 1
        return resolve(*args, **kwargs)

    monkeypatch.setattr(kh, "resolve", counted)
    pd = kh.braid_closure_pd([1, -2] * 4, 3)
    with pytest.raises(InputError, match="unknown basepoint"):
        table(pd, reduced=True, basepoint=basepoint)
    assert calls["resolve"] == 0


@pytest.mark.parametrize("table", [kh.kh_table, kh.kh_table_direct])
@pytest.mark.parametrize("basepoint", [1.5, 1.0, True, "abc", "1", ("arc", 1),
                                       ("loop", 0.0), ("loop", False), ("loop", "x"),
                                       ("loop",)], ids=repr)
def test_basepoint_of_another_type_refused(table, basepoint, pd_corpus, monkeypatch):
    # a float, a bool or a string is not truncated or parsed to an arc or a
    # loop, and no ValueError leaks
    calls = collections.Counter()
    resolve = kh.resolve

    def counted(*args, **kwargs):
        calls["resolve"] += 1
        return resolve(*args, **kwargs)

    monkeypatch.setattr(kh, "resolve", counted)
    pd = kh.disjoint_union_pd(pd_corpus["trefoil_pos"], kh.PDCode((), 1))
    with pytest.raises(InputError, match="basepoint"):
        table(pd, reduced=True, basepoint=basepoint)
    assert calls["resolve"] == 0


# -- unions and sums -----------------------------------------------------------------

def test_disjoint_union_basics(pd_corpus):
    u0 = pd_corpus["unknot0"]
    both = kh.disjoint_union_pd(u0, u0)
    assert both.free_loops == 2
    sf = kh.build_khovanov_functor(both)
    assert len(sf.functor.vset(())) == 4


def test_reduced_connect_sum_kuenneth(pd_corpus):
    # reduced homology of both three-crossing sums is the tensor square of
    # the reduced factor (torsion-free, so a plain bigraded convolution)
    tref = pd_corpus["trefoil_pos"]
    g, bp = kh.connect_sum_pd(tref, 1, tref, 1)
    assert g == pd_corpus["granny"]
    rows = kh.kh_table(g, reduced=True, basepoint=bp)
    factor = kh.kh_table(tref, reduced=True, basepoint=1)
    conv = {}
    for r1 in factor:
        for r2 in factor:
            key = (r1["i"] + r2["i"], r1["j"] + r2["j"])
            conv[key] = conv.get(key, 0) + r1["rank"] * r2["rank"]
    assert {(r["i"], r["j"]): r["rank"] for r in rows} == conv
    assert all(r["torsion"] == [] for r in rows)
    sq, bp2 = kh.connect_sum_pd(tref, 1, pd_corpus["trefoil_neg"], 1)
    rows2 = kh.kh_table(sq, reduced=True, basepoint=bp2)
    assert sum(r["rank"] for r in rows2) == 9
    assert all(r["torsion"] == [] for r in rows2)


def test_connect_sum_is_valid_and_invariant(pd_corpus):
    tref = pd_corpus["trefoil_pos"]
    granny = pd_corpus["granny"]
    kh.validate_pd(granny)
    assert granny.n == 6
    # adding a kink by connect sum keeps the homology (R1 at homology level)
    assert kh.kh_table(pd_corpus["trefoil_kink"]) == kh.kh_table(tref)


def test_connect_sum_errors(pd_corpus):
    with pytest.raises(InputError):
        kh.connect_sum_pd(pd_corpus["unknot0"], 1, pd_corpus["kink_neg"], 1)
    with pytest.raises(InputError):
        kh.connect_sum_pd(pd_corpus["kink_neg"], 7, pd_corpus["kink_neg"], 1)


def test_braid_closure_sweep():
    # coherence (hexagons included) and two-route table agreement across a
    # sample of closures rich in ladybug squares
    words = [(1, 1, -1), (-1, 1, 1), (1, -1, -1), (1, 1, 1, -1),
             (1, 2, -1, 2), (1, -2, 1, -2), (-1, 2, 2, -1), (1, 2, -1, -2)]
    lady = 0
    for w in words:
        strands = max(abs(g) for g in w) + 1
        pd = kh.braid_closure_pd(list(w), strands)
        kh.build_khovanov_functor(pd)  # raises if any square or hexagon fails
        assert kh.kh_table(pd) == kh.kh_table_direct(pd), w
        dc = kh.DiagramCube(pd)
        data = dc.stable_functor().functor
        for face in cube.faces2(pd.n):
            ca = composite_along_chain(data, (face.top, face.mid_a, face.bottom))
            lady += sum(1 for v in ca.fibers().values() if len(v) == 2)
    assert lady > 0


def _laurent_mul(a, b):
    out = collections.Counter()
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return {k: x for k, x in out.items() if x}


def _circle_count(pd, v):
    """Circles of the resolution v, by a union-find over arcs: the
    0-resolution joins slots 0-3 and 1-2 of a crossing, the 1-resolution
    slots 0-1 and 2-3."""
    parent = {a: a for x in pd.crossings for a in x}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for x, bit in zip(pd.crossings, v):
        for s, t in (((0, 3), (1, 2)), ((0, 1), (2, 3)))[bit]:
            parent[find(x[s])] = find(x[t])
    return len({find(a) for a in parent}) + pd.free_loops


def _jones_from_states(pd):
    """(-1)^{n-} q^{n+ - 2 n-} sum_v (-q)^{|v|} (q + q^-1)^{c(v)}, the graded
    Euler characteristic of Khovanov homology, as {exponent: coefficient}."""
    np_, nm = kh.crossing_signs(pd)
    total = collections.Counter()
    for v in itertools.product((0, 1), repeat=pd.n):
        term = {sum(v): (-1) ** sum(v)}
        for _ in range(_circle_count(pd, v)):
            term = _laurent_mul(term, {1: 1, -1: 1})
        for k, x in term.items():
            total[k + np_ - 2 * nm] += (-1) ** nm * x
    return {k: x for k, x in total.items() if x}


def _euler_characteristic(rows):
    out = collections.Counter()
    for r in rows:
        out[r["j"]] += (-1) ** r["i"] * r["rank"]
    return {k: x for k, x in out.items() if x}


def test_euler_characteristic_trefoil(pd_corpus):
    # the golden trefoil table gives q + q^3 + q^5 - q^9
    pd = pd_corpus["trefoil_pos"]
    assert _euler_characteristic(kh.kh_table(pd)) == {1: 1, 3: 1, 5: 1, 9: -1}
    assert _jones_from_states(pd) == {1: 1, 3: 1, 5: 1, 9: -1}


@st.composite
def braid_words(draw, max_size=6):
    strands = draw(st.integers(2, 3))
    gens = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(gens, min_size=1, max_size=max_size)), strands


@given(braid_words())
@settings(max_examples=30, deadline=None)
def test_drawn_braids_two_routes_and_euler_characteristic(word_strands):
    word, strands = word_strands
    try:
        pd = kh.braid_closure_pd(word, strands)
    except InputError:  # a closure whose orientation the word leaves open
        assume(False)
    rows = kh.kh_table(pd)
    assert rows == kh.kh_table_direct(pd)
    assert _euler_characteristic(rows) == _jones_from_states(pd)


@given(braid_words(max_size=7))
@settings(max_examples=40, deadline=None)
def test_untouched_circles_go_in_order_on_drawn_braids(word_strands):
    word, strands = word_strands
    try:
        pd = kh.braid_closure_pd(word, strands)
    except InputError:  # a closure whose orientation the word leaves open
        assume(False)
    _assert_untouched_circles_go_in_order(pd)


@st.composite
def markov_moves(draw):
    """A braid word of 1-5 letters on 2-3 strands and its image under a
    Markov move: a cyclic rotation, a conjugation by a generator or its
    inverse, or a stabilization onto one more strand (at most 7 letters)."""
    word, strands = draw(braid_words(max_size=5))
    move = draw(st.sampled_from(("rotate", "conjugate", "stabilize")))
    sign = draw(st.sampled_from((1, -1)))
    if move == "rotate":
        r = draw(st.integers(1, len(word)))
        return (word, strands), (word[r:] + word[:r], strands)
    if move == "conjugate":
        k = sign * draw(st.integers(1, strands - 1))
        return (word, strands), ([k] + word + [-k], strands)
    return (word, strands), (word + [sign * strands], strands + 1)


@given(markov_moves())
@settings(max_examples=12, deadline=None)
def test_kh_table_invariant_under_markov_moves(pair):
    """Braid closures related by a Markov move are the same oriented link,
    so their Khovanov tables agree."""
    tables = []
    for word, strands in pair:
        try:
            pd = kh.braid_closure_pd(word, strands)
        except InputError:  # a closure whose orientation the word leaves open
            assume(False)
        tables.append(kh.kh_table(pd))
    assert tables[0] == tables[1]


def test_markov_move_examples():
    s1_cubed = kh.kh_table(kh.braid_closure_pd([1, 1, 1], 2))
    for sign in (1, -1):
        assert kh.kh_table(kh.braid_closure_pd([1, 1, 1, 2 * sign], 3)) == s1_cubed
    word = [1, -2, 1, -2]
    assert (kh.kh_table(kh.braid_closure_pd(word[1:] + word[:1], 3))
            == kh.kh_table(kh.braid_closure_pd(word, 3)))


def _groups(rows):
    return {(r["i"], r["j"]): (r["rank"], sorted(r["torsion"])) for r in rows}


def _mirror_groups(rows):
    """The groups of the mirror, by duality over Z: the free part of
    Kh^{i,j} moves to (-i, -j), its torsion to (1 - i, -j)."""
    out = collections.defaultdict(lambda: (0, []))
    for r in rows:
        if r["rank"]:
            key = (-r["i"], -r["j"])
            out[key] = (r["rank"], out[key][1])
        if r["torsion"]:
            key = (1 - r["i"], -r["j"])
            out[key] = (out[key][0], sorted(r["torsion"]))
    return dict(out)


def test_mirror_duality_trefoil(pd_corpus):
    # the Z/2 at (3, 7) of the positive trefoil sits at (-2, -7) in its mirror
    pos = kh.kh_table(pd_corpus["trefoil_pos"])
    neg = kh.kh_table(pd_corpus["trefoil_neg"])
    assert _groups(neg) == _mirror_groups(pos)
    assert _groups(pos) == _mirror_groups(neg)
    assert _groups(neg)[(-2, -7)] == (0, [2])


@given(braid_words())
@settings(max_examples=10, deadline=None)
def test_mirror_duality_on_braid_words(word_strands):
    """Flipping every crossing of a braid word mirrors its closure."""
    word, strands = word_strands
    tables = []
    for w in (word, [-g for g in word]):
        try:
            pd = kh.braid_closure_pd(w, strands)
        except InputError:  # a closure whose orientation the word leaves open
            assume(False)
        tables.append(kh.kh_table(pd))
    assert _groups(tables[1]) == _mirror_groups(tables[0])


def test_braid_closure_ambiguous_orientation():
    # an all-over two-arc component leaves its orientation undetermined
    with pytest.raises(InputError):
        kh.braid_closure_pd([1, -1], 2)


def test_braid_closure(pd_corpus):
    tref = kh.braid_closure_pd([1, 1, 1], 2)
    assert sum(kh.crossing_signs(tref)) == 3
    assert kh.kh_table(tref) in (kh.kh_table(pd_corpus["trefoil_pos"]),
                                 kh.kh_table(pd_corpus["trefoil_neg"]))
    with_loop = kh.braid_closure_pd([1], 3)
    assert with_loop.free_loops == 1
    with pytest.raises(InputError):
        kh.braid_closure_pd([3], 2)
