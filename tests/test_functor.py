import dataclasses
import itertools

import pytest

from cubeburnside import cube, fixtures as FX
from cubeburnside import khovanov as kh
from cubeburnside.burnside import (BijectionOver, Correspondence, FiniteSet,
                                   identity_correspondence)
from cubeburnside.cube import FaceInclusion
from cubeburnside.errors import InputError
from cubeburnside.functor import (CubeFunctorData, NaturalTransformation,
                                  StableFunctor,
                                  build_nat_trans, composite_along_chain,
                                  coproduct, empty_functor,
                                  enumerate_matchings,
                                  extend_along_face_inclusion,
                                  find_natural_isomorphism, forced_matchings,
                                  functor_from_json, functor_to_json,
                                  identity_transformation,
                                  is_natural_isomorphism, is_slice, one_point_functor,
                                  product, quotient_functor,
                                  quotient_functor_data,
                                  reconstruct_two_morphism,
                                  restrict_along_face_inclusion, slice_functor,
                                  sub_functor,
                                  sub_inclusion_transformation,
                                  validate_c0, validate_coherence,
                                  with_matchings, glue_along_top)
from cubeburnside.burnside import linearize
from cubeburnside.totalization import (complexes_equal_under, direct_sum,
                                       is_quasi_iso, tensor, tot,
                                       tot_nat_trans)


def test_validate_c0_low_dimensions(projective):
    assert validate_c0(one_point_functor()).ok
    assert validate_c0(projective).ok


def test_validate_c0_counterexample():
    data = FX.multiple_extension_square()
    assert validate_c0(data).ok
    # drop one element from one edge: composite sizes 2 vs 1 somewhere
    broken_edge = Correspondence.of(
        data.vset((1, 1)), data.vset((1, 0)), [("a1", "v11", "v10")])
    ec = dict(data.edge_corrs)
    ec[((1, 1), (1, 0))] = broken_edge
    broken = CubeFunctorData(2, data.vertex_sets, ec, None)
    rep = validate_c0(broken)
    assert not rep.ok
    assert "11>00" in rep.failures[0]


def test_validate_coherence_vacuous(projective):
    assert validate_coherence(projective).ok
    assert validate_coherence(one_point_functor()).ok
    assert validate_coherence(FX.smash_square()).ok


def test_validate_coherence_requires_matchings():
    assert not validate_coherence(FX.multiple_extension_square()).ok


def test_coherence_pass_decides_the_square_condition(wedge_cube):
    """validate_coherence's one pass over the squares gives validate_c0's
    verdict, also on data whose fiber sizes fail while it carries
    matchings, and then reports the same failures."""
    rep = validate_coherence(wedge_cube)
    assert rep.ok and rep.square_condition and validate_c0(wedge_cube).ok
    (u, v), corr = next((e, c) for e, c in wedge_cube.edge_corrs.items()
                        if len(c.elements) > 1)
    ec = dict(wedge_cube.edge_corrs)
    ec[(u, v)] = Correspondence(corr.source_set, corr.target_set, corr.elements[1:])
    broken = CubeFunctorData(wedge_cube.n, wedge_cube.vertex_sets, ec,
                             wedge_cube.face_matchings)
    c0, coherence = validate_c0(broken), validate_coherence(broken)
    assert not c0.ok and c0.failures
    assert coherence.square_condition == c0.ok
    assert not coherence.ok and coherence.failures == c0.failures


def test_composite_along_chain_examples(projective):
    edge = composite_along_chain(projective, ((1,), (0,)))
    assert edge == projective.edge((1,), (0,))
    ident = composite_along_chain(projective, ((1,),))
    assert ident == identity_correspondence(projective.vset((1,)))
    pp = product(projective, FX.projective_functor("x", "y", ("w1", "w2")))
    comp = composite_along_chain(pp, ((1, 1), (1, 0), (0, 0)))
    assert len(comp) == 4


def test_reconstruct_identity_and_single_swap():
    g = FX.smash_square()
    c1 = ((1, 1), (0, 1), (0, 0))
    c2 = ((1, 1), (1, 0), (0, 0))
    same = reconstruct_two_morphism(g, c1, c1)
    assert all(a == b for a, b in same.mapping)
    bij = reconstruct_two_morphism(g, c1, c2)
    assert bij.as_dict() == g.matching(FX.SQUARE_FACE).as_dict()
    back = reconstruct_two_morphism(g, c2, c1)
    assert back.as_dict() == g.matching(FX.SQUARE_FACE).inverse().as_dict()


def test_reconstruct_rejects_foreign_matching_endpoints(wedge_cube):
    """A swap reads a face's matching only where it sits on the face's
    composites: an inverted matching on unvalidated data raises, in either
    direction of the swap."""
    for face, m in wedge_cube.face_matchings.items():
        if not m.src.elements:
            continue
        f = dataclasses.replace(wedge_cube,
                                face_matchings={**wedge_cube.face_matchings, face: m.inverse()})
        via_a = (face.top, face.mid_a, face.bottom)
        via_b = (face.top, face.mid_b, face.bottom)
        for c1, c2 in ((via_a, via_b), (via_b, via_a)):
            with pytest.raises(InputError, match="matching endpoints are not the"):
                reconstruct_two_morphism(f, c1, c2)


def test_reconstruct_rejects_chains_whose_edges_do_not_compose(wedge_cube):
    """Edge 111>110 retargeted to p3 in {p3, z}: the chain through 110 does
    not compose, and either direction of the swap names it."""
    retargeted = dataclasses.replace(wedge_cube.edge((1, 1, 1), (1, 1, 0)),
                                     target_set=FiniteSet(("p3", "z")))
    f = dataclasses.replace(wedge_cube, edge_corrs={
        **wedge_cube.edge_corrs, ((1, 1, 1), (1, 1, 0)): retargeted})
    via_110, via_101 = ((1, 1, 1), (1, 1, 0), (1, 0, 0)), ((1, 1, 1), (1, 0, 1), (1, 0, 0))
    for c1, c2 in ((via_110, via_101), (via_101, via_110)):
        with pytest.raises(InputError, match="^chain 111>110>100: middle sets do not match"):
            reconstruct_two_morphism(f, c1, c2)


def test_reconstruct_path_independent_on_cube(wedge_cube):
    top, bottom = (1, 1, 1), (0, 0, 0)
    chains = cube.maximal_chains(top, bottom)
    for c1, c2 in itertools.combinations(chains, 2):
        expected = None
        for path in cube.all_swap_paths(c1, c2):
            bij = reconstruct_two_morphism(wedge_cube, c1, c2, swap_path=path)
            if expected is None:
                expected = bij.as_dict()
            else:
                assert bij.as_dict() == expected


def test_enumerate_matchings_counts():
    me = FX.multiple_extension_square()
    assert len(enumerate_matchings(me)) == 24
    pinned = enumerate_matchings(me, pinned={FX.SQUARE_FACE: {"d1∘c1": "b1∘a1"}})
    assert len(pinned) == 6


def test_enumerate_matchings_zero_extension():
    assert enumerate_matchings(FX.zero_extension_cube()) == []


def test_enumerate_matchings_interval(projective):
    res = enumerate_matchings(projective)
    assert len(res) == 1 and res[0] == {}


def test_search_caps(monkeypatch):
    from cubeburnside import functor
    from cubeburnside.errors import SearchCapExceeded
    # the 5-cube has 80 faces, above the face cap of 64
    with pytest.raises(SearchCapExceeded, match="80 faces"):
        enumerate_matchings(empty_functor(5))
    with pytest.raises(SearchCapExceeded):
        enumerate_matchings(FX.multiple_extension_square(), max_per_face=2)
    monkeypatch.setattr(functor, "MAX_ISO_NODES", 1)
    with pytest.raises(SearchCapExceeded):
        find_natural_isomorphism(FX.projective_functor(),
                                 FX.projective_functor("x", "y", ("w1", "w2")))


def _one_cube_cycles(k: int, block: int) -> CubeFunctorData:
    """A 1-cube functor on two k-element sets whose edge is a union of
    cycles of length 2 * block: element a_i meets b_i and the next b in its
    block, with no face matchings.  Every element has degree signature (2,)."""
    top = FiniteSet(tuple(f"a{i}" for i in range(k)))
    bottom = FiniteSet(tuple(f"b{i}" for i in range(k)))
    elements = []
    for i in range(k):
        j = i - i % block + (i % block + 1) % block
        elements += [(f"e{i}", f"a{i}", f"b{i}"), (f"d{i}", f"a{i}", f"b{j}")]
    return CubeFunctorData.build(1, {(1,): top, (0,): bottom},
                                 {((1,), (0,)): Correspondence.of(top, bottom, elements)})


def test_iso_search_counts_every_candidate(monkeypatch):
    """A node is one candidate, counted before anything reads it, so the
    cap bounds the work: a 24-cycle against four 6-cycles (12 elements a
    side, all of one degree signature) is refused after 1000 nodes, where
    listing the permutations of a vertex set first would take 12! steps."""
    from cubeburnside import functor
    from cubeburnside.errors import SearchCapExceeded
    monkeypatch.setattr(functor, "MAX_ISO_NODES", 1000)
    with pytest.raises(SearchCapExceeded):
        find_natural_isomorphism(_one_cube_cycles(12, 12), _one_cube_cycles(12, 3))
    for f in (_one_cube_cycles(12, 3), FX.wedge_cube_partial()):
        assert is_natural_isomorphism(f, f, *find_natural_isomorphism(f, f))


def test_trefoil_kink_is_naturally_isomorphic_to_itself(pd_corpus, monkeypatch):
    """Vertex 1111 of the kinked trefoil has 16 generators in degree
    signature classes of sizes 7, 2 and seven of 1; the search draws its
    candidates one class at a time, within a thousand nodes."""
    from cubeburnside import functor
    monkeypatch.setattr(functor, "MAX_ISO_NODES", 1000)
    f = kh.build_khovanov_functor(pd_corpus["trefoil_kink"]).functor
    found = find_natural_isomorphism(f, f)
    assert found is not None and is_natural_isomorphism(f, f, *found)


@pytest.mark.parametrize("word", [[1, 2] * 4, [1, -2] * 4])
def test_iso_search_runs_on_an_8_crossing_functor(word):
    """The search descends one level per vertex and per edge of the 8-cube
    (256 + 1024 levels) on an explicit stack, with no recursion that grows
    with the cube: T(3,4) and the closure of (s1 s2^-1)^4."""
    f = kh.build_khovanov_functor(kh.braid_closure_pd(word, 3)).functor
    found = find_natural_isomorphism(f, f)
    assert found is not None and is_natural_isomorphism(f, f, *found)


def test_iso_search_finds_each_edges_key_classes_once(monkeypatch):
    """The search lists an edge's key classes when its later endpoint takes
    its sigma, and its tau level draws from them: on T(3,4), which it
    solves without backtracking, once per vertex (256) and per edge
    (1,024), not again at the edge levels."""
    from cubeburnside import functor
    calls = [0]
    key_classes = functor._key_classes

    def counted(*args):
        calls[0] += 1
        return key_classes(*args)

    f = kh.build_khovanov_functor(kh.braid_closure_pd([1, 2] * 4, 3)).functor
    monkeypatch.setattr(functor, "_key_classes", counted)
    found = find_natural_isomorphism(f, f)
    assert calls[0] == len(f.vertex_sets) + len(f.edge_corrs) == 1280
    assert is_natural_isomorphism(f, f, *found)


def test_iso_search_reads_each_faces_matchings_once(monkeypatch):
    """The search reads a face's two matchings when it first tests the
    face, and keeps them: on T(3,4) (1,792 faces) g's matching becomes a
    dict once per face and f's is read as its pairs, where each face test
    used to build both dicts (3,584 calls)."""
    calls = [0]
    as_dict = BijectionOver.as_dict

    def counted(self):
        calls[0] += 1
        return as_dict(self)

    f = kh.build_khovanov_functor(kh.braid_closure_pd([1, 2] * 4, 3)).functor
    monkeypatch.setattr(BijectionOver, "as_dict", counted)
    found = find_natural_isomorphism(f, f)
    assert calls[0] == len(cube.faces2(f.n)) == 1792
    monkeypatch.undo()
    assert is_natural_isomorphism(f, f, *found)


def test_enumerate_matchings_keeps_its_completion_order(pd_corpus, monkeypatch):
    """Every face's candidates, and so every completion, come in the order
    of the per-fiber product the search drew them from before the one
    enumerator (``matching_reference``): on every bundled functor, the
    kinked trefoil's bare data and two pinned searches."""
    from cubeburnside import corpus, functor
    from matching_reference import fiber_images

    def bare(f):
        return CubeFunctorData.build(f.n, f.vertex_sets, f.edge_corrs, None)

    kink = kh.build_khovanov_functor(pd_corpus["trefoil_kink"]).functor
    cases = [(bare(corpus.load_functor(name).functor), None)
             for name in corpus.list_fixtures("functors")]
    cases += [(bare(kink), None),
              (FX.multiple_extension_square(), {FX.SQUARE_FACE: {"d1∘c1": "b1∘a1"}}),
              (FX.wedge_cube_partial(), {FX.WEDGE_PIN_FACE: {"d1∘c1": "b1∘a1"}})]
    drawn = functor._fiber_images

    def checked(*args):
        want = list(fiber_images(*args))
        assert list(drawn(*args)) == want
        return want

    for f, pinned in cases:
        got = enumerate_matchings(f, pinned=pinned)
        with monkeypatch.context() as m:
            m.setattr(functor, "_fiber_images", checked)
            assert got == enumerate_matchings(f, pinned=pinned)


def test_enumerate_matchings_agrees_with_naive_filter():
    # the pruned backtracking finds exactly the assignments that pass a full
    # coherence validation over all per-face candidates
    import itertools as it

    def candidates(data, face, pinned):
        """Every fiber-preserving bijection of the face composites that
        keeps the pins, enumerated on ids."""
        ca, cb = data.square(face)
        fa, fb = ca.fibers(), cb.fibers()
        per_fiber = []
        for key in sorted(fa):
            srcs = [e.id for e in fa[key]]
            opts = [dict(zip(srcs, perm)) for perm in it.permutations(e.id for e in fb[key])]
            per_fiber.append([m for m in opts
                              if all(m.get(s, t) == t for s, t in (pinned or {}).items())])
        return [BijectionOver.of(ca, cb, {s: t for part in combo for s, t in part.items()})
                for combo in it.product(*per_fiber)]

    def naive(data, pinned=None):
        faces = cube.faces2(data.n)
        cands = {f: candidates(data, f, (pinned or {}).get(f)) for f in faces}
        out = []
        for combo in it.product(*(cands[f] for f in faces)):
            fm = dict(zip(faces, combo))
            probe = CubeFunctorData(data.n, data.vertex_sets, data.edge_corrs, fm)
            if validate_coherence(probe).ok:
                out.append({f: b.as_dict() for f, b in fm.items()})
        return out

    ze = FX.zero_extension_cube()
    assert naive(ze) == enumerate_matchings(ze) == []
    wc = FX.wedge_cube_partial()
    pin = {FX.WEDGE_PIN_FACE: {f"d{j}∘c{i}": f"b{j}∘a{i}"
                               for i, j in it.product((1, 2), repeat=2)}}
    key = lambda m: sorted((repr(f), tuple(sorted(d.items()))) for f, d in m.items())
    assert sorted(map(key, naive(wc, pin))) == \
        sorted(map(key, enumerate_matchings(wc, pinned=pin)))


def test_search_and_forced_matchings_build_no_bijection_per_candidate(monkeypatch):
    """The search lists each face's composites at most twice (the fiber
    size check and its own pass) and builds no ``BijectionOver``; neither
    does the torus's Δ build, and its forced matchings build one per face
    with nonempty composites and one per distinct (top set, bottom set) of
    the rest."""
    from cubeburnside import corpus, functor, simplicial
    searched = {name: corpus.load_functor(name).functor for name in ("square_free", "wedge_cube")}
    calls = {"composites": 0, "bijections": 0}
    composites, post_init = functor._face_composites, BijectionOver.__post_init__

    def count_composites(*args):
        calls["composites"] += 1
        return composites(*args)

    def count_bijections(self):
        calls["bijections"] += 1
        post_init(self)

    monkeypatch.setattr(functor, "_face_composites", count_composites)
    monkeypatch.setattr(BijectionOver, "__post_init__", count_bijections)
    for name, f in searched.items():
        calls.update(composites=0, bijections=0)
        assert enumerate_matchings(f)
        assert calls["bijections"] == 0, name
        assert calls["composites"] <= 2 * len(cube.faces2(f.n)), name
    calls.update(bijections=0)
    bare_torus = simplicial.delta_functor(FX.delta_torus()).functor
    assert calls["bijections"] == 0
    assert bare_torus.face_matchings is None
    forced = forced_matchings(bare_torus)
    built = calls["bijections"]
    nonempty = [m for m in forced.face_matchings.values() if m.src.elements]
    empty_ends = {(m.src.source_set, m.src.target_set)
                  for m in forced.face_matchings.values() if not m.src.elements}
    assert (len(forced.face_matchings), len(nonempty), len(empty_ends)) == (672, 42, 64)
    assert built == len(nonempty) + len(empty_ends) == 106


def test_wedge_cube_unique_up_to_isomorphism():
    # sixteen completions, all relabelings of parallel edge elements
    completions = FX.wedge_cube_completions()
    assert len(completions) == 16
    partial = FX.wedge_cube_partial()
    functors = [with_matchings(partial, c) for c in completions]
    base = functors[0]
    for other in functors[1:]:
        assert find_natural_isomorphism(base, other) is not None


def test_coproduct_examples(projective):
    cp = coproduct(projective, empty_functor(1))
    assert find_natural_isomorphism(cp, projective) is not None
    pp = coproduct(projective, projective)
    assert len(pp.vset((1,))) == 2
    assert len(pp.edge((1,), (0,))) == 4
    with pytest.raises(InputError):
        coproduct(projective, one_point_functor())


def test_coproduct_totalization_is_direct_sum(projective):
    pp = coproduct(projective, projective)
    ds = direct_sum(tot(projective), tot(projective))

    def lmap(d, lbl):
        tag, rest = lbl[:2], lbl[2:]
        v, x = rest.split("|")
        return f"{v}|{tag}{x}"

    assert complexes_equal_under(ds, tot(pp), lmap)


def test_product_examples(projective):
    unit = product(projective, one_point_functor())
    assert find_natural_isomorphism(unit, projective) is not None
    pp = product(projective, FX.projective_functor("x", "y", ("w1", "w2")))
    assert find_natural_isomorphism(FX.smash_square(), pp) is not None
    tot(pp)  # differential squares to zero with the sign convention


@pytest.mark.parametrize("comma_first", [True, False])
def test_product_of_ids_with_commas(comma_first):
    """Pair ids are never parsed back: a factor id with a comma gives a
    coherent product, naturally isomorphic to the one with plain ids."""
    comma = FX.projective_functor("e", "f", ("u,1", "u2"))
    plain = FX.projective_functor("e", "f", ("u1", "u2"))
    # a square factor puts faces inside one factor as well as across both
    for other in (FX.projective_functor("x", "y", ("v1", "v2")), FX.smash_square()):
        pair = (lambda a: (a, other)) if comma_first else (lambda a: (other, a))
        prod_comma, prod_plain = product(*pair(comma)), product(*pair(plain))
        assert validate_coherence(prod_comma).ok
        assert find_natural_isomorphism(prod_comma, prod_plain) is not None


def test_product_totalization_is_tensor(projective):
    q = FX.projective_functor("x", "y", ("w1", "w2"))
    pp = product(projective, q)
    tens = tensor(tot(projective), tot(q))

    def lmap(d, lbl):
        a, b = lbl.split("⊗")
        va, xa = a.split("|")
        vb, xb = b.split("|")
        return f"{va}{vb}|({xa},{xb})"

    assert complexes_equal_under(tens, tot(pp), lmap)


def test_extension_examples(projective):
    ident = FaceInclusion.identity(1)
    assert extend_along_face_inclusion(projective, ident) == projective
    iota = FaceInclusion(1, 2, (0, 0), (1,))
    ext = extend_along_face_inclusion(projective, iota)
    assert ext.vset((0, 1)) == projective.vset((1,))
    assert len(ext.vset((1, 0))) == 0
    for v in cube.vertices(1):
        w = iota.apply(v)
        if len(ext.vset(w)):
            assert cube.grading(w) == cube.grading(v) + iota.weight


def test_restriction_round_trip(projective):
    iota = FaceInclusion(1, 3, (0, 1, 0), (0,))
    ext = extend_along_face_inclusion(projective, iota)
    assert restrict_along_face_inclusion(ext, iota) == projective
    other = FaceInclusion(1, 3, (0, 0, 0), (0,))
    with pytest.raises(InputError):
        restrict_along_face_inclusion(ext, other)


def test_extension_face_orientation_flip(projective):
    # a coordinate-reversing inclusion must reorient stored matchings
    g = FX.smash_square()
    tau = FaceInclusion(2, 2, (0, 0), (1, 0))
    twisted = extend_along_face_inclusion(g, tau)
    assert validate_coherence(twisted).ok
    assert extend_along_face_inclusion(twisted, tau) == g


def test_sub_functor_examples(wedge_cube):
    everything = {(v, x) for v in cube.vertices(3) for x in wedge_cube.vset(v)}
    assert sub_functor(wedge_cube, everything) == wedge_cube
    nothing = sub_functor(wedge_cube, set())
    assert all(len(nothing.vset(v)) == 0 for v in cube.vertices(3))
    with pytest.raises(InputError):
        sub_functor(wedge_cube, {((1, 1, 1), "t")})


def _target_closure(f, s):
    s = set(s)
    grew = True
    while grew:
        grew = False
        for (u, v) in cube.edges(f.n):
            for e in f.edge(u, v).elements:
                if (u, e.s) in s and (v, e.t) not in s:
                    s.add((v, e.t))
                    grew = True
    return s


def test_restriction_matches_composed_reference(wedge_cube, restrict_by_composing):
    """sub_functor and quotient_functor_data filter the stored matchings;
    composing the restricted edges again gives the same data."""
    gens = set(wedge_cube.support())
    for g in sorted(gens):
        closed = _target_closure(wedge_cube, {g})
        for restricted, s in ((sub_functor(wedge_cube, closed), closed),
                              (quotient_functor_data(wedge_cube, gens - closed),
                               gens - closed)):
            assert restricted == restrict_by_composing(wedge_cube, s), (g, s)
            assert validate_coherence(restricted).ok, (g, s)


def test_restriction_rejects_foreign_matching_endpoints(wedge_cube, pd_corpus):
    """Restriction trusts no matching whose endpoints are not the face's
    composites: an inverted or emptied matching on unvalidated data raises,
    with one part (sub_functor) and with several (the quantum split), also
    where the restriction leaves the face no composite (p1@010 and p2@000
    of the wedge cube, for the face 011>000)."""
    tref = pd_corpus["trefoil_pos"]
    cases = [(wedge_cube, lambda f: sub_functor(f, set(wedge_cube.support()))),
             (wedge_cube, lambda f: sub_functor(f, {((0, 1, 0), "p1"), ((0, 0, 0), "p2")})),
             (kh.build_khovanov_functor(tref).functor,
              lambda f: kh.split_by_quantum(tref, StableFunctor(f)))]
    for whole, restrict in cases:
        for face, m in whole.face_matchings.items():
            if not m.src.elements:
                continue
            empty = Correspondence(m.src.source_set, m.src.target_set, ())
            for bad in (m.inverse(), BijectionOver.of(empty, empty, {})):
                if (bad.src, bad.dst) == (m.src, m.dst):
                    continue  # a face whose two composites are equal data
                f = dataclasses.replace(whole,
                                        face_matchings={**whole.face_matchings, face: bad})
                with pytest.raises(InputError, match="not the composites"):
                    restrict(f)


def test_restriction_refuses_edges_that_do_not_compose(wedge_cube):
    """On unvalidated data whose edge 111>110 ends on a set other than the
    vertex's, the faces through 110 have no composites: restriction names
    the first with ``InputError``, not a bare ``ValueError``."""
    u, v = (1, 1, 1), (1, 1, 0)
    c = wedge_cube.edge(u, v)
    bent = Correspondence(c.source_set, FiniteSet(("p3", "z")), c.elements)
    f = dataclasses.replace(wedge_cube, edge_corrs={**wedge_cube.edge_corrs, (u, v): bent})
    with pytest.raises(InputError, match=r"face 111>010 via 011\|110: middle sets do not match"):
        sub_functor(f, set(wedge_cube.support()))


def test_quotient_functor_examples(projective):
    everything = {(v, x) for v in cube.vertices(1) for x in projective.vset(v)}
    q, eta = quotient_functor(projective, everything)
    assert q == projective
    assert is_quasi_iso(tot_nat_trans(eta))
    # acyclic complement: projection is a quasi-isomorphism
    acyc = CubeFunctorData.build(
        1, {(1,): FiniteSet(("x",)), (0,): FiniteSet(("y",))},
        {((1,), (0,)): Correspondence.of(FiniteSet(("x",)), FiniteSet(("y",)),
                                         [("w", "x", "y")])}, {})
    b = coproduct(projective, acyc)
    keep = {((1,), "l·e"), ((0,), "l·f")}
    q2, eta2 = quotient_functor(b, keep)
    assert is_quasi_iso(tot_nat_trans(eta2))
    # empty quotient of a non-acyclic functor: projection is not a quasi-iso
    q3, eta3 = quotient_functor(acyc, set())
    assert is_quasi_iso(tot_nat_trans(eta3))       # acyclic source: fine
    q4, eta4 = quotient_functor(projective, set())
    assert not is_quasi_iso(tot_nat_trans(eta4))   # H_0 = Z/2 is lost


def test_build_nat_trans_identity(projective):
    eta = identity_transformation(projective)
    assert eta.source_functor() == projective
    assert eta.target_functor() == projective
    assert is_quasi_iso(tot_nat_trans(eta))


def test_build_nat_trans_needs_every_mixed_square(projective):
    comps = {v: identity_correspondence(projective.vset(v))
             for v in cube.vertices(1)}
    with pytest.raises(InputError, match="mixed square over edge 1>0: no matching given"):
        build_nat_trans(projective, projective, comps, {})


def test_build_nat_trans_rejects_incoherent(projective):
    comps = {v: identity_correspondence(projective.vset(v))
             for v in cube.vertices(1)}
    mixed = {((1,), (0,)): {"u1∘e": "f∘u2", "u2∘e": "f∘u1"}}
    eta = build_nat_trans(projective, projective, comps, mixed)
    assert validate_coherence(eta.ambient).ok
    bad = {((1,), (0,)): {"u1∘e": "f∘u1"}}
    with pytest.raises(InputError):
        build_nat_trans(projective, projective, comps, bad)


def test_wedge_inclusions_are_natural_transformations(wedge_cube):
    support_f = {((1, 1, 0), "p3"), ((1, 0, 0), "p4"),
                 ((0, 1, 0), "p1"), ((0, 0, 0), "p2")}
    fsub, eta = sub_inclusion_transformation(wedge_cube, support_f)
    assert eta.source_functor() == fsub
    assert eta.target_functor() == wedge_cube
    assert is_quasi_iso(tot_nat_trans(eta))
    support_fp = {((0, 1, 1), "p5"), ((0, 1, 0), "p1"),
                  ((0, 0, 1), "p6"), ((0, 0, 0), "p2")}
    fsub2, eta2 = sub_inclusion_transformation(wedge_cube, support_fp)
    assert is_quasi_iso(tot_nat_trans(eta2))


def test_glue_along_top(projective):
    eta = identity_transformation(projective)
    h, th_l, th_r = glue_along_top(eta, identity_transformation(projective))
    assert validate_coherence(h).ok
    assert is_quasi_iso(tot_nat_trans(th_l))
    assert is_quasi_iso(tot_nat_trans(th_r))
    acyc = CubeFunctorData.build(
        1, {(1,): FiniteSet(("x",)), (0,): FiniteSet(("y",))},
        {((1,), (0,)): Correspondence.of(FiniteSet(("x",)), FiniteSet(("y",)),
                                         [("w", "x", "y")])}, {})
    b = coproduct(projective, acyc)
    keep = {((1,), "l·e"), ((0,), "l·f")}
    _, etap = quotient_functor(b, keep)
    _, etaq = quotient_functor(b, keep)
    h2, a, bb = glue_along_top(etap, etaq)
    assert is_quasi_iso(tot_nat_trans(a)) and is_quasi_iso(tot_nat_trans(bb))
    with pytest.raises(InputError):
        glue_along_top(eta, identity_transformation(acyc))


def test_glue_along_top_same_side_faces(pd_corpus, wedge_cube):
    """Gluing two identity transformations of a functor f of dimension 2 or
    3, whose ambient cube has faces on each side: H is coherent, its 0-side
    is coproduct(f, f) with its matchings, its 1-side is f, and both
    inclusions are quasi-isomorphisms."""
    for f in (FX.wedge_square(), wedge_cube,
              kh.build_khovanov_functor(pd_corpus["trefoil_pos"]).functor):
        h, th_l, th_r = glue_along_top(identity_transformation(f),
                                       identity_transformation(f))
        assert validate_coherence(h).ok
        glued = NaturalTransformation(h)
        assert glued.target_functor() == coproduct(f, f)
        assert glued.source_functor() == f
        assert is_quasi_iso(tot_nat_trans(th_l)) and is_quasi_iso(tot_nat_trans(th_r))


def test_matching_linearizations_agree(wedge_cube):
    for face in cube.faces2(3):
        m = wedge_cube.matching(face)
        assert linearize(m.src) == linearize(m.dst)


def test_natural_isomorphism_verifier(projective):
    q = FX.projective_functor("x", "y", ("w1", "w2"))
    found = find_natural_isomorphism(projective, q)
    assert found is not None
    sigma, tau = found
    assert is_natural_isomorphism(projective, q, sigma, tau)
    assert find_natural_isomorphism(FX.wedge_square(), FX.smash_square()) is None


def test_tagging_relabel(projective):
    tagged = coproduct(projective, empty_functor(1))
    assert tagged.vset((1,)).elements == ("l·e",)
    assert tagged.edge((1,), (0,)).ids() == ("l·u1", "l·u2")
    assert find_natural_isomorphism(tagged, projective) is not None


def test_functor_json_round_trip(wedge_cube):
    sf = StableFunctor(wedge_cube, -2)
    again = functor_from_json(functor_to_json(sf))
    assert again.shift == -2
    assert again.functor == wedge_cube
    partial = FX.zero_extension_cube()
    again2 = functor_from_json(functor_to_json(StableFunctor(partial, 0)))
    assert again2.functor == partial
    assert not again2.functor.has_matchings


def test_functor_json_reversed_face_key():
    g = FX.smash_square()
    obj = functor_to_json(StableFunctor(g, 0))
    (key, mapping), = obj["faces"].items()
    top_bot, mids = key.split(" via ")
    ma, mb = mids.split("|")
    flipped_key = f"{top_bot} via {mb}|{ma}"
    obj["faces"] = {flipped_key: {v: k for k, v in mapping.items()}}
    assert functor_from_json(obj).functor == g


def test_is_side_agrees_with_the_built_slice(projective, wedge_cube):
    """``is_side`` decides, in place, what comparing with the sliced side
    decides: on functors that differ in dimension, vertex sets, edges,
    matchings only (the 16 wedge cube completions), or in having none."""
    partial = FX.wedge_cube_partial()
    completions = [with_matchings(partial, c) for c in FX.wedge_cube_completions()]
    support = {((1, 1, 0), "p3"), ((1, 0, 0), "p4"), ((0, 1, 0), "p1"), ((0, 0, 0), "p2")}
    transformations = [identity_transformation(completions[0]),
                       identity_transformation(completions[5]),
                       sub_inclusion_transformation(wedge_cube, support)[1],
                       identity_transformation(projective)]
    others = completions + [partial, wedge_cube, projective, empty_functor(3)]
    verdicts = set()
    for eta in transformations:
        for bit, side in ((1, eta.source_functor()), (0, eta.target_functor())):
            for g in others + [eta.source_functor(), eta.target_functor()]:
                verdict = eta.is_side(bit, g)
                assert verdict == (side == g)
                verdicts.add((verdict, g.vertex_sets == side.vertex_sets))
    assert verdicts == {(True, True), (False, True), (False, False)}
    # inclusions that reverse the order of some coordinates read a face's
    # matching through its inverse
    for iota in (FaceInclusion(3, 3, (0, 0, 0), (2, 0, 1)), FaceInclusion(2, 3, (0, 1, 0), (2, 0))):
        sliced = [slice_functor(f, iota) for f in completions[:4]]
        for f in completions[:4]:
            assert [is_slice(f, iota, g) for g in sliced] == [g == slice_functor(f, iota)
                                                             for g in sliced]
        assert {is_slice(completions[0], iota, g) for g in sliced} == {True, False}


def test_functor_json_rejects_bad_data(projective):
    obj = functor_to_json(StableFunctor(projective, 0))
    broken = {**obj, "edges": {"1>0": [{"id": "u", "s": "nope", "t": "f"}]}}
    with pytest.raises(InputError):
        functor_from_json(broken)
    with pytest.raises(InputError):
        functor_from_json({**functor_to_json(StableFunctor(FX.smash_square(), 0)),
                           "faces": {"garbled": {}}})


def test_forced_matchings_rejects_ambiguity(projective):
    pp = product(projective, projective)
    with pytest.raises(InputError):
        forced_matchings(CubeFunctorData(pp.n, pp.vertex_sets, pp.edge_corrs, None))


def test_forced_matchings_rejects_unequal_fiber_sizes():
    # one path of the square doubles its first edge: fiber sizes 1 and 2
    sets = {v: FiniteSet((f"p{cube.bits(v)}",)) for v in cube.vertices(2)}

    def edge(u, v, ids):
        return Correspondence.of(sets[u], sets[v], [(x, *sets[u], *sets[v]) for x in ids])

    data = CubeFunctorData.build(2, sets, {
        ((1, 1), (0, 1)): edge((1, 1), (0, 1), ["a"]),
        ((0, 1), (0, 0)): edge((0, 1), (0, 0), ["b"]),
        ((1, 1), (1, 0)): edge((1, 1), (1, 0), ["c1", "c2"]),
        ((1, 0), (0, 0)): edge((1, 0), (0, 0), ["d"])})
    with pytest.raises(InputError, match=r"face 11>00 via 01\|10: fiber sizes differ"):
        forced_matchings(data)


def _canonical_chain(u, v):
    changed = sorted(i for i, (a, b) in enumerate(zip(u, v)) if a != b)
    return cube.chain_from_coords(u, changed)


def _concat(*chains):
    out = list(chains[0])
    for c in chains[1:]:
        assert out[-1] == c[0]
        out.extend(c[1:])
    return tuple(out)


def _lift(full, offset, seg_path):
    cur = full
    out = []
    for idx, _ in seg_path:
        cur = cube.chain_swap(cur, idx + offset)
        out.append((idx + offset, cur))
    return out, cur


def test_pentagon_via_reconstruction(wedge_cube):
    """Reassociating three composable steps through either middle gives the
    same bijection, with composites reconstructed along canonical chains.
    Exhaustive over all chains u > v > w > z of the 3-cube and of a
    4-dimensional diagram functor."""
    fig8 = kh.build_khovanov_functor(
        kh.parse_pd("PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]")).functor
    for f in (wedge_cube, fig8):
        verts = cube.vertices(f.n)
        quads = [(u, v, w, z)
                 for u in verts for v in verts for w in verts for z in verts
                 if u != v and v != w and w != z
                 and cube.geq(u, v) and cube.geq(v, w) and cube.geq(w, z)]
        for (u, v, w, z) in quads:
            muv, mvw, mwz = (_canonical_chain(u, v), _canonical_chain(v, w),
                             _canonical_chain(w, z))
            muw = _canonical_chain(u, w)
            mvz = _canonical_chain(v, z)
            muz = _canonical_chain(u, z)
            full = _concat(muv, mvw, mwz)
            # route one: standardize the lower segment first
            p1, mid1 = _lift(full, len(muv) - 1,
                             cube.chain_swap_path(_concat(mvw, mwz), mvz))
            assert mid1 == _concat(muv, mvz)
            p1b = cube.chain_swap_path(mid1, muz)
            r1 = reconstruct_two_morphism(f, full, muz, swap_path=p1 + p1b)
            # route two: standardize the upper segment first
            p2, mid2 = _lift(full, 0, cube.chain_swap_path(_concat(muv, mvw), muw))
            assert mid2 == _concat(muw, mwz)
            p2b = cube.chain_swap_path(mid2, muz)
            r2 = reconstruct_two_morphism(f, full, muz, swap_path=p2 + p2b)
            assert r1.as_dict() == r2.as_dict(), (u, v, w, z)
