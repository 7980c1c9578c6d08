"""The indexed coherence pass against the string-id reference
(``coherence_reference``), on bundled functors and on mutations of them."""

import functools
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeburnside import cube, fixtures as FX
from cubeburnside import khovanov as kh
from cubeburnside.burnside import BijectionOver, CorrElem, Correspondence
from cubeburnside.functor import (CubeFunctorData, identity_transformation,
                                  validate_c0, validate_coherence)

import coherence_reference as ref

KHOVANOV = ("trefoil_pos", "fig8", "unknot_ladybug", "hopf_unknot", "kink_kink",
            "(s1 s2)^2 s1")
# braid closures among KHOVANOV, as (word, strands): the closure of (σ1σ2)²σ1
# has 12 ladybug fibers on faces whose four sides repeat on other faces
BRAIDS = {"(s1 s2)^2 s1": ([1, 2, 1, 2, 1], 3)}
NAMES = KHOVANOV + ("trefoil_pos identity", "wedge_cube", "zero_extension_cube",
                    "smash_square", "projective")
MUTATIONS = ("none", "flip a ladybug matching", "invert a matching",
             "cross two fibers", "retarget an edge element", "drop the matchings")


@functools.cache
def bundled() -> dict[str, CubeFunctorData]:
    corpus = FX.pd_corpus()
    out = {name: kh.build_khovanov_functor(
               kh.braid_closure_pd(*BRAIDS[name]) if name in BRAIDS else corpus[name]).functor
           for name in KHOVANOV}
    out["trefoil_pos identity"] = identity_transformation(out["trefoil_pos"]).ambient
    out["wedge_cube"] = FX.wedge_cube()
    out["zero_extension_cube"] = FX.zero_extension_cube()
    out["smash_square"] = FX.smash_square()
    out["projective"] = FX.projective_functor()
    return out


def mutate(f: CubeFunctorData, mutation: str, pick: int) -> CubeFunctorData:
    """f with one change; ``pick`` chooses where, among the places the
    change applies to (none: f unchanged)."""
    faces = cube.faces2(f.n) if f.has_matchings else []
    fm = f.face_matchings and dict(f.face_matchings)
    if mutation == "flip a ladybug matching":
        # swap the images of a two-element fiber: still a 2-morphism
        where = [(face, fiber) for face in faces
                 for fiber in f.matching(face).src.fibers().values() if len(fiber) == 2]
        if where:
            face, (a, b) = where[pick % len(where)]
            d = f.matching(face).as_dict()
            d[a.id], d[b.id] = d[b.id], d[a.id]
            fm[face] = BijectionOver.of(f.matching(face).src, f.matching(face).dst, d)
    elif mutation == "invert a matching":
        # a matching whose source is the other path's composite
        if faces:
            face = faces[pick % len(faces)]
            fm[face] = f.matching(face).inverse()
    elif mutation == "cross two fibers":
        # swap the images of two elements in different fibers, bypassing
        # BijectionOver's own check: the endpoints stay the face composites
        where = [(face, a, b) for face in faces
                 for a, b in itertools.combinations(f.matching(face).src.elements, 2)
                 if (a.s, a.t) != (b.s, b.t)]
        if where:
            face, a, b = where[pick % len(where)]
            d = f.matching(face).as_dict()
            d[a.id], d[b.id] = d[b.id], d[a.id]
            crossed = object.__new__(BijectionOver)
            for name, value in (("src", f.matching(face).src), ("dst", f.matching(face).dst),
                                ("mapping", tuple(sorted(d.items())))):
                object.__setattr__(crossed, name, value)
            fm[face] = crossed
    elif mutation == "retarget an edge element":
        where = [(e, k) for e, c in f.edge_corrs.items() if len(c.target_set) > 1
                 for k in range(len(c.elements))]
        if where:
            e, k = where[pick % len(where)]
            c = f.edge_corrs[e]
            old = c.elements[k]
            t = next(x for x in c.target_set if x != old.t)
            elems = c.elements[:k] + (CorrElem(old.id, old.s, t),) + c.elements[k + 1:]
            ec = {**f.edge_corrs, e: Correspondence(c.source_set, c.target_set, elems)}
            return CubeFunctorData(f.n, f.vertex_sets, ec, fm)
    elif mutation == "drop the matchings":
        return CubeFunctorData(f.n, f.vertex_sets, f.edge_corrs, None)
    return CubeFunctorData(f.n, f.vertex_sets, f.edge_corrs, fm)


def assert_matches_reference(g: CubeFunctorData) -> None:
    assert validate_coherence(g) == ref.validate_coherence(g)
    assert validate_c0(g) == ref.validate_c0(g)


@given(st.sampled_from(NAMES), st.sampled_from(MUTATIONS),
       st.integers(0, 10_000))
@example("unknot_ladybug", "flip a ladybug matching", 0)
@example("trefoil_pos identity", "flip a ladybug matching", 3)
@example("(s1 s2)^2 s1", "flip a ladybug matching", 7)
@example("trefoil_pos", "invert a matching", 3)
@example("fig8", "cross two fibers", 0)
@example("fig8", "retarget an edge element", 0)
@example("wedge_cube", "drop the matchings", 0)
@settings(max_examples=60, deadline=None)
def test_coherence_matches_string_reference(name, mutation, pick):
    """The whole ``ValidationReport`` (verdict, failures with their wording
    and order, square condition) and ``validate_c0``'s report equal the
    reference's.  The report lists every failing 3-face in order, so it
    carries each hexagon verdict.  The flip on the closure of (σ1σ2)²σ1
    is on a face whose sides seven other faces share, with other images:
    a hexagon verdict shared by the walk alone, not by the walk and its
    six tables, reports it coherent."""
    assert_matches_reference(mutate(bundled()[name], mutation, pick))


def test_mutations_reach_every_check():
    """The examples above fail the hexagon, endpoint, 2-morphism,
    fiber-size and no-matchings checks, so dropping any of them breaks the
    oracle test."""
    f = bundled()
    flipped = validate_coherence(mutate(f["unknot_ladybug"], "flip a ladybug matching", 0))
    assert flipped.square_condition and "hexagon does not commute" in flipped.failures[0]
    inverted = validate_coherence(mutate(f["trefoil_pos"], "invert a matching", 3))
    assert inverted.failures == (
        "face 111>001 via 011|101: matching endpoints are not the stored composites",)
    crossed = validate_coherence(mutate(f["fig8"], "cross two fibers", 0))
    assert crossed.square_condition and "not a 2-morphism" in crossed.failures[0]
    retargeted = validate_coherence(mutate(f["fig8"], "retarget an edge element", 0))
    assert not retargeted.square_condition and "fiber sizes differ" in retargeted.failures[0]
    assert not validate_coherence(mutate(f["wedge_cube"], "drop the matchings", 0)).ok
