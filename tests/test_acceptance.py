"""One test per acceptance criterion; each prints a PASS line when it
holds.  All comparisons are exact integer equalities."""

import itertools
import random
import time

import pytest

from cubeburnside import cube, fixtures as FX
from cubeburnside import khovanov as kh
from cubeburnside import simplicial
from cubeburnside.burnside import Correspondence, FiniteSet
from cubeburnside.certificates import verify_certificate
from cubeburnside.corpus import load_golden
from cubeburnside.cube import FaceInclusion
from cubeburnside.errors import InternalInvariantError
from cubeburnside.functor import (CubeFunctorData, StableFunctor, coproduct,
                                  enumerate_matchings,
                                  find_natural_isomorphism,
                                  identity_transformation, product,
                                  quotient_functor, reconstruct_two_morphism,
                                  sub_inclusion_transformation, validate_c0,
                                  validate_coherence)
from cubeburnside.totalization import (complexes_equal_under, cone,
                                       face_shift_iso, homology_nontrivial,
                                       is_quasi_iso, tot, tot_nat_trans)


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_01_corpus_coherence(pd_corpus):
    start = time.time()
    for name, pd in pd_corpus.items():
        sf = kh.build_khovanov_functor(pd)
        assert validate_c0(sf.functor).ok, name
        assert validate_coherence(sf.functor).ok, name
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("1 (diagram functor coherence)",
           f"{len(pd_corpus)} diagrams in {elapsed:.1f}s")


def test_criterion_02_d_squared_zero(pd_corpus):
    count = 0
    for name, pd in pd_corpus.items():
        tot(kh.build_khovanov_functor(pd))
        count += 1
    for x in FX.delta_fixtures().values():
        tot(simplicial.delta_functor(x))
        count += 1
    for f in (FX.projective_functor(), FX.smash_square(), FX.wedge_square(),
              FX.wedge_cube(), FX.multiple_extension_square(),
              FX.zero_extension_cube()):
        tot(StableFunctor(f, 0))
        count += 1
    # and the assertion is live: broken square data must raise
    vs = {cube.vertex_from_bits(k): FiniteSet((k,)) for k in ("11", "10", "01", "00")}

    def corr(a, b, n):
        u, v = cube.vertex_from_bits(a), cube.vertex_from_bits(b)
        return (u, v), Correspondence.of(vs[u], vs[v],
                                         [(f"{a}{b}{i}", a, b) for i in range(n)])

    ec = dict([corr("11", "10", 1), corr("10", "00", 1),
               corr("11", "01", 1), corr("01", "00", 2)])
    with pytest.raises(InternalInvariantError):
        tot(CubeFunctorData.build(2, vs, ec, None))
    report("2 (d∘d = 0 always-on)", f"{count} totalizations")


def test_criterion_03_square_matching_counts():
    start = time.time()
    me = FX.multiple_extension_square()
    assert len(enumerate_matchings(me)) == 24
    pinned = enumerate_matchings(me, pinned={FX.SQUARE_FACE: {"d1∘c1": "b1∘a1"}})
    assert len(pinned) == 6
    report("3 (square admits 24 matchings, 6 pinned)",
           f"{(time.time()-start)*1000:.0f}ms")


def test_criterion_04_obstructed_cube():
    start = time.time()
    assert enumerate_matchings(FX.zero_extension_cube()) == []
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("4 (obstructed cube has no matchings)", f"{elapsed:.2f}s")


def test_criterion_05_smash_square_is_product():
    pp = product(FX.projective_functor(),
                 FX.projective_functor("x", "y", ("w1", "w2")))
    assert find_natural_isomorphism(FX.smash_square(), pp) is not None
    hom = {d: (h.free_rank, h.torsion)
           for d, h in homology_nontrivial(tot(StableFunctor(pp, 0))).items()}
    assert hom == {0: (0, (2,)), 1: (0, (2,))}
    report("5 (smash square ≅ product; homology Z/2, Z/2, 0)")


def test_criterion_06_wedge_certificate(wedge_cube):
    cert = FX.wedge_certificate()
    rep = verify_certificate(cert)
    assert rep.ok, [s.detail for s in rep.steps if not s.ok]
    for support in ({((1, 1, 0), "p3"), ((1, 0, 0), "p4"),
                     ((0, 1, 0), "p1"), ((0, 0, 0), "p2")},
                    {((0, 1, 1), "p5"), ((0, 1, 0), "p1"),
                     ((0, 0, 1), "p6"), ((0, 0, 0), "p2")}):
        _, eta = sub_inclusion_transformation(wedge_cube, support)
        assert is_quasi_iso(tot_nat_trans(eta))
    report("6 (wedge square splits stably)", f"{len(rep.steps)} steps")


def test_criterion_07_golden_tables(pd_corpus):
    start = time.time()
    unknot = [{"i": 0, "j": -1, "rank": 1, "torsion": []},
              {"i": 0, "j": 1, "rank": 1, "torsion": []}]
    assert kh.kh_table(pd_corpus["unknot0"]) == unknot
    for name in ("kink_neg", "kink_pos", "unknot_r2"):
        assert kh.kh_table(pd_corpus[name]) == unknot, name
    for name in ("trefoil_pos", "fig8"):
        rows = kh.kh_table(pd_corpus[name])
        assert rows == load_golden(name)["rows"], name
        assert rows == kh.kh_table_direct(pd_corpus[name]), name
    trefoil = kh.kh_table(pd_corpus["trefoil_pos"])
    torsion = [r for r in trefoil if r["torsion"]]
    assert torsion == [{"i": 3, "j": 7, "rank": 0, "torsion": [2]}]
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("7 (golden homology tables)", f"{elapsed:.1f}s")


def test_criterion_08_reduced(pd_corpus):
    assert kh.kh_table(pd_corpus["unknot0"], reduced=True,
                       basepoint=("loop", 0)) == \
        [{"i": 0, "j": 0, "rank": 1, "torsion": []}]
    rows = kh.kh_table(pd_corpus["trefoil_pos"], reduced=True, basepoint=1)
    assert sum(r["rank"] for r in rows) == 3
    assert all(r["torsion"] == [] for r in rows)
    report("8 (reduced unknot and trefoil)")


def _coproduct_fold(parts):
    out = None
    for p in parts:
        out = p if out is None else coproduct(out, p)
    return out


def test_criterion_09_union_and_sum_properties(pd_corpus):
    k = pd_corpus["kink_neg"]
    u0 = pd_corpus["unknot0"]
    kp = {j: s.functor
          for j, s in kh.split_by_quantum(k, kh.build_khovanov_functor(k)).items()}
    kr = {j: s.functor for j, s in
          kh.split_by_quantum(k, kh.reduced_functor(k, 1), reduced=True).items()}
    up = {j: s.functor
          for j, s in kh.split_by_quantum(u0, kh.build_khovanov_functor(u0)).items()}

    union = kh.disjoint_union_pd(k, k)
    left = kh.split_by_quantum(union, kh.build_khovanov_functor(union))
    for j, lf in left.items():
        rhs = _coproduct_fold([product(kp[a], kp[b])
                               for a in sorted(kp) for b in sorted(kp) if a + b == j])
        assert find_natural_isomorphism(lf.functor, rhs) is not None, ("X1", j)

    union2 = kh.disjoint_union_pd(k, u0)
    left2 = kh.split_by_quantum(union2, kh.reduced_functor(union2, 1), reduced=True)
    for j, lf in left2.items():
        rhs = _coproduct_fold([product(kr[a], up[b])
                               for a in sorted(kr) for b in sorted(up) if a + b == j])
        assert find_natural_isomorphism(lf.functor, rhs) is not None, ("X2", j)

    csum, bp = kh.connect_sum_pd(k, 1, k, 1)
    left3 = kh.split_by_quantum(csum, kh.reduced_functor(csum, bp), reduced=True)
    for j, lf in left3.items():
        rhs = _coproduct_fold([product(kr[a], kr[b])
                               for a in sorted(kr) for b in sorted(kr) if a + b == j])
        assert rhs is not None
        assert find_natural_isomorphism(lf.functor, rhs) is not None, ("X3", j)
    report("9 (disjoint union and connected sum split)")


def test_criterion_10_mapping_cone_identity(projective, wedge_cube):
    def lmap(d, lbl):
        tag, rest = lbl.split("·", 1)
        v, x = rest.split("|")
        return f"{tag}{v}|{x}"

    support = {((1, 1, 0), "p3"), ((1, 0, 0), "p4"),
               ((0, 1, 0), "p1"), ((0, 0, 0), "p2")}
    _, incl = sub_inclusion_transformation(wedge_cube, support)
    acyc = CubeFunctorData.build(
        1, {(1,): FiniteSet(("x",)), (0,): FiniteSet(("y",))},
        {((1,), (0,)): Correspondence.of(FiniteSet(("x",)), FiniteSet(("y",)),
                                         [("w", "x", "y")])}, {})
    b = coproduct(projective, acyc)
    _, proj = quotient_functor(b, {((1,), "l·e"), ((0,), "l·f")})
    for eta in (identity_transformation(projective), incl, proj):
        f = tot_nat_trans(eta)
        assert complexes_equal_under(cone(f), tot(eta.ambient), lmap)
    report("10 (mapping cone identity, three transformations)")


def test_criterion_11_path_independence(pd_corpus, wedge_cube):
    functors = [FX.smash_square(), FX.wedge_square(), wedge_cube]
    for name in ("kink_neg", "hopf", "unknot_r2", "unknot_ladybug", "trefoil_pos"):
        pd = pd_corpus[name]
        if pd.n <= 3:
            functors.append(kh.build_khovanov_functor(pd).functor)
    checked = 0
    for f in functors:
        for u in cube.vertices(f.n):
            for v in cube.vertices(f.n):
                if v == u or not cube.geq(u, v):
                    continue
                if cube.grading(u) - cube.grading(v) < 2:
                    continue
                chains = cube.maximal_chains(u, v)
                for c1, c2 in itertools.combinations(chains, 2):
                    expected = None
                    for path in cube.all_swap_paths(c1, c2):
                        bij = reconstruct_two_morphism(f, c1, c2, swap_path=path)
                        if expected is None:
                            expected = bij.as_dict()
                        else:
                            assert bij.as_dict() == expected
                        checked += 1
    report("11 (swap-path independence)", f"{checked} paths")


def test_criterion_12_delta_cross_validation():
    start = time.time()
    expected = {
        "sphere2": {0: (1, ()), 2: (1, ())},
        "rp2": {0: (1, ()), 1: (0, (2,))},
        "torus": {0: (1, ()), 1: (2, ()), 2: (1, ())},
    }
    for name, want in expected.items():
        x = FX.delta_fixtures()[name]
        via = {d: (h.free_rank, h.torsion)
               for d, h in homology_nontrivial(tot(simplicial.delta_functor(x))).items()}
        direct = {d: (h.free_rank, h.torsion)
                  for d, h in simplicial.simplicial_homology(x).items()
                  if not h.is_trivial}
        assert via == want, name
        assert direct == want, name
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("12 (triangulation cross-validation)", f"{elapsed:.1f}s")


def test_criterion_13_sign_twist(projective):
    rng = random.Random(2026)
    pool = [projective,
            product(projective, FX.projective_functor("x", "y", ("w1", "w2"))),
            coproduct(projective, projective),
            simplicial.delta_functor(FX.delta_point()).functor,
            simplicial.delta_functor(
                simplicial.complex_from_maximal(3, [(1, 2, 3)])).functor,
            kh.build_khovanov_functor(kh.parse_pd("PD[X(1,1,2,2)]")).functor]
    done = 0
    while done < 100:
        f = rng.choice(pool)
        n = f.n
        big = rng.randint(n, 5)
        coords = rng.sample(range(big), n)
        bottom = [rng.randint(0, 1) for _ in range(big)]
        for c in coords:
            bottom[c] = 0
        iota = FaceInclusion(n, big, tuple(bottom), tuple(coords))
        twist, cm = face_shift_iso(f, iota)
        for (u, v) in cube.edges(n):
            assert (twist.values[u] + twist.values[v]) % 2 == \
                (iota.weight + cube.sign_assignment(u, v)
                 + cube.sign_assignment(iota.apply(u), iota.apply(v))) % 2
        assert is_quasi_iso(cm)
        done += 1
    report("13 (face-inclusion sign twist)", f"{done} randomized pairs")
