import pytest

from cubeburnside import cube, fixtures as FX
from cubeburnside.burnside import Correspondence, FiniteSet
from cubeburnside.certificates import (EquivalenceCertificate, FaceStep,
                                       NatTransStep, certificate_from_json,
                                       certificate_to_json, verify_certificate)
from cubeburnside.cube import FaceInclusion
from cubeburnside.errors import InputError
from cubeburnside.functor import (CubeFunctorData, StableFunctor,
                                  build_nat_trans, coproduct,
                                  extend_along_face_inclusion,
                                  find_natural_isomorphism,
                                  identity_transformation, quotient_functor,
                                  sub_inclusion_transformation)
from cubeburnside.totalization import (homology_nontrivial, is_quasi_iso, tot,
                                       tot_nat_trans)


def test_empty_certificate(projective):
    cert = EquivalenceCertificate((StableFunctor(projective, 3),), ())
    assert verify_certificate(cert).ok


def test_wedge_certificate_passes():
    cert = FX.wedge_certificate()
    rep = verify_certificate(cert)
    assert rep.ok
    assert [s.kind for s in rep.steps] == ["face", "nat", "nat", "face", "nat", "face"]
    # endpoints: the wedge square and the split pair of projective functors
    start = cert.chain[0].functor
    assert find_natural_isomorphism(start, FX.wedge_square()) is not None
    iota0 = FaceInclusion(1, 2, (0, 0), (1,))
    iota1 = FaceInclusion(1, 2, (1, 0), (1,))
    pp = coproduct(extend_along_face_inclusion(FX.projective_functor(), iota0),
                   extend_along_face_inclusion(FX.projective_functor(), iota1))
    assert cert.chain[-1].functor == pp


def test_corrupted_shift_fails():
    cert = FX.wedge_certificate()
    chain = list(cert.chain)
    chain[2] = StableFunctor(chain[2].functor, 5)
    bad = EquivalenceCertificate(tuple(chain), cert.steps)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert not rep.steps[1].ok


def _zero_transformation(projective):
    comps = {v: Correspondence(projective.vset(v), projective.vset(v), ())
             for v in cube.vertices(1)}
    return build_nat_trans(projective, projective, comps, {((1,), (0,)): {}})


def test_zero_transformation_fails_quasi_iso(projective):
    eta = _zero_transformation(projective)
    cert = EquivalenceCertificate(
        (StableFunctor(projective, 0), StableFunctor(projective, 0)),
        (NatTransStep(eta, "forward"),))
    rep = verify_certificate(cert)
    assert not rep.ok
    assert "quasi" in rep.steps[0].detail


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_nat_step_names_the_end_that_does_not_match(projective, direction):
    """A nat step whose transformation's source, or else its target, is not
    the chain's functor on that side says which; the source is checked
    first."""
    eta = identity_transformation(projective)
    other = FX.projective_functor("e", "f", ("v1", "v2"))
    first = "source" if direction == "forward" else "target"
    second = "target" if direction == "forward" else "source"
    for ends, end in (((other, projective), first), ((projective, other), second),
                      ((other, other), "source")):
        cert = EquivalenceCertificate(tuple(StableFunctor(g, 0) for g in ends),
                                      (NatTransStep(eta, direction),))
        rep = verify_certificate(cert)
        assert not rep.ok
        assert rep.steps[0].detail == f"transformation {end} does not match"


def test_face_step_direction_and_weight(projective):
    iota = FaceInclusion(1, 2, (1, 0), (1,))
    ext = extend_along_face_inclusion(projective, iota)
    good = EquivalenceCertificate(
        (StableFunctor(projective, 2), StableFunctor(ext, 1)),
        (FaceStep(iota, "forward"),))
    assert verify_certificate(good).ok
    bad_shift = EquivalenceCertificate(
        (StableFunctor(projective, 2), StableFunctor(ext, 2)),
        (FaceStep(iota, "forward"),))
    assert not verify_certificate(bad_shift).ok
    reverse = EquivalenceCertificate(
        (StableFunctor(ext, 1), StableFunctor(projective, 2)),
        (FaceStep(iota, "reverse"),))
    assert verify_certificate(reverse).ok


def test_certificate_json_round_trip():
    cert = FX.wedge_certificate()
    again = certificate_from_json(certificate_to_json(cert))
    assert verify_certificate(again).ok
    assert len(again.chain) == len(cert.chain)
    obj = certificate_to_json(cert)
    obj["steps"][0]["kind"] = "mystery"
    with pytest.raises(InputError):
        certificate_from_json(obj)


@pytest.mark.parametrize("direction", ["sideways", 7, None])
def test_step_direction_is_forward_or_reverse(projective, direction):
    with pytest.raises(InputError, match="direction"):
        FaceStep(FaceInclusion.identity(1), direction)
    with pytest.raises(InputError, match="direction"):
        NatTransStep(FX.wedge_certificate().steps[1].eta, direction)
    obj = certificate_to_json(FX.wedge_certificate())
    obj["steps"][0]["direction"] = direction
    with pytest.raises(InputError, match="direction"):
        certificate_from_json(obj)


def test_chain_length_mismatch(projective):
    with pytest.raises(InputError):
        EquivalenceCertificate((StableFunctor(projective, 0),),
                               (FaceStep(FaceInclusion.identity(1), "forward"),))


def _transformations(projective, wedge_cube):
    """The transformations of the mapping cone criterion (the identity, the
    first wedge inclusion and a projection), the two wedge inclusions of the
    wedge certificate criterion, and two that are not quasi-isomorphisms:
    the zero transformation and the projection of the interval onto its
    empty quotient."""
    acyc = CubeFunctorData.build(
        1, {(1,): FiniteSet(("x",)), (0,): FiniteSet(("y",))},
        {((1,), (0,)): Correspondence.of(FiniteSet(("x",)), FiniteSet(("y",)),
                                         [("w", "x", "y")])}, {})
    supports = ({((1, 1, 0), "p3"), ((1, 0, 0), "p4"), ((0, 1, 0), "p1"), ((0, 0, 0), "p2")},
                {((0, 1, 1), "p5"), ((0, 1, 0), "p1"), ((0, 0, 1), "p6"), ((0, 0, 0), "p2")})
    return {
        "identity": (identity_transformation(projective), True),
        "projection": (quotient_functor(coproduct(projective, acyc),
                                        {((1,), "l·e"), ((0,), "l·f")})[1], True),
        "wedge-left": (sub_inclusion_transformation(wedge_cube, supports[0])[1], True),
        "wedge-right": (sub_inclusion_transformation(wedge_cube, supports[1])[1], True),
        "zero": (_zero_transformation(projective), False),
        "empty-quotient": (quotient_functor(projective, set())[1], False),
    }


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_quasi_iso_is_acyclic_ambient_totalization(projective, wedge_cube, shift):
    """The nat step's route: the totalization of a transformation's ambient
    is the mapping cone of the chain map it induces, so the map is a
    quasi-isomorphism exactly when that totalization is acyclic."""
    for name, (eta, quasi_iso) in _transformations(projective, wedge_cube).items():
        assert is_quasi_iso(tot_nat_trans(eta, shift)) == quasi_iso, name
        assert (not homology_nontrivial(tot(StableFunctor(eta.ambient, shift)))) == quasi_iso, name
        ends = (StableFunctor(eta.source_functor(), shift),
                StableFunctor(eta.target_functor(), shift))
        cert = EquivalenceCertificate(ends, (NatTransStep(eta),))
        assert verify_certificate(cert).ok == quasi_iso, name
