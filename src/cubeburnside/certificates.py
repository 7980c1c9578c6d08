"""Stable-equivalence certificates: chains of shifted functors connected by
quasi-isomorphism-inducing transformations and face-inclusion extensions,
with a step-by-step verifier.  A nat step checks that the transformation's
ambient functor is coherent and that its totalization, the mapping cone of
the induced chain map, is acyclic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cube import FaceInclusion
from .errors import InputError
from .functor import (NaturalTransformation, StableFunctor,
                      extend_along_face_inclusion, functor_from_json,
                      functor_to_json, validate_coherence)
from .totalization import homology_nontrivial, tot


def _check_direction(direction) -> None:
    if direction not in ("forward", "reverse"):
        raise InputError(f"step direction must be 'forward' or 'reverse', not {direction!r}")


@dataclass(frozen=True, slots=True)
class NatTransStep:
    """direction "forward": the transformation runs from the left functor to
    the right one; "reverse": from right to left.  Any other direction
    raises ``InputError``."""

    eta: NaturalTransformation
    direction: str = "forward"

    def __post_init__(self):
        _check_direction(self.direction)


@dataclass(frozen=True, slots=True)
class FaceStep:
    """direction "forward": the right functor is the extension of the left
    one along ``iota`` (its shift drops by the weight); "reverse": the left
    functor is the extension of the right one.  Any other direction raises
    ``InputError``."""

    iota: FaceInclusion
    direction: str = "forward"

    def __post_init__(self):
        _check_direction(self.direction)


Step = Union[NatTransStep, FaceStep]


@dataclass(frozen=True, slots=True)
class EquivalenceCertificate:
    chain: tuple[StableFunctor, ...]
    steps: tuple[Step, ...]

    def __post_init__(self):
        if len(self.chain) != len(self.steps) + 1:
            raise InputError("certificate needs one more functor than steps")


@dataclass(frozen=True, slots=True)
class StepReport:
    index: int
    kind: str
    ok: bool
    detail: str


@dataclass(frozen=True, slots=True)
class CertificateReport:
    ok: bool
    steps: tuple[StepReport, ...]


def _check_nat(i: int, left: StableFunctor, right: StableFunctor,
               step: NatTransStep) -> StepReport:
    if left.functor.n != right.functor.n:
        return StepReport(i, "nat", False, "cube dimensions differ")
    if left.shift != right.shift:
        return StepReport(i, "nat", False, "shifts differ")
    src, tgt = (left, right) if step.direction == "forward" else (right, left)
    if not step.eta.is_side(1, src.functor):
        return StepReport(i, "nat", False, "transformation source does not match")
    if not step.eta.is_side(0, tgt.functor):
        return StepReport(i, "nat", False, "transformation target does not match")
    rep = validate_coherence(step.eta.ambient)
    if not rep:
        return StepReport(i, "nat", False, "ambient functor incoherent: " + rep.failures[0])
    if homology_nontrivial(tot(StableFunctor(step.eta.ambient, left.shift))):
        return StepReport(i, "nat", False, "totalization is not a quasi-isomorphism")
    return StepReport(i, "nat", True, "quasi-isomorphism verified")


def _check_face(i: int, left: StableFunctor, right: StableFunctor,
                step: FaceStep) -> StepReport:
    iota = step.iota
    if step.direction == "forward":
        small, big = left, right
    else:
        small, big = right, left
    if iota.n != small.functor.n or iota.N != big.functor.n:
        return StepReport(i, "face", False, "face inclusion dimensions do not match")
    if big.shift != small.shift - iota.weight:
        return StepReport(i, "face", False, "shift does not drop by the weight")
    if extend_along_face_inclusion(small.functor, iota) != big.functor:
        return StepReport(i, "face", False, "extension does not equal the stated functor")
    return StepReport(i, "face", True, f"extension along weight-{iota.weight} inclusion")


def verify_certificate(cert: EquivalenceCertificate) -> CertificateReport:
    reports = []
    for i, step in enumerate(cert.steps):
        left, right = cert.chain[i], cert.chain[i + 1]
        if isinstance(step, NatTransStep):
            reports.append(_check_nat(i, left, right, step))
        else:
            reports.append(_check_face(i, left, right, step))
    return CertificateReport(all(r.ok for r in reports), tuple(reports))


# -- JSON -----------------------------------------------------------------------

def certificate_to_json(cert: EquivalenceCertificate) -> dict:
    out = {"schema_version": 1, "chain": [], "steps": []}
    for sf in cert.chain:
        out["chain"].append(functor_to_json(sf))
    for step in cert.steps:
        if isinstance(step, NatTransStep):
            out["steps"].append({"kind": "nat", "direction": step.direction,
                                 "ambient": functor_to_json(step.eta.ambient)})
        else:
            out["steps"].append({"kind": "face", "direction": step.direction,
                                 "iota": step.iota.to_json()})
    return out


def certificate_from_json(obj: dict) -> EquivalenceCertificate:
    try:
        chain = tuple(functor_from_json(o) for o in obj["chain"])
        steps: list[Step] = []
        for so in obj["steps"]:
            if so["kind"] == "nat":
                amb = functor_from_json(so["ambient"]).functor
                if amb.n < 1:
                    raise InputError("a nat step's ambient functor needs dimension "
                                     "at least 1")
                steps.append(NatTransStep(NaturalTransformation(amb), so["direction"]))
            elif so["kind"] == "face":
                steps.append(FaceStep(FaceInclusion.from_json(so["iota"]), so["direction"]))
            else:
                raise InputError(f"unknown step kind {so.get('kind')!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate: {exc}") from exc
    return EquivalenceCertificate(chain, tuple(steps))
