"""Reference coherence check: the string-id path the library used before its
indexed pass, kept as the oracle for ``validate_coherence``.

Every square is composed with ``compose``; a hexagon carries each element
of its first chain's composite, as per-step element ids, through the six
face matchings looked up by composite id.  Report wording and order are
those of ``functor.ValidationReport``.
"""

from __future__ import annotations

from cubeburnside import cube
from cubeburnside.burnside import (_step_pairs, compose, is_two_morphism,
                                   join_composite_id, split_composite_id)
from cubeburnside.cube import Face2, Face3
from cubeburnside.functor import CubeFunctorData, ValidationReport


def _face_key(face: Face2) -> str:
    return (f"{cube.bits(face.top)}>{cube.bits(face.bottom)} via "
            f"{cube.bits(face.mid_a)}|{cube.bits(face.mid_b)}")


def _square(f: CubeFunctorData, face: Face2):
    top, bottom = face.top, face.bottom
    return (compose(f.edge(face.mid_a, bottom), f.edge(top, face.mid_a)),
            compose(f.edge(face.mid_b, bottom), f.edge(top, face.mid_b)))


def _c0_failure(face: Face2, ca, cb) -> str | None:
    fa = {k: len(v) for k, v in ca.fibers().items()}
    fb = {k: len(v) for k, v in cb.fibers().items()}
    if fa == fb:
        return None
    diff = {k: (fa.get(k, 0), fb.get(k, 0))
            for k in sorted(set(fa) | set(fb)) if fa.get(k, 0) != fb.get(k, 0)}
    return f"face {_face_key(face)}: fiber sizes differ {diff}"


def _oriented_swap(f: CubeFunctorData, chain, idx: int):
    """Interior vertex ``idx`` of ``chain`` and its face's matching as an id
    map oriented from the composite through ``chain[idx]``."""
    top, mid, bottom = chain[idx - 1], chain[idx], chain[idx + 1]
    i, j = cube.edge_coordinate(top, mid), cube.edge_coordinate(mid, bottom)
    m = f.matching(Face2.from_top(top, min(i, j), max(i, j)))
    # mid_a clears the lower-indexed coordinate first
    return idx, dict(m.mapping) if i < j else {b: a for a, b in m.mapping}


def _push(steps: list[str], swaps) -> list[str]:
    for idx, m in swaps:
        steps[idx], steps[idx - 1] = split_composite_id(
            m[join_composite_id((steps[idx], steps[idx - 1]))])
    return steps


def check_hexagon(f: CubeFunctorData, face: Face3) -> bool:
    i, j, k = face.coords
    orders = [(i, j, k), (j, i, k), (j, k, i), (k, j, i), (k, i, j), (i, k, j)]
    chains = [cube.chain_from_coords(face.top, o) for o in orders]
    swaps = [_oriented_swap(f, c, 1 + n % 2) for n, c in enumerate(chains)]
    first = compose(f.edge(chains[0][2], chains[0][3]),
                    compose(f.edge(chains[0][1], chains[0][2]),
                            f.edge(chains[0][0], chains[0][1])))
    for e in first.elements:
        steps = list(reversed(split_composite_id(e.id)))
        if join_composite_id(reversed(_push(steps, swaps))) != e.id:
            return False
    return True


def validate_coherence(f: CubeFunctorData) -> ValidationReport:
    if not f.has_matchings:
        return ValidationReport(False, ("functor carries no face matchings",), False)
    c0, failures = [], []
    for face in cube.faces2(f.n):
        ca, cb = _square(f, face)
        msg = _c0_failure(face, ca, cb)
        if msg is not None:
            c0.append(msg)
        m = f.matching(face)
        if m.src != ca or m.dst != cb:
            failures.append(f"face {_face_key(face)}: matching endpoints are not the stored composites")
        elif not is_two_morphism(m.as_dict(), ca, cb):
            failures.append(f"face {_face_key(face)}: matching is not a 2-morphism")
    if c0 or failures:
        return ValidationReport(False, tuple(c0 or failures), not c0)
    for face3 in cube.faces3(f.n):
        if not check_hexagon(f, face3):
            failures.append(f"3-face at {cube.bits(face3.top)} coords "
                            f"{tuple(c + 1 for c in face3.coords)}: hexagon does not commute")
    return ValidationReport(not failures, tuple(failures), True)


def validate_c0(f: CubeFunctorData) -> ValidationReport:
    failures = [msg for face in cube.faces2(f.n)
                if (msg := _c0_failure(face, *_square(f, face))) is not None]
    return ValidationReport(not failures, tuple(failures), not failures)


def chain_steps(chain) -> list[tuple[int, ...]]:
    """The elements of the composite along ``chain`` (edges on positions, as
    (source positions, target positions), in the order they apply) as
    tuples of element positions, one per edge, in the order of the iterated
    ``compose``: by the last edge's element, then by the rest of the chain
    the same way."""
    out = [(i,) for i in range(len(chain[0][0]))]
    for x, y in zip(chain, chain[1:]):
        out = [out[a] + (j,) for a, j in _step_pairs([x[1][s[-1]] for s in out], y[0])]
    return out
