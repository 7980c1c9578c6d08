"""Finite sets, finite correspondences (spans), their fiber-product
composition, bijections over a pair of sets, and linearization to integer
matrices.

Composite elements get ids joined with the reserved separator "∘", written
top morphism first ("y∘x" for the pair (y, x)).  Because string joining is
associative, iterated composites are independent of association order both
in ids and in (source, target) data.  Atomic element ids must not contain
the separator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix

COMPOSE_SEP = "∘"


@dataclass(frozen=True)
class FiniteSet:
    """Ordered finite set of distinct string identifiers."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        for e in self.elements:
            if COMPOSE_SEP in e:
                raise ValueError(f"reserved separator in id {e!r}")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: str) -> bool:
        return e in self.elements

    def __iter__(self):
        return iter(self.elements)


EMPTY_SET = FiniteSet(())


@dataclass(frozen=True)
class CorrElem:
    id: str
    s: str
    t: str


@dataclass(frozen=True)
class Correspondence:
    """A span: elements with a source in ``source_set`` and target in
    ``target_set``."""

    source_set: FiniteSet
    target_set: FiniteSet
    elements: tuple[CorrElem, ...]

    def __post_init__(self):
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate correspondence element ids")
        src, tgt = set(self.source_set.elements), set(self.target_set.elements)
        for e in self.elements:
            if e.s not in src or e.t not in tgt:
                raise ValueError(f"element {e.id!r} has endpoint outside its sets")

    @staticmethod
    def of(source: FiniteSet, target: FiniteSet,
           elements: Iterable[tuple[str, str, str]]) -> "Correspondence":
        return Correspondence(source, target,
                              tuple(CorrElem(i, s, t) for i, s, t in elements))

    def __len__(self) -> int:
        return len(self.elements)

    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.elements)

    def by_id(self, eid: str) -> CorrElem:
        for e in self.elements:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def fibers(self) -> dict[tuple[str, str], list[CorrElem]]:
        out: dict[tuple[str, str], list[CorrElem]] = {}
        for e in self.elements:
            out.setdefault((e.s, e.t), []).append(e)
        return out


def identity_correspondence(a: FiniteSet) -> Correspondence:
    return Correspondence(a, a, tuple(CorrElem(e, e, e) for e in a))


def compose(y: Correspondence, x: Correspondence) -> Correspondence:
    """Fiber product Y ×_B X of y: B -> C with x: A -> B.

    Elements are the pairs (y, x) with s(y) = t(x), id "y∘x", ordered
    lexicographically by (position of y, position of x).
    """
    return composite_of_pairs(x, y, composite_pairs(x, y))


def composite_pairs(x: Correspondence, y: Correspondence) -> list[tuple[int, int]]:
    """The elements of y∘x as (x, y) pairs of element positions, in
    ``compose``'s order (y-major)."""
    if y.source_set != x.target_set:
        raise ValueError("middle sets do not match")
    by_target: dict[str, list[int]] = {}
    for i, xe in enumerate(x.elements):
        by_target.setdefault(xe.t, []).append(i)
    return [(i, j) for j, ye in enumerate(y.elements) for i in by_target.get(ye.s, ())]


def composite_of_pairs(x: Correspondence, y: Correspondence,
                       pairs: Iterable[tuple[int, int]]) -> Correspondence:
    """The composite y∘x whose elements are ``pairs``, as
    ``composite_pairs(x, y)`` lists them, with ids "y∘x"."""
    xs, ys = x.elements, y.elements
    return Correspondence(x.source_set, y.target_set, tuple([
        CorrElem(f"{ys[j].id}{COMPOSE_SEP}{xs[i].id}", xs[i].s, ys[j].t) for i, j in pairs]))


def composite_steps(chain: Sequence[Correspondence]) -> list[tuple[int, ...]]:
    """The elements of the composite along ``chain`` (spans in the order
    they apply) as tuples of element positions, one per span, in the order
    of the iterated ``compose``: by the last span's element, then by the
    rest of the chain the same way."""
    out = [(i,) for i in range(len(chain[0].elements))]
    for x, y in zip(chain, chain[1:]):
        if y.source_set != x.target_set:
            raise ValueError("middle sets do not match")
        xs = x.elements
        by_target: dict[str, list[tuple[int, ...]]] = {}
        for steps in out:
            by_target.setdefault(xs[steps[-1]].t, []).append(steps)
        out = [steps + (j,) for j, ye in enumerate(y.elements)
               for steps in by_target.get(ye.s, ())]
    return out


def split_composite_id(eid: str) -> tuple[str, ...]:
    """Atomic parts of a composite id, outermost (latest) first."""
    return tuple(eid.split(COMPOSE_SEP))


def join_composite_id(parts: Iterable[str]) -> str:
    return COMPOSE_SEP.join(parts)


@dataclass(frozen=True)
class BijectionOver:
    """A 2-morphism: a bijection of parallel correspondences commuting with
    the source and target maps."""

    src: Correspondence
    dst: Correspondence
    mapping: tuple[tuple[str, str], ...]  # (src element id, dst element id)

    def __post_init__(self):
        if not is_two_morphism(dict(self.mapping), self.src, self.dst):
            raise ValueError("not a 2-morphism")

    @staticmethod
    def of(src: Correspondence, dst: Correspondence,
           mapping: Mapping[str, str]) -> "BijectionOver":
        return BijectionOver(src, dst, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def inverse(self) -> "BijectionOver":
        return BijectionOver(self.dst, self.src,
                             tuple(sorted((b, a) for a, b in self.mapping)))


def is_two_morphism(f: Mapping[str, str], x: Correspondence, y: Correspondence) -> bool:
    """True iff f is a bijection of elements preserving s and t.

    One pass over x: element ids are distinct in a correspondence, so f is
    a bijection onto y when it has no other keys, every element of x has an
    image in y, no image is used twice and the three sizes agree."""
    if x.source_set != y.source_set or x.target_set != y.target_set:
        return False
    if not len(f) == len(x) == len(y):
        return False
    unused = {e.id: e for e in y.elements}
    for e in x.elements:
        img = unused.pop(f[e.id], None) if e.id in f else None
        if img is None or img.s != e.s or img.t != e.t:
            return False
    return True


def linearize(x: Correspondence) -> Matrix:
    """Matrix of fiber cardinalities: rows indexed by target_set, columns by
    source_set, acting on column vectors of the free abelian group."""
    row = {b: i for i, b in enumerate(x.target_set)}
    col = {a: j for j, a in enumerate(x.source_set)}
    cols: list[dict[int, int]] = [{} for _ in x.source_set]
    for e in x.elements:
        c, i = cols[col[e.s]], row[e.t]
        c[i] = c.get(i, 0) + 1
    return Matrix.from_columns(len(x.target_set), len(x.source_set), cols)
