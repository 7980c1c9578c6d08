"""Finite sets, finite correspondences (spans), their fiber-product
composition, bijections over a pair of sets, and linearization to integer
matrices.

Composite elements get ids joined with the reserved separator "∘", written
top morphism first ("y∘x" for the pair (y, x)).  Because string joining is
associative, iterated composites are independent of association order both
in ids and in (source, target) data.  Atomic element ids must not contain
the separator.

The records are slotted dataclasses, as is every record of the library:
there is one ``CorrElem`` per edge element and one ``FiniteSet`` per
vertex and part, so a per-instance ``__dict__`` would cost memory on every
element of a functor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .linalg import Matrix

COMPOSE_SEP = "∘"


@dataclass(frozen=True, slots=True)
class FiniteSet:
    """Ordered finite set of distinct string identifiers.  ``positions``
    maps each element to its position, kept from the duplicate check; it
    takes no part in equality, hashing or repr."""

    elements: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = dict(zip(self.elements, range(len(self.elements))))
        if len(positions) != len(self.elements):
            raise ValueError("duplicate element ids")
        for e in self.elements:
            if COMPOSE_SEP in e:
                raise ValueError(f"reserved separator in id {e!r}")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: str) -> bool:
        return e in self.positions

    def __iter__(self):
        return iter(self.elements)


EMPTY_SET = FiniteSet(())


@dataclass(frozen=True, slots=True)
class CorrElem:
    id: str
    s: str
    t: str


@dataclass(frozen=True, slots=True)
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
        src, tgt = self.source_set.positions, self.target_set.positions
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
    if y.source_set != x.target_set:
        raise ValueError("middle sets do not match")
    return composite_of_pairs(x, y, _step_pairs([e.t for e in x.elements],
                                                [e.s for e in y.elements]))


def _step_pairs(x_targets: Sequence[Hashable], y_sources: Sequence[Hashable],
               ) -> list[tuple[int, int]]:
    """The pairs (i, j) with ``x_targets[i] == y_sources[j]``, by j and
    then by i: the steps of a composite y∘x, read from the target of each
    element of x and the source of each element of y (ids or positions)."""
    by_target: dict[Hashable, list[int]] = {}
    for i, b in enumerate(x_targets):
        by_target.setdefault(b, []).append(i)
    return [(i, j) for j, b in enumerate(y_sources) for i in by_target.get(b, ())]


def composite_of_pairs(x: Correspondence, y: Correspondence,
                       pairs: Iterable[tuple[int, int]]) -> Correspondence:
    """The composite y∘x whose elements are ``pairs``, (x, y) element
    positions as ``_step_pairs`` lists them, with ids "y∘x"."""
    xs, ys = x.elements, y.elements
    return Correspondence(x.source_set, y.target_set, tuple([
        CorrElem(f"{ys[j].id}{COMPOSE_SEP}{xs[i].id}", xs[i].s, ys[j].t) for i, j in pairs]))


def split_composite_id(eid: str) -> tuple[str, ...]:
    """Atomic parts of a composite id, outermost (latest) first."""
    return tuple(eid.split(COMPOSE_SEP))


def join_composite_id(parts: Iterable[str]) -> str:
    return COMPOSE_SEP.join(parts)


@dataclass(frozen=True, slots=True)
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
    row, col = x.target_set.positions, x.source_set.positions
    cols: list[dict[int, int]] = [{} for _ in x.source_set]
    for e in x.elements:
        c, i = cols[col[e.s]], row[e.t]
        c[i] = c.get(i, 0) + 1
    return Matrix.from_columns(len(x.target_set), len(x.source_set), cols)
