"""Functors from the cube poset to finite sets and spans, encoded by their
values on vertices, edges, and canonically oriented 2-faces.

Stored data is the compact form: a finite set per vertex, a correspondence
per edge, and a 2-morphism per canonically oriented 2-face (the reverse
orientation is its inverse).  Validation covers the fiberwise composite
cardinality condition on squares and the hexagon condition on 3-faces,
which together let composites be reconstructed consistently along any
maximal chain.

Nothing derived is kept on the data.  Coherence is one pass on element
positions, ``_coherence_pass``: a vertex is an int bitmask, and an edge
(mask, k) is read as two int sequences, the source and the target position
of each element.  The square pass lists each face's composites once, as
(x, y) element-position pairs (``_face_composites``), checks their fiber
sizes and takes the face's matching as a position image that must be a
bijection keeping every element's fiber.  Each matching is oriented once
into a small int table on step pairs, and the hexagons look their triples
up in these tables (``_hexagon_commutes``), with no composite ids built or
split.  A hexagon walks only the triples in (top, bottom) fibers of two or
more (``_hexagon_walk``): every swap keeps that fiber, so a triple alone in
its fiber comes back to itself.  Equal work is done once: faces whose
four side edges are the same objects share their composites, fiber keys
and fiber-size verdict, and a table per image; a hexagon's walk is listed
once per first chain, and its verdict found once per (walk, six tables).
Each is a function of its key, so the sharing is exact; the image is part
of a table's key, since ladybug images differ between faces with equal
sides.  Equal edges are one object where they are made: ``_indexed``
shares one position pair per equal positions, and the Khovanov build one
per local configuration.  The memos key on object identity and live only
through one pass.  Only the source of a face's image differs:
``validate_coherence`` reads a stored matching through its ids, the
Khovanov build names its forced or ladybug matching, and ``_forced_tables``
(squares only) takes the forced rule ``_forced_image``.  Builders write
face matchings only on request: the Δ-complex build writes none, and
``forced_matchings`` writes each nonempty one as ``compose`` builds it,
empty ones shared per (top set, bottom set).  ``enumerate_matchings`` searches on
positions too: a face's candidates are its fiber-keeping position images,
each tabled once, and ids are written only for the completions.  It and
``find_natural_isomorphism`` draw their candidates from one lazy enumerator
of the bijections that keep a key, ``_keyed_bijections``; all three descend
in one loop on an explicit stack, ``_backtrack``, so no recursion grows.
Sub and quotient functors and the split of a functor into parts (the
quantum gradings) are one routine, ``restrict_parts``: one pass over the
vertices and edges splits each distinct vertex set and edge once, and its
parts share the pieces and one empty value.  It reads the parts as one
{label: part} map per vertex, the form ``generator_gradings`` returns.  A
stored matching sits on ``square(face)``, the composites of its face's own
edges, and every restriction composes its own faces: a part's matching is
the stored one on the ids of the part's ``square(face)``.
``reconstruct_two_morphism`` reads the stored matchings by the same rule
(``_on_square``).
"""

from __future__ import annotations

import collections
import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from math import factorial, prod
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from . import cube
from .burnside import (
    COMPOSE_SEP,
    EMPTY_SET,
    BijectionOver,
    CorrElem,
    Correspondence,
    FiniteSet,
    compose,
    composite_of_pairs,
    identity_correspondence,
    _step_pairs,
    join_composite_id,
    split_composite_id,
)
from .cube import Face2, FaceInclusion, Vertex
from .errors import InputError, InternalInvariantError, SearchCapExceeded

Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """A verdict with its failures, and whether the pass found every
    square's two composites of equal fiber sizes."""

    ok: bool
    failures: tuple[str, ...]
    square_condition: bool

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=True, slots=True)
class CubeFunctorData:
    """Values on all vertices, edges, and (optionally) 2-faces of {0,1}^n.

    ``face_matchings`` is None for partial data (vertices and edges only);
    otherwise it has an entry for every canonically oriented 2-face, mapping
    the composite through ``mid_a`` to the composite through ``mid_b``.
    """

    n: int
    vertex_sets: dict[Vertex, FiniteSet]
    edge_corrs: dict[Edge, Correspondence]
    face_matchings: dict[Face2, BijectionOver] | None = None

    @staticmethod
    def build(n: int,
              vertex_sets: Mapping[Vertex, FiniteSet],
              edge_corrs: Mapping[Edge, Correspondence],
              face_matchings: Mapping[Face2, BijectionOver] | None = None,
              ) -> "CubeFunctorData":
        vs: dict[Vertex, FiniteSet] = {}
        for v in cube.vertices(n):
            vs[v] = vertex_sets.get(v, FiniteSet(()))
        for v in vertex_sets:
            if v not in vs:
                raise InputError(f"vertex {v} outside the {n}-cube")
        ec: dict[Edge, Correspondence] = {}
        checked: dict[int, Correspondence] = {}  # ids are checked once per edge object
        for (u, v) in cube.edges(n):
            corr = edge_corrs.get((u, v))
            if corr is None:
                corr = Correspondence(vs[u], vs[v], ())
            if corr.source_set != vs[u] or corr.target_set != vs[v]:
                raise InputError(f"edge {u}>{v} endpoint sets do not match")
            if id(corr) not in checked:
                checked[id(corr)] = corr
                for e in corr.elements:
                    if not isinstance(e.id, str) or COMPOSE_SEP in e.id:
                        raise InputError(f"edge element id {e.id!r} is not a string "
                                         "free of the reserved separator")
            ec[(u, v)] = corr
        for e in edge_corrs:
            if e not in ec:
                raise InputError(f"edge {e} outside the {n}-cube")
        fm: dict[Face2, BijectionOver] | None = None
        if face_matchings is not None:
            fm = {}
            for f in cube.faces2(n):
                if f not in face_matchings:
                    raise InputError(f"missing matching for face {f}")
                fm[f] = face_matchings[f]
            for f in face_matchings:
                if f not in fm:
                    raise InputError(f"face {f} outside the {n}-cube")
        return CubeFunctorData(n, vs, ec, fm)

    @property
    def has_matchings(self) -> bool:
        return self.face_matchings is not None

    def vset(self, v: Vertex) -> FiniteSet:
        return self.vertex_sets[v]

    def edge(self, u: Vertex, v: Vertex) -> Correspondence:
        return self.edge_corrs[(u, v)]

    def matching(self, f: Face2) -> BijectionOver:
        assert self.face_matchings is not None
        return self.face_matchings[f]

    def matching_via(self, f: Face2, first_mid: Vertex) -> BijectionOver:
        """Matching oriented from the composite through ``first_mid``."""
        m = self.matching(f)
        if first_mid == f.mid_a:
            return m
        if first_mid == f.mid_b:
            return m.inverse()
        raise ValueError(f"{first_mid} is not a middle vertex of {f}")

    def square(self, face: Face2) -> tuple[Correspondence, Correspondence]:
        """The face's two 2-step composites, through ``mid_a`` and ``mid_b``."""
        return (compose(self.edge(face.mid_a, face.bottom), self.edge(face.top, face.mid_a)),
                compose(self.edge(face.mid_b, face.bottom), self.edge(face.top, face.mid_b)))

    def support(self) -> list[tuple[Vertex, str]]:
        return [(v, x) for v in cube.vertices(self.n) for x in self.vset(v)]


@dataclass(frozen=True, slots=True)
class StableFunctor:
    functor: CubeFunctorData
    shift: int = 0


def empty_functor(n: int) -> CubeFunctorData:
    return forced_matchings(CubeFunctorData.build(n, {}, {}, None))


def one_point_functor(element: str = "*") -> CubeFunctorData:
    return CubeFunctorData.build(0, {(): FiniteSet((element,))}, {}, {})


# -- composites along chains ----------------------------------------------

def composite_along_chain(f: CubeFunctorData, chain: cube.Chain) -> Correspondence:
    """Flattened iterated fiber product along a saturated chain; on
    unvalidated data, ``InputError`` names it if its edges do not compose."""
    cube.check_chain(chain)
    if len(chain) == 1:
        return identity_correspondence(f.vset(chain[0]))
    cur = f.edge(chain[0], chain[1])
    try:
        for a, b in zip(chain[1:], chain[2:]):
            cur = compose(f.edge(a, b), cur)
    except ValueError as exc:
        raise InputError(f"chain {'>'.join(map(cube.bits, chain))}: {exc}") from exc
    return cur


# -- the coherence pass -------------------------------------------------------
#
# The pass works on positions.  A vertex is an int bitmask, bit k for
# coordinate k, and an edge is (mask, k), from mask down to mask ^ 1 << k.
# An edge is read as a pair of int sequences: the position of each
# element's source in its source vertex's set, and of its target.  String
# data is indexed into positions once (``_indexed``); the Khovanov build
# makes positions directly.

_Positions = tuple[Sequence[int], Sequence[int]]

_NOT_TWO_MORPHISM = "matching is not a 2-morphism"


def _mask(v: Vertex) -> int:
    return sum(b << k for k, b in enumerate(v))


def _indexed(f: CubeFunctorData):
    """f's edges keyed (mask, k), as correspondences and on positions, and
    each vertex's elements keyed by mask.  Edges with equal positions share
    one position pair, so the coherence pass checks their squares and
    hexagons once.  An edge whose endpoint sets are not its vertices' sets
    is refused, as ``CubeFunctorData.build`` does."""
    mask = {v: _mask(v) for v in f.vertex_sets}
    corrs, edges, interned = {}, {}, {}
    for (u, v), c in f.edge_corrs.items():
        if c.source_set != f.vertex_sets[u] or c.target_set != f.vertex_sets[v]:
            raise InputError(f"edge {u}>{v} endpoint sets do not match")
        key = (mask[u], (mask[u] ^ mask[v]).bit_length() - 1)
        corrs[key] = c
        pu, pv = f.vertex_sets[u].positions, f.vertex_sets[v].positions
        pair = (tuple([pu[e.s] for e in c.elements]), tuple([pv[e.t] for e in c.elements]))
        edges[key] = interned.setdefault(pair, pair)
    labels = {mask[v]: s.elements for v, s in f.vertex_sets.items()}
    return corrs, edges, labels


def _tops(n: int, dim: int):
    """(vertex, mask, coordinates) of every face of dimension ``dim``, in
    ``cube.faces2`` / ``cube.faces3`` order."""
    for v in cube.vertices(n):
        t = _mask(v)
        for coords in itertools.combinations([k for k in range(n) if v[k]], dim):
            yield v, t, coords


def _sides(edges, t: int, i: int, j: int):
    """The (first, second) edges of face (t, i, j) through mid_a and mid_b."""
    return ((edges[t, i], edges[t ^ 1 << i, j]), (edges[t, j], edges[t ^ 1 << j, i]))


def _face_composites(side_a: tuple[_Positions, _Positions],
                     side_b: tuple[_Positions, _Positions],
                     ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A face's two composites, one per side (its first and second edge,
    through ``mid_a`` and through ``mid_b``, on positions), as (x, y)
    element-position pairs in ``compose``'s order.  The one place that lists
    them: for the square pass and the candidates of ``enumerate_matchings``."""
    (xa, ya), (xb, yb) = side_a, side_b
    return _step_pairs(xa[1], ya[0]), _step_pairs(xb[1], yb[0])


# A face's matching, oriented: a step pair (x, y) of one side is coded
# y * len(x's span) + x, so each side's codes ascend in composite order.
# The table is one array of four blocks of the composite size k: side a's
# codes, the codes of their images on side b, side b's codes, the codes of
# their images on side a, two bytes a code where the codes fit.

def _table(sides, pa: list[tuple[int, int]], pb: list[tuple[int, int]],
           ka: list[tuple[int, int]], kb: list[tuple[int, int]],
           image: Sequence[int | None]) -> array | str:
    """The matching pa[p] -> pb[image[p]] of a face with position sides
    ``sides``, composites pa and pb and their fiber keys ka and kb as an
    oriented table, or why it is not one: it is not a bijection that keeps
    every element's fiber (``is_two_morphism``, on positions)."""
    k = len(pa)
    if (not len(image) == k == len(pb) or None in image
            or sorted(image) != list(range(k)) or [kb[q] for q in image] != ka):
        return _NOT_TWO_MORPHISM
    if not k:
        return array("H")
    nxa, nxb = len(sides[0][0][0]), len(sides[1][0][0])
    codes_a = [j * nxa + i for i, j in pa]
    codes_b = [j * nxb + i for i, j in pb]
    inverse = sorted(range(k), key=image.__getitem__)
    codes = (codes_a + [codes_b[q] for q in image]
             + codes_b + [codes_a[p] for p in inverse])
    return array("H" if max(codes, default=0) < 1 << 16 else "q", codes)


def _fiber_keys(side, steps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (top, bottom) positions of each element of a side's composite."""
    xs, yt = side[0][0], side[1][1]
    return [(xs[i], yt[j]) for i, j in steps]


def _matching_image(m: BijectionOver, sides, pa: list[tuple[int, int]],
                    pb: list[tuple[int, int]]) -> list[int | None] | str:
    """A stored matching of a face with correspondence sides ``sides`` and
    composites pa and pb, as the position image that ``_table`` checks, or
    why it is not one: its endpoints are not the stored composites.  This
    is the coherence pass's one check that reads ids."""
    (xa, ya), (xb, yb) = sides
    if not (_is_composite(m.src, xa, ya, pa) and _is_composite(m.dst, xb, yb, pb)):
        return "matching endpoints are not the stored composites"
    mapping = m.as_dict()
    if len(mapping) != len(pa):
        return _NOT_TWO_MORPHISM
    pos_b = {e.id: q for q, e in enumerate(m.dst.elements)}
    return [pos_b.get(mapping.get(e.id)) for e in m.src.elements]


def _is_composite(c: Correspondence, x: Correspondence, y: Correspondence,
                  steps: list[tuple[int, int]]) -> bool:
    """Whether c is y∘x, whose elements are ``steps``, as ``compose``
    builds it: the same sets, and element by element the same id, source
    and target."""
    if (c.source_set != x.source_set or c.target_set != y.target_set
            or len(c.elements) != len(steps)):
        return False
    xs, ys = x.elements, y.elements
    for e, (i, j) in zip(c.elements, steps):
        xe, ye = xs[i], ys[j]
        if e.s != xe.s or e.t != ye.t or e.id != f"{ye.id}{COMPOSE_SEP}{xe.id}":
            return False
    return True


def _written_matching(table: array, sides) -> BijectionOver:
    """The matching whose oriented table is ``table`` on a face with
    correspondence sides ``sides``: both composites as ``compose`` builds
    them, checked by ``BijectionOver``."""
    (xa, ya), (xb, yb) = sides
    k = len(table) // 4
    nxa, nxb = len(xa.elements), len(xb.elements)
    src = composite_of_pairs(xa, ya, [(c % nxa, c // nxa) for c in table[:k]])
    dst = composite_of_pairs(xb, yb, [(c % nxb, c // nxb) for c in table[2 * k:3 * k]])
    ids_b = dict(zip(table[2 * k:3 * k], (e.id for e in dst.elements)))
    return BijectionOver.of(src, dst, {e.id: ids_b[c] for e, c in
                                       zip(src.elements, table[k:2 * k])})


# a swap as applied to a pair of steps: table, start of the table block it
# reads, block size, and the lengths of the first step's span before and
# after the swap
Swap = tuple[array, int, int, int, int]


def _swap(table: array, via_mid_a: bool, nx_in: int, nx_out: int) -> Swap:
    k = len(table) // 4
    return table, 0 if via_mid_a else 2 * k, k, nx_in, nx_out


def _on_square(f: CubeFunctorData, face: Face2) -> BijectionOver:
    """f's stored matching of ``face``, which must sit on the face's own
    composites ``f.square(face)``; ``InputError`` names the face where it
    does not, or where the edges do not compose."""
    m = f.matching(face)
    try:
        square = f.square(face)
    except ValueError as exc:
        raise InputError(f"face {_face_key(face)}: {exc}") from exc
    if (m.src, m.dst) != square:
        raise InputError(f"face {_face_key(face)}: matching endpoints are not "
                         "the composites of its edges")
    return m


def reconstruct_two_morphism(f: CubeFunctorData, c1: cube.Chain, c2: cube.Chain,
                             swap_path: Sequence[tuple[int, cube.Chain]] | None = None,
                             ) -> BijectionOver:
    """The bijection of chain composites obtained by composing stored face
    matchings along a swap path (the deterministic one unless given).

    Each element of c1's composite is carried as its steps, one edge element
    id per edge.  A swap at chain vertex ``mid`` replaces the two steps
    through ``mid`` by their image under ``f.matching_via(face, mid)``; the
    face's matching must sit on ``f.square(face)``, as for every
    restriction (``InputError`` otherwise)."""
    if not f.has_matchings:
        raise InputError("functor has no face matchings")
    if swap_path is None:
        swap_path = cube.chain_swap_path(c1, c2)
    src, dst = composite_along_chain(f, c1), composite_along_chain(f, c2)
    steps = {e.id: list(split_composite_id(e.id)) for e in src.elements}
    chain = c1
    for idx, nxt in swap_path:
        top, mid, bottom = chain[idx - 1], chain[idx], chain[idx + 1]
        i, j = cube.edge_coordinate(top, mid), cube.edge_coordinate(mid, bottom)
        face = Face2.from_top(top, min(i, j), max(i, j))
        _on_square(f, face)
        image = f.matching_via(face, mid).as_dict()
        # the steps are listed latest first: edge idx, then edge idx - 1
        at = len(chain) - 2 - idx
        for st in steps.values():
            st[at:at + 2] = split_composite_id(image[join_composite_id(st[at:at + 2])])
        chain = nxt
    return BijectionOver.of(src, dst, {eid: join_composite_id(st) for eid, st in steps.items()})


# -- validation -------------------------------------------------------------

def _square_pass(n: int, edges, labels, image_of=None):
    """Every square of an n-cube functor given on positions: its two
    composites must have equal fiber sizes and, given ``image_of``, the
    matching image_of(v, t, i, j, sides, pa, pb, ka, kb) returns (a position
    image or why there is none) must be a 2-morphism of them.  ka and kb
    are the composites' fiber keys, (top, bottom) position pairs.

    Returns the fiber-size failures, the matching failures and each face's
    oriented table.  After a fiber-size failure no matching is read, since
    a report then lists only those.  ``labels[mask]`` names a vertex's
    positions in messages.

    Faces whose four side edges are the same objects share their work: the
    composites, fiber keys and fiber-size verdict are listed once per such
    side key, and a table is built once per (side key, image).  Each is a
    function of its key alone, so sharing it is exact.  ``image_of`` is
    still called for every face: a ladybug image depends on the face, not
    only on its sides.  The memos key on the identity of the edge objects,
    which ``edges`` holds through the pass, and end with it."""
    c0: list[str] = []
    failures: list[str] = []
    tables: dict[tuple[int, int, int], array] = {}
    squares: dict[tuple[int, int, int, int], tuple] = {}
    for v, t, (i, j) in _tops(n, 2):
        sides = _sides(edges, t, i, j)
        key = (id(sides[0][0]), id(sides[0][1]), id(sides[1][0]), id(sides[1][1]))
        square = squares.get(key)
        if square is None:
            pa, pb = _face_composites(*sides)
            ka, kb = _fiber_keys(sides[0], pa), _fiber_keys(sides[1], pb)
            square = squares[key] = (pa, pb, ka, kb, sorted(ka) == sorted(kb), {})
        pa, pb, ka, kb, equal, made = square
        if not equal:
            top, bottom = labels[t], labels[t ^ 1 << i ^ 1 << j]
            fa, fb = ({(top[x], bottom[z]): c for (x, z), c in collections.Counter(keys).items()}
                      for keys in (ka, kb))
            diff = {k: (fa.get(k, 0), fb.get(k, 0))
                    for k in sorted(set(fa) | set(fb)) if fa.get(k, 0) != fb.get(k, 0)}
            c0.append(f"face {_face_key(Face2.from_top(v, i, j))}: fiber sizes differ {diff}")
        if c0 or image_of is None:
            continue
        image = image_of(v, t, i, j, sides, pa, pb, ka, kb)
        if isinstance(image, str):
            table = image
        else:
            image = tuple(image)
            table = made.get(image)
            if table is None:
                table = made[image] = _table(sides, pa, pb, ka, kb, image)
        if isinstance(table, str):
            failures.append(f"face {_face_key(Face2.from_top(v, i, j))}: {table}")
        else:
            tables[t, i, j] = table
    return c0, failures, tables


def _hexagon_swaps(t: int, coords: tuple[int, int, int]):
    """The six swaps around the 3-face (t, coords), as (top of the swapped
    face, coordinate cleared first, coordinate cleared second).  The six
    chains clear the coordinates in turn in the orders below; each one
    swaps interior vertex 1, 2, 1, 2, 1, 2 of the one before, cyclically."""
    i, j, k = coords
    for n, (a, b, c) in enumerate(((i, j, k), (j, i, k), (j, k, i),
                                   (k, j, i), (k, i, j), (i, k, j))):
        yield (t, a, b) if n % 2 == 0 else (t ^ 1 << a, b, c)


def _first_chain(t: int, coords: tuple[int, int, int], edges) -> tuple:
    """The three edges of the 3-face (t, coords)'s first chain, which
    clears its coordinates in increasing order."""
    i, j, k = coords
    return edges[t, i], edges[t ^ 1 << i, j], edges[t ^ 1 << i ^ 1 << j, k]


def _hexagon_walk(t: int, coords: tuple[int, int, int], edges) -> list[tuple[int, int, int]]:
    """The elements of the 3-face (t, coords)'s first chain composite that
    its hexagon must walk, as (a, b, c) step positions in composite order:
    those in a fiber over (top, bottom) of two or more elements.  The
    composite is listed once, through ``_step_pairs``, and keyed by the
    positions (x, w) of each element's top and bottom.

    This walk is exact.  Each swap replaces two adjacent steps by two with
    the same endpoints, through a table that the square pass checked keeps
    its face's fibers; so it keeps an element's (x, w), the six swaps
    compose to a permutation of each fiber, and on a fiber of one element
    that is the identity, whatever the matchings."""
    e0, e1, e2 = _first_chain(t, coords, edges)
    first = _step_pairs(e0[1], e1[0])
    e1t = e1[1]
    steps = _step_pairs([e1t[b] for _, b in first], e2[0])
    xs, ws = e0[0], e2[1]
    keys = [(xs[first[n][0]], ws[c]) for n, c in steps]
    if len(set(keys)) == len(keys):
        return []
    count = collections.Counter(keys)
    return [first[n] + (c,) for (n, c), key in zip(steps, keys) if count[key] > 1]


def _walks(n: int, edges):
    """(vertex, top mask, coordinates, hexagon walk) of every 3-face, in
    ``cube.faces3`` order.  The walk (``_hexagon_walk``) reads only the
    face's first chain, so it is listed once per first chain (its three
    edge objects) and shared by every 3-face with that chain."""
    walks: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for v, t, coords in _tops(n, 3):
        chain = tuple(map(id, _first_chain(t, coords, edges)))
        if chain not in walks:
            walks[chain] = _hexagon_walk(t, coords, edges)
        yield v, t, coords, walks[chain]


def _hexagon_tables(t: int, coords: tuple[int, int, int],
                    tables: Mapping[tuple[int, int, int], array]) -> list[array]:
    """The oriented tables of the six swaps around the 3-face (t, coords),
    in ``_hexagon_swaps`` order."""
    return [tables[top, min(p, q), max(p, q)] for top, p, q in _hexagon_swaps(t, coords)]


def _hexagon_commutes(t: int, coords: tuple[int, int, int], edges,
                      tables: Mapping[tuple[int, int, int], array],
                      walk: Sequence[tuple[int, int, int]]) -> bool:
    """Whether the six swaps around the 3-face (t, coords) compose to the
    identity on every element of its first chain's composite; ``tables``
    holds the oriented tables of (at least) its six faces, and ``walk`` is
    the face's ``_hexagon_walk``.  Only the walk's elements are carried
    round: every other element is alone in its (top, bottom) fiber, which
    each swap keeps, so it comes back to itself.  An empty walk commutes,
    and no swap is built for it.  This is the one hexagon kernel:
    ``_coherence_pass`` and ``enumerate_matchings`` call it.  The swaps
    alternate between steps (0, 1) and (1, 2), so they are applied in three
    rounds of two."""
    if not walk:
        return True
    swaps = [_swap(table, p < q, len(edges[top, p][0]), len(edges[top, q][0]))
             for (top, p, q), table in zip(_hexagon_swaps(t, coords),
                                            _hexagon_tables(t, coords, tables))]
    rounds = [swaps[r] + swaps[r + 1] for r in (0, 2, 4)]
    for a0, b0, c0 in walk:
        a, b, c = a0, b0, c0
        for t0, l0, k0, i0, o0, t1, l1, k1, i1, o1 in rounds:
            b, a = divmod(t0[bisect_left(t0, b * i0 + a, l0, l0 + k0) + k0], o0)
            c, b = divmod(t1[bisect_left(t1, c * i1 + b, l1, l1 + k1) + k1], o1)
        if a != a0 or b != b0 or c != c0:
            return False
    return True


def _coherence_pass(n: int, edges, labels, image_of):
    """The square pass (``_square_pass``) and then, if it passed, every
    hexagon, in ``cube.faces3`` order: the fiber-size failures, the
    matching or hexagon failures and the oriented tables.  This is the one
    coherence check; ``validate_coherence`` and the Khovanov build call
    it.  Every 3-face is visited, but its hexagon walks only the elements
    in (top, bottom) fibers of two or more (``_hexagon_walk``): once the
    square pass has passed, every swap keeps that fiber, so an element
    alone in its fiber always comes back to itself.

    Equal work is done once.  The walk is listed once per first chain (its
    three edge objects, ``_walks``), and the verdict computed once per
    (walk, six tables).  Both are functions of their keys: the walk reads
    only its chain, and a table object is shared only by faces with the
    same side edges (``_square_pass``), so it fixes every edge a swap
    reads.  The memos key on object identity, and the objects live through
    the pass."""
    c0, failures, tables = _square_pass(n, edges, labels, image_of)
    if c0 or failures:
        return c0, failures, tables
    verdicts: dict[tuple[int, ...], bool] = {}
    for v, t, coords, walk in _walks(n, edges):
        if not walk:
            continue
        key = (id(walk), *map(id, _hexagon_tables(t, coords, tables)))
        commutes = verdicts.get(key)
        if commutes is None:
            commutes = verdicts[key] = _hexagon_commutes(t, coords, edges, tables, walk)
        if not commutes:
            failures.append(f"3-face at {cube.bits(v)} coords {tuple(c + 1 for c in coords)}: "
                            "hexagon does not commute")
    return c0, failures, tables


def validate_c0(f: CubeFunctorData) -> ValidationReport:
    """Fiberwise equality of the two composite cardinalities on every square."""
    _, edges, labels = _indexed(f)
    failures, _, _ = _square_pass(f.n, edges, labels)
    return ValidationReport(not failures, tuple(failures), not failures)


def validate_coherence(f: CubeFunctorData) -> ValidationReport:
    """Stored matchings are 2-morphisms of the right composites, and every
    3-face hexagon commutes.  The same pass over the squares decides the
    report's ``square_condition``, as ``validate_c0`` would.

    The data is indexed into positions, and the coherence pass runs on
    them: each face's composites are listed once, as step pairs, and every
    square check reads them; each matching is read once, through its ids,
    into a position table that the hexagons of its 3-faces look up."""
    if not f.has_matchings:
        return ValidationReport(False, ("functor carries no face matchings",), False)
    corrs, edges, labels = _indexed(f)
    mask = {v: _mask(v) for v in f.vertex_sets}
    matchings = {}
    for face, m in f.face_matchings.items():
        t = mask[face.top]
        matchings[t, (t ^ mask[face.mid_a]).bit_length() - 1,
                  (t ^ mask[face.mid_b]).bit_length() - 1] = m

    def image_of(v, t, i, j, sides, pa, pb, ka, kb):
        return _matching_image(matchings[t, i, j], _sides(corrs, t, i, j), pa, pb)

    c0, failures, _ = _coherence_pass(f.n, edges, labels, image_of)
    return ValidationReport(not (c0 or failures), tuple(c0 or failures), not c0)


# -- exhaustive matching search ---------------------------------------------

# caps on the exhaustive searches: faces of ``enumerate_matchings`` and its
# default cap on bijections a face, search nodes of ``find_natural_isomorphism``
MAX_SEARCH_FACES = 64
MAX_PER_FACE = factorial(10)
MAX_ISO_NODES = 2_000_000


def enumerate_matchings(f: CubeFunctorData,
                        pinned: Mapping[Face2, Mapping[str, str]] | None = None,
                        max_per_face: int = MAX_PER_FACE,
                        ) -> list[dict[Face2, dict[str, str]]]:
    """All globally coherent 2-face matching assignments for data that has
    vertices and edges (matchings, if any, are ignored), with at most
    ``MAX_SEARCH_FACES`` faces and ``max_per_face`` bijections a face.

    ``pinned`` optionally constrains some faces by partial id mappings.
    A face's candidates are drawn from ``_keyed_bijections`` through
    ``_fiber_images``, fibers ordered by their (top id, bottom id), and the
    completions come in that order, the first face varying slowest.

    Each 3-face's hexagon walk is listed before the search, once per
    first chain (``_walks``), and a 3-face is checked only if its walk is
    nonempty.  The rule is exact: every candidate keeps its face's fibers,
    so each swap keeps an element's (top, bottom) fiber, and an element
    alone in its fiber comes back to itself under any candidates.
    """
    faces = cube.faces2(f.n)
    if len(faces) > MAX_SEARCH_FACES:
        raise SearchCapExceeded(f"{len(faces)} faces exceeds cap {MAX_SEARCH_FACES}")
    corrs, edges, labels = _indexed(f)
    c0, _, _ = _square_pass(f.n, edges, labels)
    if c0:
        raise InputError("condition on composite cardinalities fails: " + "; ".join(c0))
    # faces are (top mask, i, j) as in the coherence pass, in the order of ``faces``
    keys = [(t, i, j) for _, t, (i, j) in _tops(f.n, 2)]
    ids, candidates = [], []
    for face, (t, i, j) in zip(faces, keys):
        sides = _sides(edges, t, i, j)
        pa, pb = _face_composites(*sides)
        ka, kb = _fiber_keys(sides[0], pa), _fiber_keys(sides[1], pb)
        ida, idb = ([f"{y.elements[q].id}{COMPOSE_SEP}{x.elements[p].id}" for p, q in steps]
                    for (x, y), steps in zip(_sides(corrs, t, i, j), (pa, pb)))
        pins = {}
        for s, d in ((pinned or {}).get(face) or {}).items():
            if s not in ida or d not in idb:
                raise InputError(f"pinned pair {s!r}->{d!r} not in face {_face_key(face)}")
            pins[ida.index(s)] = idb.index(d)
        cands = []
        for image in _fiber_images(face, ka, kb, labels[t], labels[t ^ 1 << i ^ 1 << j],
                                   pins, max_per_face):
            table = _table(sides, pa, pb, ka, kb, image)
            if isinstance(table, str):
                raise InternalInvariantError(f"face {_face_key(face)}: {table}")
            cands.append((image, table))
        ids.append((ida, idb))
        candidates.append(cands)
    # 3-faces become checkable once their last (in assignment order) 2-face
    # is set; the walks are listed here, once per first chain, and a 3-face
    # with an empty walk commutes whatever the candidates, so it is not checked
    face_pos = {key: n for n, key in enumerate(keys)}
    ready_at: dict[int, list[tuple[int, tuple[int, int, int], list]]] = {}
    for _, t, coords, walk in _walks(f.n, edges):
        if walk:
            last = max(face_pos[top, min(p, q), max(p, q)]
                       for top, p, q in _hexagon_swaps(t, coords))
            ready_at.setdefault(last, []).append((t, coords, walk))

    images: list[list[int]] = [[] for _ in faces]
    chosen: dict[tuple[int, int, int], array] = {}

    def accept(n: int, candidate: tuple[list[int], array]) -> bool:
        images[n], chosen[keys[n]] = candidate
        return all(_hexagon_commutes(t, coords, edges, chosen, walk)
                   for t, coords, walk in ready_at.get(n, []))

    return [{face: dict(sorted(zip(ida, (idb[q] for q in image))))
             for face, (ida, idb), image in zip(faces, ids, images)}
            for _ in _backtrack(len(faces), candidates.__getitem__, accept)]


def _fiber_images(face: Face2, ka: list[tuple[int, int]], kb: list[tuple[int, int]],
                  top: Sequence[str], bottom: Sequence[str], pins: Mapping[int, int],
                  max_per_face: int) -> Iterator[list[int]]:
    """Every image p -> q of the composites of ``face``, with fiber keys ka
    and kb, that keeps fibers and the pins p -> pins[p], drawn from
    ``_keyed_bijections`` with fibers ordered by their (source, target)
    ids, named by ``top`` and ``bottom``.  ``SearchCapExceeded`` when, pins
    aside, there are more than ``max_per_face``."""
    count = prod(map(factorial, collections.Counter(ka).values()))
    if count > max_per_face:
        raise SearchCapExceeded(f"face {_face_key(face)} admits {count} bijections")
    return _keyed_bijections(_key_classes(ka, kb), lambda key: (top[key[0]], bottom[key[1]]),
                             pins)


def _key_classes(ka: Sequence[Hashable], kb: Sequence[Hashable],
                 ) -> dict[Hashable, tuple[list[int], list[int]]] | None:
    """The positions of each key in ka and in kb, or None when the two
    lists' key counts differ, so that no bijection keeps the keys."""
    classes: dict[Hashable, tuple[list[int], list[int]]] = {}
    for side, keys in enumerate((ka, kb)):
        for p, key in enumerate(keys):
            classes.setdefault(key, ([], []))[side].append(p)
    return classes if all(len(ps) == len(qs) for ps, qs in classes.values()) else None


def _keyed_bijections(classes: Mapping[Hashable, tuple[list[int], list[int]]] | None,
                      order: Callable[[Hashable], object] | None = None,
                      pins: Mapping[int, int] | None = None) -> Iterator[list[int]]:
    """Lazily, from the ``_key_classes`` of key lists ka and kb, every
    bijection p -> q from the positions of ka to those of kb with kb[q] ==
    ka[p], and q == pins[p] where p is pinned, as a fresh image list
    (image[p] = q): per key class, the permutations of its positions in kb,
    one class at a time, classes sorted by ``order``, the first varying
    slowest.  Nothing when the key counts differ (classes None).  The one
    enumerator of the exhaustive searches: ``enumerate_matchings``' face
    candidates, ``find_natural_isomorphism``'s sigma and tau.  Nothing is
    listed ahead of its draw."""
    if classes is None:
        return
    levels = [classes[key] for key in sorted(classes, key=order)]
    pins = pins or {}
    image = [0] * sum(len(ps) for ps, _ in levels)

    def accept(k: int, perm: tuple[int, ...]) -> bool:
        ps = levels[k][0]
        for p, q in zip(ps, perm):
            image[p] = q
        return all(pins.get(p, q) == q for p, q in zip(ps, perm))

    for _ in _backtrack(len(levels), lambda k: itertools.permutations(levels[k][1]), accept):
        yield list(image)


def _backtrack(depth: int, options: Callable[[int], Iterable],
               accept: Callable[[int, object], bool]) -> Iterator[None]:
    """The one descent of the exhaustive searches, on an explicit stack:
    level k draws its choices lazily from ``options(k)``, and
    ``accept(k, choice)`` records one and says whether to descend.  Yields
    once per full descent, the deepest level advancing first."""
    drawn: list[Iterator] = []
    k = 0
    while k >= 0:
        if k == depth:
            yield
            k -= 1
            continue
        if k == len(drawn):
            drawn.append(iter(options(k)))
        for choice in drawn[k]:
            if accept(k, choice):
                k += 1
                break
        else:
            drawn.pop()
            k -= 1


def with_matchings(f: CubeFunctorData,
                   assignment: Mapping[Face2, Mapping[str, str]]) -> CubeFunctorData:
    fm = {}
    for face in cube.faces2(f.n):
        ca, cb = f.square(face)
        fm[face] = BijectionOver.of(ca, cb, dict(assignment[face]))
    return CubeFunctorData(f.n, f.vertex_sets, f.edge_corrs, fm)


def _forced_image(ka: list[tuple[int, int]], kb: list[tuple[int, int]]) -> list[int] | None:
    """The forced matching of a face whose two composites have fiber keys
    ka and kb (of equal fiber sizes): element p of one goes to the one
    element of its fiber in the other, as a position image; None when some
    fiber has several elements, and [] when the composites are empty.  This
    is the one forced rule: the square pass of ``_forced_tables`` and of
    the Khovanov build reads it, through ``_forced_rule``."""
    where = {key: q for q, key in enumerate(kb)}
    return [where[key] for key in ka] if len(where) == len(kb) else None


def _forced_rule():
    """``_forced_image`` for an ``image_of``, found once per pair of fiber
    key lists and returned as one shared tuple: the square pass hands the
    same two lists to every face with the same four sides.  Each entry
    keeps the lists it is keyed on, so no id is reused while the rule
    lives."""
    known: dict[int, tuple] = {}

    def forced(ka: list[tuple[int, int]], kb: list[tuple[int, int]]) -> tuple[int, ...] | None:
        entry = known.get(id(ka))
        if entry is None or entry[1] is not kb:
            image = _forced_image(ka, kb)
            entry = known[id(ka)] = (ka, kb, None if image is None else tuple(image))
        return entry[2]
    return forced


def _forced_tables(f: CubeFunctorData):
    """The square pass with the forced rule on f's positions: f's edges,
    vertex labels and face tables, or ``InputError`` naming the first face
    whose composites differ in a fiber size or, failing that, have a fiber
    of several elements.  Hexagons are not checked."""
    corrs, edges, labels = _indexed(f)
    forced = _forced_rule()

    def image_of(v, t, i, j, sides, pa, pb, ka, kb):
        image = forced(ka, kb)
        return "ambiguous fiber" if image is None else image

    c0, failures, tables = _square_pass(f.n, edges, labels, image_of)
    if c0 or failures:
        raise InputError((c0 or failures)[0])
    return corrs, labels, tables


def forced_matchings(f: CubeFunctorData) -> CubeFunctorData:
    """Attach the unique fiberwise matchings (``_forced_tables``), written
    as ``compose`` builds the composites; a face with empty composites
    takes the one empty matching of its (top set, bottom set)."""
    corrs, labels, tables = _forced_tables(f)

    @cache
    def empty(top: tuple[str, ...], bottom: tuple[str, ...]) -> BijectionOver:
        c = Correspondence(FiniteSet(top), FiniteSet(bottom), ())
        return BijectionOver(c, c, ())

    fm = {Face2.from_top(v, i, j): _written_matching(tables[t, i, j], _sides(corrs, t, i, j))
          if tables[t, i, j] else empty(labels[t], labels[t ^ 1 << i ^ 1 << j])
          for v, t, (i, j) in _tops(f.n, 2)}
    return CubeFunctorData(f.n, f.vertex_sets, f.edge_corrs, fm)


# -- coproduct, product, face inclusions -------------------------------------

def coproduct(f: CubeFunctorData, g: CubeFunctorData) -> CubeFunctorData:
    """Vertexwise disjoint union, the one routine that tags one: f's vertex
    and edge ids get the prefix "l·" and g's "r·", f's elements first.  A
    face's matching is the union of f's and g's, with every step of each
    composite id tagged.  Matchings are kept only when both have them."""
    if f.n != g.n:
        raise InputError("coproduct requires equal cube dimensions")
    sides = (("l·", f), ("r·", g))
    vs = {v: FiniteSet(tuple(tag + x for tag, h in sides for x in h.vset(v)))
          for v in cube.vertices(f.n)}
    ec = {(u, v): Correspondence(vs[u], vs[v], tuple(
              CorrElem(tag + e.id, tag + e.s, tag + e.t)
              for tag, h in sides for e in h.edge(u, v).elements))
          for (u, v) in cube.edges(f.n)}
    fm = None
    if f.has_matchings and g.has_matchings:
        probe = CubeFunctorData(f.n, vs, ec, None)
        fm = {face: BijectionOver.of(*probe.square(face), {
                  _tag_steps(tag, a): _tag_steps(tag, b)
                  for tag, h in sides for a, b in h.matching(face).mapping})
              for face in cube.faces2(f.n)}
    return CubeFunctorData(f.n, vs, ec, fm)


def _tag_steps(tag: str, eid: str) -> str:
    return join_composite_id(tag + step for step in split_composite_id(eid))


def _pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def product(f1: CubeFunctorData, f2: CubeFunctorData) -> CubeFunctorData:
    """Product functor on the concatenated cube; edges act on one factor and
    identically on the other, so the two kinds of mixed-square composites are
    matched by recombining the same pair of factor elements."""
    n1, n2 = f1.n, f2.n
    n = n1 + n2

    def vset(w: Vertex) -> FiniteSet:
        a, b = w[:n1], w[n1:]
        return FiniteSet(tuple(_pair_id(x, y) for x in f1.vset(a) for y in f2.vset(b)))

    vs = {w: vset(w) for w in cube.vertices(n)}
    ec: dict[Edge, Correspondence] = {}
    for (u, v) in cube.edges(n):
        k = cube.edge_coordinate(u, v)
        u1, u2, v1, v2 = u[:n1], u[n1:], v[:n1], v[n1:]
        elems = []
        if k < n1:
            for e in f1.edge(u1, v1).elements:
                for y in f2.vset(u2):
                    elems.append(CorrElem(_pair_id(e.id, y), _pair_id(e.s, y), _pair_id(e.t, y)))
        else:
            for x in f1.vset(u1):
                for e in f2.edge(u2, v2).elements:
                    elems.append(CorrElem(_pair_id(x, e.id), _pair_id(x, e.s), _pair_id(x, e.t)))
        ec[(u, v)] = Correspondence(vs[u], vs[v], tuple(elems))

    fm = None
    if f1.has_matchings and f2.has_matchings:
        fm = {}
        probe = CubeFunctorData(n, vs, ec, None)
        for face in cube.faces2(n):
            i = cube.edge_coordinate(face.top, face.mid_a)
            j = cube.edge_coordinate(face.top, face.mid_b)
            top1, top2 = face.top[:n1], face.top[n1:]
            if j < n1:
                # both steps act on F1, on the same F2(top) element w
                m1 = f1.matching(Face2.from_top(top1, i, j)).mapping
                mapping = {_pair_steps(a, w, False): _pair_steps(b, w, False)
                           for a, b in m1 for w in f2.vset(top2)}
            elif i >= n1:
                m2 = f2.matching(Face2.from_top(top2, i - n1, j - n1)).mapping
                mapping = {_pair_steps(a, w, True): _pair_steps(b, w, True)
                           for a, b in m2 for w in f1.vset(top1)}
            else:
                # one coordinate in each factor: composites are the pairs (e1, e2)
                mapping = {join_composite_id([_pair_id(e1.t, e2.id), _pair_id(e1.id, e2.s)]):
                           join_composite_id([_pair_id(e1.id, e2.t), _pair_id(e1.s, e2.id)])
                           for e1 in f1.edge(top1, face.bottom[:n1]).elements
                           for e2 in f2.edge(top2, face.bottom[n1:]).elements}
            fm[face] = BijectionOver.of(*probe.square(face), mapping)
    return CubeFunctorData(n, vs, ec, fm)


def _pair_steps(eid: str, w: str, w_first: bool) -> str:
    """The product's composite id of a factor composite ``eid`` whose every
    step is paired with the other factor's element w.  Only the composite
    id is split: its separator cannot occur in an atomic id."""
    return join_composite_id(_pair_id(w, x) if w_first else _pair_id(x, w)
                             for x in split_composite_id(eid))


def _slice_items(f: CubeFunctorData, iota: FaceInclusion):
    """The vertex sets, edges and matchings (None without matchings) of f
    pulled back along iota, as lazy (key, value) pairs in ``cube`` order,
    each looked up in f through iota."""
    if iota.N != f.n:
        raise InputError("dimension mismatch")
    at = {v: iota.apply(v) for v in cube.vertices(iota.n)}

    def matching(face: Face2) -> BijectionOver:
        big = Face2(at[face.top], at[face.mid_a], at[face.mid_b], at[face.bottom])
        m = f.face_matchings.get(big)
        if m is None:  # iota reverses the order of the face's two coordinates
            m = f.matching(Face2(big.top, big.mid_b, big.mid_a, big.bottom)).inverse()
        return m

    return (((v, f.vset(w)) for v, w in at.items()),
            (((u, v), f.edge(at[u], at[v])) for u, v in cube.edges(iota.n)),
            ((face, matching(face)) for face in cube.faces2(iota.n)) if f.has_matchings else None)


def slice_functor(f: CubeFunctorData, iota: FaceInclusion) -> CubeFunctorData:
    """Pull back along a face inclusion (no support requirement)."""
    vs, ec, fm = _slice_items(f, iota)
    return CubeFunctorData(iota.n, dict(vs), dict(ec), None if fm is None else dict(fm))


def is_slice(f: CubeFunctorData, iota: FaceInclusion, g: CubeFunctorData) -> bool:
    """Whether ``slice_functor(f, iota) == g``, decided in place: g's vertex
    sets, edges and matchings are compared with f's, looked up through
    iota, and no slice is built."""
    items = _slice_items(f, iota)
    if g.n != iota.n or (items[2] is None) != (g.face_matchings is None):
        return False
    for pairs, values in zip(items, (g.vertex_sets, g.edge_corrs, g.face_matchings)):
        if pairs is None:
            continue
        count = 0
        for key, value in pairs:
            if values.get(key) != value:
                return False
            count += 1
        if count != len(values):
            return False
    return True


def extend_along_face_inclusion(f: CubeFunctorData, iota: FaceInclusion) -> CubeFunctorData:
    """Extend by empty sets off the image of the face inclusion."""
    if iota.n != f.n:
        raise InputError("dimension mismatch")
    n2 = iota.N
    image = {iota.apply(v): v for v in cube.vertices(f.n)}
    vs = {w: f.vset(image[w]) if w in image else FiniteSet(())
          for w in cube.vertices(n2)}
    ec = {}
    for (u, v) in cube.edges(n2):
        if u in image and v in image:
            ec[(u, v)] = f.edge(image[u], image[v])
        else:
            ec[(u, v)] = Correspondence(vs[u], vs[v], ())
    fm = None
    if f.has_matchings:
        fm = {}
        probe = CubeFunctorData(n2, vs, ec, None)
        for face in cube.faces2(n2):
            if face.top in image and face.bottom in image:
                small = Face2.spanning(image[face.top], image[face.mid_a],
                                       image[face.mid_b], image[face.bottom])
                fm[face] = f.matching_via(small, image[face.mid_a])
            else:
                ca, cb = probe.square(face)
                fm[face] = BijectionOver.of(ca, cb, {})
    return CubeFunctorData(n2, vs, ec, fm)


def restrict_along_face_inclusion(f: CubeFunctorData, iota: FaceInclusion) -> CubeFunctorData:
    """Inverse of extension when the support lies in the image."""
    if iota.N != f.n:
        raise InputError("dimension mismatch")
    image = iota.image()
    for w in cube.vertices(f.n):
        if w not in image and len(f.vset(w)) > 0:
            raise InputError(f"support at {cube.bits(w)} outside the face image")
    return slice_functor(f, iota)


# -- sub and quotient functors ------------------------------------------------

def _leaves(u: Vertex, v: Vertex, e: CorrElem) -> str:
    return (f"edge {cube.bits(u)}>{cube.bits(v)} element {e.id} leaves "
            f"the subset at {e.t}")


def _by_vertex(s: Iterable[tuple[Vertex, str]]) -> dict[Vertex, frozenset[str]]:
    """A support set of generators (v, x) as each vertex's set of labels,
    equal sets one object."""
    out: dict = {}
    for v, x in s:
        out.setdefault(v, set()).add(x)
    one: dict[frozenset[str], frozenset[str]] = {}
    return {v: one.setdefault(xs, xs) for v, xs in zip(out, map(frozenset, out.values()))}


def _closed_under_targets(f: CubeFunctorData, s: Mapping[Vertex, frozenset[str]]) -> str | None:
    """A witness edge element from a generator of ``s`` (labels by vertex)
    to one outside it, the first in edge order, or None when ``s`` spans a
    subcomplex; each (edge object, label sets at its ends) is checked once."""
    passed: dict[tuple[int, int, int], tuple] = {}
    for (u, v), corr in f.edge_corrs.items():
        su, sv = s.get(u, ()), s.get(v, ())
        key = (id(corr), id(su), id(sv))
        if su and key not in passed:
            for e in corr.elements:
                if e.s in su and e.t not in sv:
                    return _leaves(u, v, e)
            passed[key] = (corr, su, sv)
    return None


def restrict_parts(f: CubeFunctorData, part_of: Mapping[Vertex, Mapping[str, Hashable]],
                   parts: Sequence[Hashable]) -> dict[Hashable, CubeFunctorData]:
    """The restrictions of f to the parts of its generators, from one pass
    over the vertices and the edges.

    ``part_of`` sends each vertex v to a map from labels x of v to parts,
    one of ``parts``, so that generator (v, x) goes to ``part_of[v][x]``;
    generators it does not name are dropped, and so is every edge element
    with an end in no part.  An edge element joining two different parts
    raises ``InputError`` naming the first such edge.  Within one call a
    vertex, an edge or a face with no generator of a part at its corners
    gets one shared empty value.  A vertex is split once per (set object,
    parts of its labels in order) and an edge once per (edge object, splits
    at its ends); a split is a function of its key, and parts share it.

    With face matchings, each stored matching must sit on its face's
    composites ``f.square(face)`` (``InputError`` names the face where it
    does not), and each part composes its own faces: a part's matching is
    the stored one on the ids of the part's ``square(face)``, validated as
    it is built."""
    empty_corr = Correspondence(EMPTY_SET, EMPTY_SET, ())
    no_vertices = dict.fromkeys(f.vertex_sets, EMPTY_SET)
    vs = {p: no_vertices.copy() for p in parts}
    unnamed: Mapping[str, Hashable] = {}
    splits: dict[tuple, tuple] = {}  # key -> (set, label map, {part: FiniteSet})
    split_at: dict[Vertex, tuple] = {}
    for v, xs in f.vertex_sets.items():
        labels = part_of.get(v, unnamed)
        key = (id(xs), tuple(map(labels.get, xs.elements)))
        if key not in splits:
            groups: dict[Hashable, list[str]] = {}
            for x, p in zip(xs.elements, key[1]):
                if p is not None:
                    groups.setdefault(p, []).append(x)
            splits[key] = (xs, labels, {p: FiniteSet(tuple(g)) for p, g in groups.items()})
        split_at[v] = splits[key]
        for p, kept in split_at[v][2].items():
            vs[p][v] = kept

    no_edges = dict.fromkeys(f.edge_corrs, empty_corr)
    ec = {p: no_edges.copy() for p in parts}
    edge_splits: dict[tuple[int, int, int], tuple] = {}  # key -> (edge, {part: edge})
    for (u, v), corr in f.edge_corrs.items():
        key = (id(corr), id(split_at[u]), id(split_at[v]))
        if key not in edge_splits:
            (_, at_u, sets_u), (_, at_v, sets_v) = split_at[u], split_at[v]
            out: dict[Hashable, list[CorrElem]] = {p: [] for p in sets_u.keys() | sets_v.keys()}
            for e in corr.elements:
                p, q = at_u.get(e.s), at_v.get(e.t)
                if p is None or q is None:
                    continue
                if p != q:
                    raise InputError("subset does not span a subcomplex: " + _leaves(u, v, e))
                out[p].append(e)
            edge_splits[key] = (corr, {
                p: Correspondence(sets_u.get(p, EMPTY_SET), sets_v.get(p, EMPTY_SET), tuple(es))
                for p, es in out.items()})
        for p, part in edge_splits[key][1].items():
            ec[p][(u, v)] = part
    restricted = {p: CubeFunctorData(f.n, vs[p], ec[p]) for p in parts}
    if not f.has_matchings:
        return restricted

    no_faces = dict.fromkeys(f.face_matchings, BijectionOver(empty_corr, empty_corr, ()))
    fm = {p: no_faces.copy() for p in parts}
    for face in f.face_matchings:
        mapping = _on_square(f, face).as_dict()
        for p in split_at[face.top][2].keys() | split_at[face.bottom][2].keys():
            ca, cb = restricted[p].square(face)
            fm[p][face] = BijectionOver.of(ca, cb, {e.id: mapping[e.id] for e in ca.elements})
    return {p: CubeFunctorData(f.n, vs[p], ec[p], fm[p]) for p in parts}


def sub_functor(f: CubeFunctorData, s: Iterable[tuple[Vertex, str]]) -> CubeFunctorData:
    """Restriction to a subset of generators whose span is closed under all
    edge targets: ``restrict_parts`` with one part, after the closure check.
    Each stored matching must sit on its face's composites (``InputError``
    where one does not)."""
    ss = _by_vertex(s)
    witness = _closed_under_targets(f, ss)
    if witness is not None:
        raise InputError("subset does not span a subcomplex: " + witness)
    return _one_part(f, ss)


def quotient_functor_data(f: CubeFunctorData, s: Iterable[tuple[Vertex, str]],
                          ) -> CubeFunctorData:
    """Restriction to a subset whose complement spans a subcomplex."""
    ss = _by_vertex(s)
    comp = _by_vertex((v, x) for v, xs in f.vertex_sets.items()
                      for x in xs if x not in ss.get(v, ()))
    witness = _closed_under_targets(f, comp)
    if witness is not None:
        raise InputError("complement does not span a subcomplex: " + witness)
    return _one_part(f, ss)


def _one_part(f: CubeFunctorData, s: Mapping[Vertex, frozenset[str]]) -> CubeFunctorData:
    """``restrict_parts`` with the one part ``s`` (labels by vertex)."""
    return restrict_parts(f, {v: dict.fromkeys(xs, 0) for v, xs in s.items()}, (0,))[0]


def quotient_functor(f: CubeFunctorData, s: Iterable[tuple[Vertex, str]],
                     ) -> tuple[CubeFunctorData, "NaturalTransformation"]:
    """Quotient-style restriction together with the projection
    transformation onto it."""
    fs = quotient_functor_data(f, s)
    return fs, _graph_of_identity(f, fs, fs)


# -- natural transformations ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class NaturalTransformation:
    """A functor on the (n+1)-cube whose restriction to the 1-side is the
    source and to the 0-side the target."""

    ambient: CubeFunctorData

    @property
    def n(self) -> int:
        return self.ambient.n - 1

    def _side(self, bit: int) -> FaceInclusion:
        return FaceInclusion(self.n, self.n + 1, (bit,) + (0,) * self.n,
                             tuple(range(1, self.n + 1)))

    def source_functor(self) -> CubeFunctorData:
        return slice_functor(self.ambient, self._side(1))

    def target_functor(self) -> CubeFunctorData:
        return slice_functor(self.ambient, self._side(0))

    def is_side(self, bit: int, g: CubeFunctorData) -> bool:
        """Whether g is the source (bit 1) or the target (bit 0), compared
        in place (``is_slice``)."""
        return is_slice(self.ambient, self._side(bit), g)

    def component(self, v: Vertex) -> Correspondence:
        return self.ambient.edge((1,) + v, (0,) + v)


def build_nat_trans(f: CubeFunctorData, g: CubeFunctorData,
                    components: Mapping[Vertex, Correspondence],
                    mixed_matchings: Mapping[Edge, Mapping[str, str]],
                    ) -> NaturalTransformation:
    """Assemble and validate the ambient functor of a transformation f -> g.

    ``mixed_matchings`` maps every n-cube edge (u, v) to the matching from
    the composite g(u>v)∘component(u) to component(v)∘f(u>v); a missing
    edge raises ``InputError``.
    """
    if f.n != g.n:
        raise InputError("transformation requires equal cube dimensions")
    if not (f.has_matchings and g.has_matchings):
        raise InputError("both functors need face matchings")
    n = f.n
    vs: dict[Vertex, FiniteSet] = {}
    ec: dict[Edge, Correspondence] = {}
    for v in cube.vertices(n):
        vs[(1,) + v] = f.vset(v)
        vs[(0,) + v] = g.vset(v)
    for (u, v) in cube.edges(n):
        ec[((1,) + u, (1,) + v)] = f.edge(u, v)
        ec[((0,) + u, (0,) + v)] = g.edge(u, v)
    for v in cube.vertices(n):
        comp = components[v]
        if comp.source_set != f.vset(v) or comp.target_set != g.vset(v):
            raise InputError(f"component at {cube.bits(v)} has wrong endpoint sets")
        ec[((1,) + v, (0,) + v)] = comp
    fm: dict[Face2, BijectionOver] = {}
    probe = CubeFunctorData(n + 1, vs, ec, None)
    for face in cube.faces2(n + 1):
        tb = face.top[0]
        if tb == face.bottom[0]:
            inner = Face2.spanning(face.top[1:], face.mid_a[1:], face.mid_b[1:],
                                   face.bottom[1:])
            src = f if tb == 1 else g
            fm[face] = src.matching(inner)
        else:
            # mixed square: mid_a = (0, u), mid_b = (1, v)
            u, v = face.top[1:], face.bottom[1:]
            ca, cb = probe.square(face)
            given = mixed_matchings.get((u, v))
            try:
                if given is None:
                    raise InputError("no matching given")
                fm[face] = BijectionOver.of(ca, cb, dict(given))
            except ValueError as exc:
                raise InputError(f"mixed square over edge {cube.bits(u)}>"
                                 f"{cube.bits(v)}: {exc}") from exc
    ambient = CubeFunctorData(n + 1, vs, ec, fm)
    rep = validate_coherence(ambient)
    if not rep:
        raise InputError("transformation is not coherent: " + "; ".join(rep.failures))
    return NaturalTransformation(ambient)


def _graph_of_identity(f: CubeFunctorData, g: CubeFunctorData,
                       small: CubeFunctorData) -> NaturalTransformation:
    """The transformation f -> g that is the identity on ``small`` (f or g,
    whichever sits inside the other): components x ↦ x on its generators,
    mixed squares e.id∘e.s ↦ e.t∘e.id on its edge elements."""
    comps = {v: Correspondence(f.vset(v), g.vset(v),
                               tuple(CorrElem(x, x, x) for x in small.vset(v)))
             for v in cube.vertices(f.n)}
    mixed = {(u, v): {join_composite_id([e.id, e.s]): join_composite_id([e.t, e.id])
                      for e in small.edge(u, v).elements}
             for (u, v) in cube.edges(f.n)}
    return build_nat_trans(f, g, comps, mixed)


def identity_transformation(f: CubeFunctorData) -> NaturalTransformation:
    return _graph_of_identity(f, f, f)


def sub_inclusion_transformation(f: CubeFunctorData, s: Iterable[tuple[Vertex, str]],
                                 ) -> tuple[CubeFunctorData, NaturalTransformation]:
    """The sub-functor on ``s`` and the inclusion transformation into f."""
    fsub = sub_functor(f, set(s))
    return fsub, _graph_of_identity(fsub, f, fsub)


def iso_transformation(f: CubeFunctorData, g: CubeFunctorData,
                       sigma: Mapping[Vertex, Mapping[str, str]],
                       tau: Mapping[Edge, Mapping[str, str]]) -> NaturalTransformation:
    """The transformation whose components are the graphs of a natural
    isomorphism (sigma on vertex sets, tau on edge elements)."""
    comps = {}
    mixed = {}
    for v in cube.vertices(f.n):
        comps[v] = Correspondence(f.vset(v), g.vset(v),
                                  tuple(CorrElem(x, x, sigma[v][x]) for x in f.vset(v)))
    for (u, v) in cube.edges(f.n):
        mixed[(u, v)] = {}
        for e in f.edge(u, v).elements:
            ge = tau[(u, v)][e.id]
            mixed[(u, v)][join_composite_id([ge, e.s])] = join_composite_id([e.t, e.id])
    return build_nat_trans(f, g, comps, mixed)


def glue_along_top(eta: NaturalTransformation, eta2: NaturalTransformation,
                   ) -> tuple[CubeFunctorData, NaturalTransformation, NaturalTransformation]:
    """Pushout of two transformations out of the same source: identify the
    1-side copies and take the disjoint union elsewhere.

    H is the ambient of a transformation from the shared source to the
    ``coproduct`` of the two targets: its 1-side is the source, its 0-side
    (vertex sets, edges and face matchings) is the coproduct, and the
    components and mixed squares of eta and eta2 take on the coproduct's
    tags "l·" and "r·".  Only the mixed squares are composed here.

    Returns (H, incl_from_target(eta), incl_from_target(eta2)); the
    inclusion sources are the extensions of the two targets by empty sets
    on the 1-side.
    """
    g = eta.source_functor()
    if g != eta2.source_functor():
        raise InputError("transformations do not share their restriction to the 1-side")
    n = eta.n
    fa, fb = eta.target_functor(), eta2.target_functor()
    union = coproduct(fa, fb)
    sides = (("l·", eta), ("r·", eta2))
    comps = {v: Correspondence(g.vset(v), union.vset(v), tuple(
                 CorrElem(tag + e.id, e.s, tag + e.t)
                 for tag, tr in sides for e in tr.component(v).elements))
             for v in cube.vertices(n)}
    mixed: dict[Edge, dict[str, str]] = {}
    for (u, v) in cube.edges(n):
        mixed[(u, v)] = m = {}
        # mid_a = (0, u): both steps are tagged; mid_b = (1, v): g's step is not
        face = Face2.from_top((1,) + u, 0, cube.edge_coordinate(u, v) + 1)
        for tag, tr in sides:
            for src, dst in tr.ambient.matching(face).mapping:
                yd, xd = split_composite_id(dst)
                m[_tag_steps(tag, src)] = join_composite_id([tag + yd, xd])
    h = build_nat_trans(g, union, comps, mixed).ambient
    sl = {((0,) + v, "l·" + x) for v in cube.vertices(n) for x in fa.vset(v)}
    sr = {((0,) + v, "r·" + x) for v in cube.vertices(n) for x in fb.vset(v)}
    _, th_l = sub_inclusion_transformation(h, sl)
    _, th_r = sub_inclusion_transformation(h, sr)
    return h, th_l, th_r


# -- natural isomorphism search ------------------------------------------------

def is_natural_isomorphism(f: CubeFunctorData, g: CubeFunctorData,
                           sigma: Mapping[Vertex, Mapping[str, str]],
                           tau: Mapping[Edge, Mapping[str, str]]) -> bool:
    if f.n != g.n:
        return False
    for v in cube.vertices(f.n):
        sv = sigma[v]
        if sorted(sv.keys()) != sorted(f.vset(v).elements):
            return False
        if sorted(sv.values()) != sorted(g.vset(v).elements):
            return False
    for (u, v) in cube.edges(f.n):
        tv = tau[(u, v)]
        fe, ge = f.edge(u, v), g.edge(u, v)
        if sorted(tv.keys()) != sorted(fe.ids()):
            return False
        if sorted(tv.values()) != sorted(ge.ids()):
            return False
        g_by_id = {e.id: e for e in ge.elements}
        for e in fe.elements:
            img = g_by_id[tv[e.id]]
            if img.s != sigma[u][e.s] or img.t != sigma[v][e.t]:
                return False
    if f.has_matchings != g.has_matchings:
        return False
    if f.has_matchings:
        return all(_face_commutes(f, g, tau, face) for face in cube.faces2(f.n))
    return True


def _face_commutes(f: CubeFunctorData, g: CubeFunctorData,
                   tau: Mapping[Edge, Mapping[str, str]], face: Face2) -> bool:
    """tau, applied stepwise to composites, carries f's matching on ``face``
    to g's."""
    mg = g.matching(face).as_dict()
    ta = tau[(face.top, face.mid_a)]
    tb = tau[(face.mid_a, face.bottom)]
    ta2 = tau[(face.top, face.mid_b)]
    tb2 = tau[(face.mid_b, face.bottom)]
    for src, dst in f.matching(face).as_dict().items():
        ys, xs = split_composite_id(src)
        yd, xd = split_composite_id(dst)
        if mg[join_composite_id([tb[ys], ta[xs]])] != \
                join_composite_id([tb2[yd], ta2[xd]]):
            return False
    return True


def find_natural_isomorphism(f: CubeFunctorData, g: CubeFunctorData):
    """Exhaustive search for (sigma, tau) making f and g naturally
    isomorphic; returns the pair or None.  Candidates come from
    ``_keyed_bijections``: sigma at a vertex keeps degree signatures (an
    element's count on each incident edge), and tau on an edge keeps
    (sigma(s), sigma(t)) against (s, t); a sigma is kept only if each edge
    between assigned vertices passes the enumerator's key-count test, and
    the edge's level draws tau from the key classes that test found.  One
    ``_backtrack`` level per vertex, then per edge; a candidate is one node,
    counted before anything reads it, and the search stops after
    ``MAX_ISO_NODES`` nodes (``SearchCapExceeded``)."""
    n = f.n
    verts, edges = cube.vertices(n), cube.edges(n)
    if (n != g.n or f.has_matchings != g.has_matchings
            or any(len(f.vset(v)) != len(g.vset(v)) for v in verts)
            or any(len(f.edge(*e)) != len(g.edge(*e)) for e in edges)):
        return None
    nodes = itertools.count(1)

    def bump():
        if next(nodes) > MAX_ISO_NODES:
            raise SearchCapExceeded("natural isomorphism search exceeded node cap")

    incident = {v: [] for v in verts}
    for (u, v) in edges:
        incident[u].append(((u, v), 0))
        incident[v].append(((u, v), 1))

    def degree_sigs(h: CubeFunctorData, v: Vertex) -> list[tuple[int, ...]]:
        counts = [collections.Counter(el.t if end else el.s for el in h.edge(*e).elements)
                  for e, end in incident[v]]
        return [tuple(c[x] for c in counts) for x in h.vset(v)]

    sigs = {v: (degree_sigs(f, v), degree_sigs(g, v)) for v in verts}
    sigma: dict[Vertex, dict[str, str]] = {}

    def edge_keys(e: Edge):
        u, w = e
        return ([(sigma[u][el.s], sigma[w][el.t]) for el in f.edge(*e).elements],
                [(el.s, el.t) for el in g.edge(*e).elements])

    edge_pos = {e: i for i, e in enumerate(edges)}
    face_by_last_edge: dict[Edge, list[Face2]] = {}
    for face in cube.faces2(n):
        last = max(((face.top, face.mid_a), (face.mid_a, face.bottom),
                    (face.top, face.mid_b), (face.mid_b, face.bottom)), key=edge_pos.get)
        face_by_last_edge.setdefault(last, []).append(face)
    tau: dict[Edge, dict[str, str]] = {}
    # backtracking leaves a deeper vertex's sigma behind, so a vertex tests
    # only its edges to the vertices before it in ``order``
    order = {v: k for k, v in enumerate(verts)}

    classes: dict[Edge, dict | None] = {}  # current once every sigma is set

    def options(k: int):
        return _keyed_bijections(_key_classes(*sigs[verts[k]]) if k < len(verts)
                                 else classes[edges[k - len(verts)]])

    def tested(e: Edge) -> bool:
        classes[e] = _key_classes(*edge_keys(e))
        return classes[e] is not None

    def accept(k: int, image: list[int]) -> bool:
        bump()
        if k < len(verts):
            v = verts[k]
            fx, gx = f.vset(v).elements, g.vset(v).elements
            sigma[v] = dict(zip(fx, (gx[q] for q in image)))
            return all(tested(e) for e, end in incident[v] if order[e[1 - end]] < k)
        e = edges[k - len(verts)]
        fids, gids = f.edge(*e).ids(), g.edge(*e).ids()
        tau[e] = dict(zip(fids, (gids[q] for q in image)))
        return not f.has_matchings or all(_face_commutes(f, g, tau, fc)
                                          for fc in face_by_last_edge.get(e, []))

    for _ in _backtrack(len(verts) + len(edges), options, accept):
        return sigma, tau
    return None


# -- JSON ----------------------------------------------------------------------

def _face_key(face: Face2) -> str:
    return (f"{cube.bits(face.top)}>{cube.bits(face.bottom)} via "
            f"{cube.bits(face.mid_a)}|{cube.bits(face.mid_b)}")


def functor_to_json(sf: StableFunctor | CubeFunctorData) -> dict:
    if isinstance(sf, CubeFunctorData):
        sf = StableFunctor(sf, 0)
    f = sf.functor
    out: dict = {"schema_version": 1, "n": f.n, "shift": sf.shift}
    out["vertices"] = {cube.bits(v): list(f.vset(v).elements) for v in cube.vertices(f.n)}
    out["edges"] = {f"{cube.bits(u)}>{cube.bits(v)}":
                    [{"id": e.id, "s": e.s, "t": e.t} for e in f.edge(u, v).elements]
                    for (u, v) in cube.edges(f.n)}
    if f.has_matchings:
        out["faces"] = {_face_key(face): dict(f.matching(face).mapping)
                        for face in cube.faces2(f.n)}
    return out


def functor_from_json(obj: dict) -> StableFunctor:
    try:
        n = cube.json_int(obj["n"], "n")
        shift = cube.json_int(obj.get("shift", 0), "shift")
        vertices, edges, faces = (_json_object(obj, key) for key in ("vertices", "edges", "faces"))
        vs = {cube.vertex_from_bits(k): FiniteSet(tuple(v)) for k, v in vertices.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed functor data: {exc}") from exc
    cube.check_dim(n, "cube dimension")
    ec = {}
    for key, elems in edges.items():
        try:
            us, vsx = key.split(">")
            u, v = cube.vertex_from_bits(us), cube.vertex_from_bits(vsx)
            ec[(u, v)] = Correspondence.of(vs.get(u, FiniteSet(())),
                                           vs.get(v, FiniteSet(())),
                                           [(e["id"], e["s"], e["t"]) for e in elems])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"edge {key}: {exc}") from exc
    fm = None
    if "faces" in obj:
        data = CubeFunctorData.build(n, vs, ec, None)
        fm = {}
        for key, mapping in faces.items():
            try:
                face, flipped = _face_from_key(key)
                ca, cb = data.square(face)
                bij = (BijectionOver.of(cb, ca, dict(mapping)).inverse() if flipped
                       else BijectionOver.of(ca, cb, dict(mapping)))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"face {key}: {exc}") from exc
            if face in fm and fm[face].as_dict() != bij.as_dict():
                raise InputError(f"face {key}: inconsistent with reverse orientation")
            fm[face] = bij
    return StableFunctor(CubeFunctorData.build(n, vs, ec, fm), shift)


def _json_object(obj: dict, key: str) -> dict:
    """``obj[key]``, absent meaning empty, which must be a JSON object
    (``TypeError`` if not, which ``functor_from_json`` reports)."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be an object")
    return value


def _face_from_key(key: str) -> tuple[Face2, bool]:
    try:
        span, mids = key.split(" via ")
        tops, bots = span.split(">")
        ma, mb = mids.split("|")
        top = cube.vertex_from_bits(tops)
        bottom = cube.vertex_from_bits(bots)
        mida = cube.vertex_from_bits(ma)
        midb = cube.vertex_from_bits(mb)
    except ValueError as exc:
        raise InputError(f"malformed face key {key!r}") from exc
    face = Face2.spanning(top, mida, midb, bottom)
    return face, face.mid_a != mida
