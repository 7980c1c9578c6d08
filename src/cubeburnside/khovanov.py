"""Planar diagram codes, cube-of-resolutions circle tracing, generators
labeled x_+/x_- per circle, Frobenius-algebra edge correspondences, the
ladybug pairing on exceptional square fibers, and assembly of the stable
functor of a link diagram together with its reduced and quantum-graded
variants.

The functor is built on generator positions: generator p of a vertex with
k circles labels circle c x_- exactly when bit k - 1 - c of p is set, the
``itertools.product`` order of its labels.  Edges come from bit operations
on positions, and each face's matching is a position image: forced on
one-element fibers (``functor._forced_image``, the rule of
``forced_matchings``), and on two-element fibers the ladybug transfer of
middle labels, a map of positions.  The one coherence pass of ``functor``
checks fiber sizes, every matching and every hexagon on these positions
before any string id is written; the face matchings are then written only
when asked for (``matchings``), and ``kh_table`` does not ask.  There is
one build: ``cubeb kh verify`` reads it too.

Conventions (fixed; mirroring a diagram exchanges them):
  * Crossing tuples (a,b,c,d) list arcs counterclockwise from the incoming
    under-strand.  A crossing is positive when d follows b in its
    component's cyclic arc numbering (over-strand entering at b), negative
    when b follows d; two-arc over-strands satisfy both relations and are
    disambiguated by matching each arc's head and tail occurrences.
  * The 0-resolution joins a-d and b-c; the 1-resolution joins a-b and c-d.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import cube
from .burnside import CorrElem, Correspondence, FiniteSet
from .cube import Face2, Vertex
from .errors import InputError, InternalInvariantError
from .functor import (CubeFunctorData, StableFunctor, _coherence_pass, _sides, _tops,
                      _written_matching, quotient_functor_data, restrict_parts)
from .linalg import Matrix
from .totalization import ChainComplex, dualize, homology_nontrivial, tot

Crossing = tuple[int, int, int, int]
Occurrence = tuple[int, int]  # (crossing index, slot)

# the slot paired with each slot, per resolution, and the
# counterclockwise-later slot per strand
_PARTNER = ((3, 2, 1, 0), (1, 0, 3, 2))
_LATER = {0: {frozenset({0, 3}): 0, frozenset({1, 2}): 2},
          1: {frozenset({0, 1}): 1, frozenset({2, 3}): 3}}

PLUS, MINUS = "+", "-"


@dataclass(frozen=True, slots=True)
class PDCode:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    @property
    def n(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list[int]:
        return sorted({a for x in self.crossings for a in x})

    def to_json(self) -> dict:
        return {"crossings": [list(x) for x in self.crossings],
                "free_loops": self.free_loops}


_PD_RE = re.compile(r"^\s*PD\[(.*)\]\s*$", re.S)
_X_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text_or_obj, free_loops: int = 0) -> PDCode:
    """Accepts "PD[X(a,b,c,d),...]" or the JSON dict form."""
    if isinstance(text_or_obj, dict):
        obj = text_or_obj
        try:
            pd = PDCode(tuple(tuple(cube.json_int(a, "arc label") for a in x)
                              for x in obj.get("crossings", [])),
                        cube.json_int(obj.get("free_loops", 0), "free_loops"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed PD data: {exc}") from exc
        if any(len(x) != 4 for x in pd.crossings):
            raise InputError("every crossing needs exactly four arcs")
    else:
        text = str(text_or_obj)
        m = _PD_RE.match(text)
        if not m:
            raise InputError("expected PD[...] or a JSON object")
        inner = m.group(1).strip()
        tuples = _X_RE.findall(inner)
        residue = _X_RE.sub("", inner).replace(",", "").strip()
        if residue:
            raise InputError(f"unparsed PD content: {residue!r}")
        try:
            pd = PDCode(tuple(tuple(int(a) for a in t) for t in tuples), free_loops)
        except ValueError as exc:  # a label longer than int() converts
            raise InputError(f"malformed PD data: {exc}") from exc
    # each crossing and each free loop at least doubles the work
    cube.check_dim(pd.n + pd.free_loops, "crossing plus free loop count")
    validate_pd(pd)
    return pd


def _occurrences(pd: PDCode) -> dict[int, list[tuple[int, int]]]:
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, x in enumerate(pd.crossings):
        for slot, arc in enumerate(x):
            occ.setdefault(arc, []).append((ci, slot))
    return occ


def _components(pd: PDCode) -> list[list[int]]:
    """Partition of arc labels into link components (each a contiguous
    integer range)."""
    parent: dict[int, int] = {a: a for a in pd.arcs()}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for (a, b, c, d) in pd.crossings:
        union(a, c)
        union(b, d)
    comps: dict[int, list[int]] = {}
    for a in pd.arcs():
        comps.setdefault(find(a), []).append(a)
    return [sorted(v) for v in sorted(comps.values())]


def validate_pd(pd: PDCode) -> tuple[int, ...]:
    """Refuse a diagram whose arcs, components or orientation are
    inconsistent, or that is not planar; returns its crossing signs
    (``per_crossing_signs``)."""
    if pd.free_loops < 0:
        raise InputError("free_loops must be nonnegative")
    occ = _occurrences(pd)
    for arc, places in occ.items():
        if len(places) != 2:
            raise InputError(f"arc {arc} occurs {len(places)} times, expected 2")
    _check_planar(pd, occ)
    for comp in _components(pd):
        if comp != list(range(comp[0], comp[0] + len(comp))):
            raise InputError(f"component arcs {comp} are not consecutively numbered")
    return per_crossing_signs(pd)  # validates orientation relations


def _check_planar(pd: PDCode, occ: dict[int, list[Occurrence]]) -> None:
    """Refuse a diagram that does not lie in the plane.  Each face is walked
    by leaving a crossing along an arc and, at the arc's other end, turning
    to the next slot; a diagram of n crossings in k connected pieces has
    n + 2k faces exactly when every piece is drawn on a sphere.  A code with
    fewer (a virtual diagram, such as a crossing whose opposite slots hold
    one arc) has a resolution change that neither merges nor splits."""
    other: dict[Occurrence, Occurrence] = {}
    piece = list(range(pd.n))

    def find(i):
        while piece[i] != i:
            piece[i] = piece[piece[i]]
            i = piece[i]
        return i

    for p, q in occ.values():
        other[p], other[q] = q, p
        piece[find(p[0])] = find(q[0])
    faces, seen = 0, set()
    for h in other:
        if h in seen:
            continue
        faces += 1
        while h not in seen:
            seen.add(h)
            ci, slot = other[h]
            h = (ci, (slot + 1) % 4)
    pieces = sum(1 for i in range(pd.n) if find(i) == i)
    if faces != pd.n + 2 * pieces:
        raise InputError(f"diagram is not planar: {faces} faces, expected "
                         f"{pd.n + 2 * pieces} for {pd.n} crossings in "
                         f"{pieces} connected pieces")


def _succ_table(pd: PDCode) -> dict[int, int]:
    succ = {}
    for comp in _components(pd):
        for i, a in enumerate(comp):
            succ[a] = comp[(i + 1) % len(comp)]
    return succ


def per_crossing_signs(pd: PDCode) -> tuple[int, ...]:
    """+1/-1 per crossing; raises on inconsistent orientation data.

    Every arc needs exactly one head: slot 0, and slot 1 if the crossing is
    positive, else slot 3.  An over-strand that reads both ways is a whole
    component of at most two arcs, each occurring twice (``validate_pd``), so
    only its own crossings compete for its heads: fixing the other heads first
    and then taking a still-free head at each such crossing finds every
    solution, and there are several iff one of them had two free heads."""
    if not pd.crossings:
        return ()
    succ = _succ_table(pd)
    cands: list[list[int]] = []
    for (a, b, c, d) in pd.crossings:
        if succ[a] != c:
            raise InputError(f"under-strand {a}->{c} is not consecutive")
        opts = []
        if succ[b] == d:
            opts.append(1)
        if succ[d] == b:
            opts.append(-1)
        if not opts:
            raise InputError(f"crossing ({a},{b},{c},{d}): over-strand arcs "
                             "are not consecutive either way")
        cands.append(opts)
    ambiguous = [i for i, o in enumerate(cands) if len(o) == 2]
    need = {arc: 1 for arc in _occurrences(pd)}
    for (a, b, c, d), opts in zip(pd.crossings, cands):
        need[a] -= 1
        if len(opts) == 1:
            need[b if opts[0] == 1 else d] -= 1
    inconsistent = InputError("no orientation-consistent crossing signs exist")
    several = False
    for i in ambiguous:
        _, b, _, d = pd.crossings[i]
        free = [o for o in (1, -1) if need[b if o == 1 else d] > 0]
        if not free:
            raise inconsistent
        several |= len(free) > 1
        cands[i] = free[:1]
        need[b if free[0] == 1 else d] -= 1
    if any(need.values()):
        raise inconsistent
    if several:
        raise InputError("crossing signs are ambiguous; orientation data "
                         f"underdetermined at crossings {ambiguous}")
    return tuple(o[0] for o in cands)


def crossing_signs(pd: PDCode) -> tuple[int, int]:
    signs = per_crossing_signs(pd)
    return (sum(1 for s in signs if s > 0), sum(1 for s in signs if s < 0))


# -- resolutions ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CirclePassage:
    crossing: int
    slot_in: int
    slot_out: int

    @property
    def strand(self) -> frozenset[int]:
        return frozenset({self.slot_in, self.slot_out})


@dataclass(frozen=True, slots=True)
class ResolvedCircle:
    """A circle of a resolution: either a free loop or a cyclic walk
    alternating crossing passages and arcs (arc ``walk_arcs[t]`` follows
    passage ``passages[t]``)."""

    arcs: frozenset[int]
    passages: tuple[CirclePassage, ...]
    walk_arcs: tuple[int, ...]
    loop_index: int | None = None

    def sort_key(self):
        if self.loop_index is not None:
            return (1, self.loop_index)
        return (0, min(self.arcs))


@dataclass(frozen=True, slots=True)
class ResolvedDiagram:
    vertex: Vertex
    circles: tuple[ResolvedCircle, ...]

    def circle_of_arc(self, arc: int) -> int:
        for i, c in enumerate(self.circles):
            if arc in c.arcs:
                return i
        raise KeyError(arc)

    def circle_of_loop(self, k: int) -> int:
        for i, c in enumerate(self.circles):
            if c.loop_index == k:
                return i
        raise KeyError(k)


def _slot_tables(pd: PDCode) -> tuple[list[int], tuple[list[tuple], ...]]:
    """pd's slots, flat (4 * crossing + slot): the flat slot of each one's
    arc's other occurrence, and per resolution, for a circle entering at
    each slot, the slot it leaves by, its passage and the arc it leaves
    along.  Each passage is made once and shared by every vertex."""
    other = [0] * (4 * pd.n)
    for (c1, s1), (c2, s2) in _occurrences(pd).values():
        other[4 * c1 + s1], other[4 * c2 + s2] = 4 * c2 + s2, 4 * c1 + s1
    arcs = [a for x in pd.crossings for a in x]
    return other, tuple([(s - s % 4 + out[s % 4], CirclePassage(s // 4, s % 4, out[s % 4]),
                          arcs[s - s % 4 + out[s % 4]]) for s in range(4 * pd.n)]
                        for out in _PARTNER)


def resolve(pd: PDCode, v: Vertex, tables: tuple | None = None) -> ResolvedDiagram:
    """Trace the circles of the resolution selected by v, on flat slots.
    ``tables`` is pd's ``_slot_tables``, built here when not given:
    ``DiagramCube`` builds them once for all its vertices."""
    if len(v) != pd.n:
        raise InputError("vertex length must equal the crossing count")
    other, exits = _slot_tables(pd) if tables is None else tables
    visited, circles = bytearray(4 * pd.n), []
    for start in range(4 * pd.n):
        if visited[start]:
            continue
        passages, walk_arcs, s_in = [], [], start
        while True:
            s_out, passage, arc = exits[v[s_in >> 2]][s_in]
            visited[s_in] = visited[s_out] = 1
            passages.append(passage)
            walk_arcs.append(arc)
            s_in = other[s_out]
            if s_in == start:
                break
        circles.append(ResolvedCircle(frozenset(walk_arcs), tuple(passages), tuple(walk_arcs)))
    for k in range(pd.free_loops):
        circles.append(ResolvedCircle(frozenset(), (), (), loop_index=k))
    circles.sort(key=ResolvedCircle.sort_key)
    return ResolvedDiagram(v, tuple(circles))


_M_TABLE = {(PLUS, PLUS): PLUS, (PLUS, MINUS): MINUS, (MINUS, PLUS): MINUS,
            (MINUS, MINUS): None}
_DELTA_TABLE = {PLUS: [(PLUS, MINUS), (MINUS, PLUS)], MINUS: [(MINUS, MINUS)]}


class DiagramCube:
    """Cached resolutions, generators and circle transitions of one diagram,
    and the stable functor they assemble into, built and checked on
    generator positions, with the edges in lists by vertex mask and
    coordinate (``_indexed``); tuple vertices appear only in the strings.

    Equal things are one object.  Vertices with equal circle counts share
    one generator set, and edges with equal local configurations (all that
    ``_edge_positions`` reads) one position pair and one ``Correspondence``.
    Every later stage keys its work on these objects: the coherence pass,
    the id check of the data's build, the gradings and the split each
    treat a distinct one once.  The caches live as long as the cube, which
    each build makes anew; the resolutions are released after the
    coherence pass, their last reader in a build."""

    def __init__(self, pd: PDCode):
        self.pd = pd
        self.signs = validate_pd(pd)
        self._slots = _slot_tables(pd)
        self.n_plus = sum(1 for s in self.signs if s > 0)
        self.n_minus = sum(1 for s in self.signs if s < 0)
        self._resolved: dict[Vertex, ResolvedDiagram] = {}
        self._generators: dict[int, FiniteSet] = {}
        self._edges: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def resolved(self, v: Vertex) -> ResolvedDiagram:
        if v not in self._resolved:
            self._resolved[v] = resolve(self.pd, v, self._slots)
        return self._resolved[v]

    def generators(self, v: Vertex) -> FiniteSet:
        """The generators of v, one ``FiniteSet`` per circle count."""
        return self._generator_set(len(self.resolved(v).circles))

    def _generator_set(self, k: int) -> FiniteSet:
        if k not in self._generators:
            self._generators[k] = FiniteSet(tuple("".join(ls) for ls in
                                                  itertools.product((PLUS, MINUS), repeat=k)))
        return self._generators[k]

    def circle_match(self, src: ResolvedDiagram, dst: ResolvedDiagram,
                     ) -> dict[int, int]:
        """Indices of dst circles with the same arc set / loop index; only
        meaningful for circles untouched by the changed crossing."""
        keyed = {(c.arcs, c.loop_index): j for j, c in enumerate(dst.circles)}
        return {i: keyed[key] for i, c in enumerate(src.circles)
                if (key := (c.arcs, c.loop_index)) in keyed}

    def _circle_tables(self, v: Vertex) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """v's circle count and the circles through each crossing, in order."""
        circles = self.resolved(v).circles
        through: list[tuple[int, ...]] = [()] * self.pd.n
        for ci, c in enumerate(circles):
            for k in {p.crossing for p in c.passages}:
                through[k] += (ci,)
        return len(circles), tuple(through)

    def _edge_positions(self, cv: int, cu: int, vk: tuple[int, ...], uk: tuple[int, ...],
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """An edge u -> v on generator positions, from its configuration: v
        has cv circles and u has cu, and vk and uk are the circles of v and
        of u through the changed crossing.  Returns the source (at u) and
        target (at v) position of each element, the pairs (y at v, x at u)
        whose abelian-side coefficient is 1, by y and then in the order of
        the merge or split table.  Circle c of a vertex with m circles
        carries x_- exactly when bit m - 1 - c of a position is set.  The
        other circles keep their labels and go to u's in order: circles sort
        by (0, least arc) or (1, loop index), and they keep their arcs.
        Edges with equal configurations share one pair object."""
        config = (cv, cu, vk, uk)
        if config in self._edges:
            return self._edges[config]
        rest = _bit_images(cv, [(cv - 1 - c, cu - 1 - m) for c, m in
                                zip((c for c in range(cv) if c not in vk),
                                    (m for m in range(cu) if m not in uk))])
        s: list[int] = []
        t: list[int] = []
        if len(vk) == 2 and len(uk) == 1:
            # merge: x_+ x_+ -> x_+, one x_- -> x_-, two x_- -> nothing
            a, b, m = cv - 1 - vk[0], cv - 1 - vk[1], 1 << cu - 1 - uk[0]
            for y, x in enumerate(rest):
                la, lb = y >> a & 1, y >> b & 1
                if not (la and lb):
                    s.append(x | m if la or lb else x)
                    t.append(y)
        elif len(vk) == 1 and len(uk) == 2:
            # split: x_+ -> x_+ x_- then x_- x_+, x_- -> x_- x_-
            a, m0, m1 = cv - 1 - vk[0], 1 << cu - 1 - uk[0], 1 << cu - 1 - uk[1]
            for y, x in enumerate(rest):
                if y >> a & 1:
                    s.append(x | m0 | m1)
                    t.append(y)
                else:
                    s += (x | m1, x | m0)
                    t += (y, y)
        else:
            raise InternalInvariantError("resolution change is neither merge nor split")
        self._edges[config] = pair = (tuple(s), tuple(t))
        return pair

    def edge_correspondence(self, u: Vertex, v: Vertex) -> Correspondence:
        """The edge u -> v with generator labels (``_edge_positions``)."""
        k = cube.edge_coordinate(u, v)
        (cu, through_u), (cv, through_v) = self._circle_tables(u), self._circle_tables(v)
        return _labelled(self._generator_set(cu), self._generator_set(cv),
                         self._edge_positions(cv, cu, through_v[k], through_u[k]))

    def _indexed(self) -> tuple[list[list], list[FiniteSet]]:
        """The cube in the coherence pass's form, ``edges[t][k]`` from mask t
        down to t ^ 1 << k, and each mask's generator set; each vertex is
        resolved once, and each edge read off its ends' ``_circle_tables``."""
        n = self.pd.n
        edges: list[list] = [[None] * n for _ in range(1 << n)]
        counts, through = [0] * (1 << n), [()] * (1 << n)
        for v, t in zip(cube.vertices(n), cube.masks(n)):
            counts[t], through[t] = self._circle_tables(v)
        for t, row in enumerate(edges):
            cu, through_u = counts[t], through[t]
            for k in range(n):
                if t >> k & 1:
                    w = t ^ 1 << k
                    row[k] = self._edge_positions(counts[w], cu, through[w][k], through_u[k])
        return edges, [self._generator_set(c) for c in counts]

    def stable_functor(self, matchings: bool = True) -> StableFunctor:
        """The functor data shifted by minus the negative crossing count.
        Coherence (fiber sizes, matchings, every hexagon) is checked on
        positions, by ``_coherence_pass``, before any string is written
        (``InternalInvariantError`` on a failure); face matchings are
        written only when ``matchings`` is true.  The strings are written
        once per distinct edge, whose configuration fixes its ends' sets."""
        n = self.pd.n
        verts, masks = cube.vertices(n), cube.masks(n)
        edges, sets = self._indexed()
        c0, failures, tables = _coherence_pass(n, edges, [s.elements for s in sets],
                                               self.matching_image, forced=True)
        self._resolved.clear()
        if c0 or failures:
            raise InternalInvariantError(
                "diagram functor fails coherence: " + "; ".join((c0 or failures)[:3]))
        if not matchings:
            tables = None  # only written matchings read them; free them before the strings
        labelled = {id(pair): _labelled(self._generator_set(cu), self._generator_set(cv), pair)
                    for (cv, cu, _, _), pair in self._edges.items()}
        # ``cube.edges`` order: masks in ``cube.vertices`` order, coordinates ascending
        ec = dict(zip(cube.edges(n), [labelled[id(pair)] for t in masks
                                      for pair in edges[t] if pair is not None]))
        data = CubeFunctorData.build(n, dict(zip(verts, (sets[t] for t in masks))), ec, None)
        if matchings:
            corrs = [[None if pair is None else labelled[id(pair)] for pair in row]
                     for row in edges]
            fm = {Face2.from_top(v, i, j): _written_matching(tables[t, i, j],
                                                             _sides(corrs, t, i, j))
                  for v, t, (i, j) in _tops(n, 2)}
            data = CubeFunctorData(n, data.vertex_sets, data.edge_corrs, fm)
        return StableFunctor(data, -self.n_minus)

    # -- square matchings -------------------------------------------------

    def matching_image(self, v: Vertex, t: int, i: int, j: int, sides,
                       pa: list[tuple[int, int]], pb: list[tuple[int, int]],
                       ka: list[tuple[int, int]], kb: list[tuple[int, int]],
                       ) -> Sequence[int]:
        """The matching of face (v, i, j) on positions: element pa[p] goes
        to pb[image[p]] in its fiber (ka, kb).  A one-element fiber is
        forced; the two-element fibers are paired by the face's ladybug
        transfer of middle labels (``detect_ladybug`` once per face).  The
        square pass asks only on squares with a two-element fiber: it
        tables a forced square once per side key."""
        fibers: dict[tuple[int, int], list[int]] = {}
        for q, key in enumerate(kb):
            fibers.setdefault(key, []).append(q)
        mids_a, mids_b = sides[0][0][1], sides[1][0][1]
        face = Face2.from_top(v, i, j)
        image, transfer = [], None
        for p, key in enumerate(ka):
            qs = fibers[key]
            if len(qs) == 1:
                image.append(qs[0])
                continue
            if len(qs) > 2:
                raise InternalInvariantError(f"fiber of size {len(qs)} on face {face}")
            if transfer is None:
                x, z = key
                lady = self.detect_ladybug(face, self.generators(face.top).elements[x],
                                           self.generators(face.bottom).elements[z])
                if lady is None:
                    raise InternalInvariantError(
                        f"two-element fiber without ladybug configuration on {face}")
                transfer = self.ladybug_transfer(lady)
            mid = transfer[mids_a[pa[p][0]]]
            hits = [q for q in qs if mids_b[pb[q][0]] == mid]
            if not hits:
                raise InternalInvariantError("transferred labeling missing on the far side")
            image.append(hits[0])
        return image

    def detect_ladybug(self, face: Face2, x: str, z: str) -> "LadybugData | None":
        """The exceptional square pattern: one bottom circle carrying both
        re-smoothed crossings with alternating passages, splitting both ways
        and re-merging, labeled + below and - above."""
        i = cube.edge_coordinate(face.top, face.mid_a)
        j = cube.edge_coordinate(face.top, face.mid_b)
        rw = self.resolved(face.bottom)
        ru = self.resolved(face.top)
        wi = {ci for ci, c in enumerate(rw.circles)
              if any(p.crossing in (i, j) for p in c.passages)}
        if len(wi) != 1:
            return None
        cw = next(iter(wi))
        circle = rw.circles[cw]
        marked = [t for t, p in enumerate(circle.passages) if p.crossing in (i, j)]
        if len(marked) != 4:
            return None
        kinds = [circle.passages[t].crossing for t in marked]
        if kinds[0] == kinds[1] or kinds[1] == kinds[2]:
            return None  # the four passages must alternate i,j,i,j
        ui = {ci for ci, c in enumerate(ru.circles)
              if any(p.crossing in (i, j) for p in c.passages)}
        if len(ui) != 1:
            return None
        cu = next(iter(ui))
        if z[cw] != PLUS or x[cu] != MINUS:
            return None
        seg_v = self._right_segments(circle, marked, j)
        seg_vp = self._right_segments(circle, marked, i)
        if {s for s in seg_v} != {s for s in seg_vp}:
            raise InternalInvariantError("right-pair selections disagree")
        seg1, seg2 = sorted(seg_v, key=min)
        rv, rvp = self.resolved(face.mid_a), self.resolved(face.mid_b)
        return LadybugData(
            face=face, bottom_circle=cw, top_circle=cu,
            endpoints=tuple(circle.passages[t] for t in marked),
            right_pair=(seg1, seg2),
            split_a=(self._circle_containing(rv, seg1), self._circle_containing(rv, seg2)),
            split_b=(self._circle_containing(rvp, seg1), self._circle_containing(rvp, seg2)),
        )

    @staticmethod
    def _circle_containing(rd: ResolvedDiagram, arcs: frozenset[int]) -> int:
        hits = {i for i, c in enumerate(rd.circles) if arcs & c.arcs}
        if len(hits) != 1:
            raise InternalInvariantError("segment arcs split across circles")
        return next(iter(hits))

    @staticmethod
    def _right_segments(circle: ResolvedCircle, marked: list[int],
                        crossing: int) -> tuple[frozenset[int], frozenset[int]]:
        """Walk arcs selected by turning toward the counterclockwise-later
        strand end at each passage of the given crossing."""
        m = len(circle.passages)
        segs = []
        for t in marked:
            p = circle.passages[t]
            if p.crossing != crossing:
                continue
            later = _LATER[0][p.strand]
            forward = (p.slot_out == later)
            arcs = []
            if forward:
                s = t
                while True:
                    arcs.append(circle.walk_arcs[s])
                    s = (s + 1) % m
                    if s in marked:
                        break
            else:
                s = (t - 1) % m
                while True:
                    arcs.append(circle.walk_arcs[s])
                    if s in marked:
                        # walk_arcs[s] precedes passage s+1; stop after the
                        # arc following the previous marked passage
                        break
                    s = (s - 1) % m
            segs.append(frozenset(arcs))
        if len(segs) != 2:
            raise InternalInvariantError("expected two surgery endpoints")
        return (segs[0], segs[1])

    def ladybug_transfer(self, lady: "LadybugData") -> list[int]:
        """The ladybug's transfer of middle labels, as a map of generator
        positions: entry p is the generator of ``mid_b`` whose labels are
        those of generator p of ``mid_a``, carried along the identification
        of circles.  The right-pair circles go to each other in order, every
        other circle to the circle with its arcs."""
        face = lady.face
        rv, rvp = self.resolved(face.mid_a), self.resolved(face.mid_b)
        ca, cb = len(rv.circles), len(rvp.circles)
        dest = self.circle_match(rv, rvp)
        dest.update(zip(lady.split_a, lady.split_b))
        if sorted(dest) != list(range(ca)) or sorted(dest.values()) != list(range(cb)):
            raise InternalInvariantError("middle labeling transfer incomplete")
        return _bit_images(ca, [(ca - 1 - c, cb - 1 - dest[c]) for c in range(ca)])


def _labelled(gen_u: FiniteSet, gen_v: FiniteSet, positions) -> Correspondence:
    """The edge of ``positions`` from generators ``gen_u`` to ``gen_v``, its
    element "x>y" running from x at u to y at v.  Ids are interned: a
    diagram's edges repeat a few hundred ids (914 distinct among the
    118,074 elements of the closure of (σ1σ2⁻¹)^5σ1), so each is stored
    once."""
    xs, ys = gen_u.elements, gen_v.elements
    return Correspondence(gen_u, gen_v, tuple([
        CorrElem(sys.intern(f"{xs[a]}>{ys[b]}"), xs[a], ys[b]) for a, b in zip(*positions)]))


def _bit_images(c: int, moves: list[tuple[int, int]]) -> list[int]:
    """For every generator position p with c bits, the position with bit b
    equal to bit a of p, for each (a, b) in ``moves``, and every other bit
    clear; built by doubling, one bit of p at a time."""
    to = [0] * c
    for a, b in moves:
        to[a] = 1 << b
    images = [0]
    for bit in to:
        images += [x | bit for x in images]
    return images


@dataclass(frozen=True, slots=True)
class LadybugData:
    face: Face2
    bottom_circle: int                     # index in the bottom resolution
    top_circle: int                        # index in the top resolution
    endpoints: tuple[CirclePassage, ...]   # the four passages in cyclic order
    right_pair: tuple[frozenset[int], frozenset[int]]
    split_a: tuple[int, int]               # circles of mid_a from right arcs 1,2
    split_b: tuple[int, int]               # circles of mid_b from right arcs 1,2


def _abelian_images(y: str, rv: ResolvedDiagram, ru: ResolvedDiagram,
                    vk: list[int], uk: list[int],
                    stable_vu: Mapping[int, int]) -> list[str]:
    """Generators x at the 1-side with coefficient one in the image of y."""
    if len(vk) == 2:
        # two circles merge into one
        (m1, m2) = vk
        merged = _M_TABLE[(y[m1], y[m2])]
        if merged is None:
            return []
        out = [None] * len(ru.circles)
        out[uk[0]] = merged
        for ci in range(len(rv.circles)):
            if ci in (m1, m2):
                continue
            out[stable_vu[ci]] = y[ci]
        return ["".join(out)]
    if len(vk) == 1 and len(uk) == 2:
        (s0,) = vk
        frames = _DELTA_TABLE[y[s0]]
        res = []
        for (l1, l2) in frames:
            out = [None] * len(ru.circles)
            out[uk[0]] = l1
            out[uk[1]] = l2
            for ci in range(len(rv.circles)):
                if ci == s0:
                    continue
                out[stable_vu[ci]] = y[ci]
            res.append("".join(out))
        return res
    raise InternalInvariantError("resolution change is neither merge nor split")


# -- public operations ---------------------------------------------------------

def build_khovanov_functor(pd: PDCode, matchings: bool = True) -> StableFunctor:
    """The stable functor of a diagram, its coherence checked on
    construction; face matchings are written only when ``matchings`` is
    true (``DiagramCube.stable_functor``)."""
    return DiagramCube(pd).stable_functor(matchings)


def generator_gradings(pd: PDCode, f: CubeFunctorData, reduced: bool = False,
                       ) -> dict[Vertex, dict[str, int]]:
    """Quantum grading of every generator of f, the functor of pd or a
    restriction of it, read from the generator's circle labels; the reduced
    grading adds one for the basepoint circle's x_-.  Found once per
    (vertex set object, |v|); each vertex gets its own copy to edit."""
    np, nm = crossing_signs(pd)
    base = np - 2 * nm + int(reduced)
    known: dict[tuple[int, int], tuple[FiniteSet, dict[str, int]]] = {}
    out = {}
    for v in cube.vertices(f.n):
        s, d = f.vset(v), base + cube.grading(v)
        if (id(s), d) not in known:
            known[id(s), d] = (s, {g: d + g.count(PLUS) - g.count(MINUS) for g in s})
        out[v] = known[id(s), d][1].copy()
    return out


def split_by_quantum(pd: PDCode, sf: StableFunctor,
                     reduced: bool = False) -> dict[int, StableFunctor]:
    """The restrictions of the functor to its quantum gradings, in
    increasing order, from one ``restrict_parts`` pass over its data; data
    without face matchings splits into parts without them.  Every edge
    element must join two generators of one grading (``InputError``
    otherwise), so each part is closed both ways."""
    grades = generator_gradings(pd, sf.functor, reduced)
    parts = restrict_parts(sf.functor, grades,
                           sorted({j for labels in grades.values() for j in labels.values()}))
    return {j: StableFunctor(part, sf.shift) for j, part in parts.items()}


def checked_basepoint(pd: PDCode, basepoint) -> tuple[str, int]:
    """The basepoint as ("loop", k) or ("arc", label), checked against pd
    alone, so that a bad one is rejected before any vertex is resolved.
    The label or k must be an int: a float, a bool or a string is refused
    with ``InputError``, not truncated or parsed."""
    if isinstance(basepoint, tuple) and basepoint and basepoint[0] == "loop":
        if len(basepoint) != 2:
            raise InputError(f"bad basepoint {basepoint!r}: expected ('loop', k)")
        k = cube.json_int(basepoint[1], "basepoint loop")
        if not 0 <= k < pd.free_loops:
            raise InputError(f"unknown basepoint loop {k}")
        return ("loop", k)
    arc = cube.json_int(basepoint, "basepoint arc")
    if arc not in _occurrences(pd):
        raise InputError(f"unknown basepoint arc {arc}")
    return ("arc", arc)


def basepoint_circle(rd: ResolvedDiagram, basepoint: tuple[str, int]) -> int:
    """The circle of rd through a basepoint from ``checked_basepoint``."""
    kind, k = basepoint
    return rd.circle_of_loop(k) if kind == "loop" else rd.circle_of_arc(k)


def reduced_functor(pd: PDCode, basepoint, matchings: bool = True) -> StableFunctor:
    """Restriction to the generators labeling the basepoint circle x_-,
    with face matchings only when ``matchings`` is true.

    The discarded generators span a subcomplex of the totalization (the
    restriction is quotient-style).  The basepoint circles are read before
    the build, which releases the resolutions."""
    dc = DiagramCube(pd)
    bp = checked_basepoint(pd, basepoint)
    circle = {v: basepoint_circle(dc.resolved(v), bp) for v in cube.vertices(pd.n)}
    sf = dc.stable_functor(matchings)
    s = {(v, g) for v, ci in circle.items() for g in sf.functor.vset(v) if g[ci] == MINUS}
    return StableFunctor(quotient_functor_data(sf.functor, s), sf.shift)


def disjoint_union_pd(pd1: PDCode, pd2: PDCode) -> PDCode:
    shift = max(pd1.arcs(), default=0)
    crossings = pd1.crossings + tuple(
        tuple(a + shift for a in x) for x in pd2.crossings)
    out = PDCode(crossings, pd1.free_loops + pd2.free_loops)
    validate_pd(out)
    return out


def _head_tail(pd: PDCode) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
    """head[arc] = occurrence where the arc ends, tail[arc] = where it starts."""
    signs = per_crossing_signs(pd)
    head: dict[int, tuple[int, int]] = {}
    tail: dict[int, tuple[int, int]] = {}
    for ci, (a, b, c, d) in enumerate(pd.crossings):
        head[a] = (ci, 0)
        tail[c] = (ci, 2)
        if signs[ci] == 1:
            head[b] = (ci, 1)
            tail[d] = (ci, 3)
        else:
            head[d] = (ci, 3)
            tail[b] = (ci, 1)
    return head, tail


def connect_sum_pd(pd1: PDCode, p1: int, pd2: PDCode, p2: int,
                   ) -> tuple[PDCode, int]:
    """Splice the two basepoint arcs; returns the new diagram and the arc
    carrying the first diagram's outgoing half (a valid new basepoint)."""
    if pd1.n == 0 or pd2.n == 0:
        raise InputError("connected sum requires arcs on both sides")
    shift = max(pd1.arcs())
    pd2s = PDCode(tuple(tuple(a + shift for a in x) for x in pd2.crossings), 0)
    p2s = p2 + shift
    if p1 not in _occurrences(pd1) or (p2 + shift) not in _occurrences(pd2s):
        raise InputError("basepoint arc not present")
    h1, t1 = _head_tail(pd1)
    h2, t2 = _head_tail(pd2s)
    off = pd1.n
    # occurrence-level arc list: (tail occurrence, head occurrence)
    arcs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for arc in pd1.arcs():
        if arc == p1:
            continue
        arcs.append((t1[arc], h1[arc]))
    for arc in pd2s.arcs():
        if arc == p2s:
            continue
        arcs.append(((t2[arc][0] + off, t2[arc][1]), (h2[arc][0] + off, h2[arc][1])))
    spliced_a = (t1[p1], (h2[p2s][0] + off, h2[p2s][1]))
    spliced_b = ((t2[p2s][0] + off, t2[p2s][1]), h1[p1])
    arcs.append(spliced_a)
    arcs.append(spliced_b)
    numbering, crossings = _number_arcs(arcs, pd1.n + pd2.n)
    out = PDCode(crossings, pd1.free_loops + pd2.free_loops)
    validate_pd(out)
    return out, numbering[spliced_a]


def braid_closure_pd(word: Sequence[int], strands: int) -> PDCode:
    """Planar diagram of a braid closure; word entries ±i stand for the
    generator crossing strand positions i and i+1 (1-based), all strands
    oriented the same way.  Untouched positions close into free loops."""
    if strands < 1 or any(abs(g) < 1 or abs(g) >= strands for g in word):
        raise InputError("bad braid word")
    m = len(word)
    used = {p for g in word for p in (abs(g), abs(g) + 1)}
    # per column, the bottom and top slots of its crossings in height order
    bottoms: dict[int, list[tuple[int, int]]] = {p: [] for p in used}
    tops: dict[int, list[tuple[int, int]]] = {p: [] for p in used}
    for ci, g in enumerate(word):
        i = abs(g)
        if g > 0:
            # a=(bottom,i+1) b=(top,i+1) c=(top,i) d=(bottom,i)
            bottoms[i + 1].append((ci, 0))
            tops[i + 1].append((ci, 1))
            tops[i].append((ci, 2))
            bottoms[i].append((ci, 3))
        else:
            # a=(bottom,i) b=(bottom,i+1) c=(top,i+1) d=(top,i)
            bottoms[i].append((ci, 0))
            bottoms[i + 1].append((ci, 1))
            tops[i + 1].append((ci, 2))
            tops[i].append((ci, 3))
    # arc from each top slot up (cyclically) to the next bottom slot
    arcs: list[tuple[tuple[int, int], tuple[int, int]]] = []  # (tail=top, head=bottom)
    for p in used:
        bs, ts = bottoms[p], tops[p]
        for k, tslot in enumerate(ts):
            arcs.append((tslot, bs[(k + 1) % len(bs)]))
    _, crossings = _number_arcs(arcs, m)
    out = PDCode(crossings, strands - len(used))
    validate_pd(out)
    return out


# the slot where a strand entering a crossing at the given slot leaves it: the
# under-strand runs a -> c, the over-strand leaves at whichever of b, d it did
# not enter by
_EXIT_SLOT = {0: 2, 1: 3, 3: 1}


def _number_arcs(arcs: list[tuple[Occurrence, Occurrence]], n_crossings: int,
                 ) -> tuple[dict[tuple[Occurrence, Occurrence], int], tuple[Crossing, ...]]:
    """Number arcs, given as (tail, head) occurrences, 1, 2, ... along each
    component, starting each component at its smallest unnumbered tail;
    returns the numbering and the crossing tuples it induces."""
    by_tail = {t: (t, h) for (t, h) in arcs}
    numbering: dict[tuple[Occurrence, Occurrence], int] = {}
    nxt = 1
    remaining = set(arcs)
    while remaining:
        start = min(remaining, key=lambda th: (th[0][0], th[0][1]))
        cur = start
        while True:
            numbering[cur] = nxt
            nxt += 1
            remaining.discard(cur)
            hci, hslot = cur[1]
            if hslot not in _EXIT_SLOT:
                raise InternalInvariantError("head at an exit slot")
            cur = by_tail[(hci, _EXIT_SLOT[hslot])]
            if cur == start:
                break
    slot_arc: dict[Occurrence, int] = {}
    for (t, h), num in numbering.items():
        slot_arc[t] = num
        slot_arc[h] = num
    crossings = tuple(tuple(slot_arc[(ci, s)] for s in range(4)) for ci in range(n_crossings))
    return numbering, crossings


# -- homology tables -------------------------------------------------------------

def kh_table(pd: PDCode, reduced: bool = False, basepoint=None) -> list[dict]:
    """Bigraded homology rows [{"i","j","rank","torsion"}] sorted by (j,i),
    computed through the span functor.

    Coherence is checked once, on positions, on the whole functor as it is
    built: every face matching and every hexagon.  The chain complexes need
    only vertices and edges, so no face matching is written.  The split
    still refuses an edge element between two gradings, and d∘d = 0 is
    checked on every totalization and dualization."""
    if reduced:
        if basepoint is None:
            raise InputError("reduced homology needs a basepoint")
        sf = reduced_functor(pd, basepoint, matchings=False)
    else:
        sf = build_khovanov_functor(pd, matchings=False)
    parts = split_by_quantum(pd, sf, reduced=reduced)
    del sf  # the parts hold all that the complexes need
    rows = [{"i": -d, "j": j, "rank": h.free_rank, "torsion": list(h.torsion)}
            for j, part in parts.items()
            for d, h in homology_nontrivial(dualize(tot(part))).items()]
    rows.sort(key=lambda r: (r["j"], r["i"]))
    return rows


def kh_table_direct(pd: PDCode, reduced: bool = False, basepoint=None) -> list[dict]:
    """Independent check: assemble the cochain complex directly from the
    multiplication/comultiplication matrices (no span layer) and read off
    its cohomology."""
    dc = DiagramCube(pd)
    if reduced:
        if basepoint is None:
            raise InputError("reduced homology needs a basepoint")
        bp = checked_basepoint(pd, basepoint)
    n, np_, nm = pd.n, dc.n_plus, dc.n_minus
    gens: dict[Vertex, list[str]] = {}
    for v in cube.vertices(n):
        gens[v] = list(dc.generators(v))
        if reduced:
            ci = basepoint_circle(dc.resolved(v), bp)
            gens[v] = [g for g in gens[v] if g[ci] == MINUS]
    # each vertex's outgoing edges (target, sign, resolutions, the circles at
    # the changed crossing, the circle matching), once per table rather than
    # once per generator
    steps: dict[Vertex, list[tuple]] = {}
    for v in cube.vertices(n):
        rv = dc.resolved(v)
        steps[v] = []
        for k in range(n):
            if v[k] != 0:
                continue
            u = v[:k] + (1,) + v[k + 1:]
            ru = dc.resolved(u)
            steps[v].append((
                u, -1 if cube.sign_assignment(u, v) else 1, rv, ru,
                [i2 for i2, c in enumerate(rv.circles)
                 if any(p.crossing == k for p in c.passages)],
                [i2 for i2, c in enumerate(ru.circles)
                 if any(p.crossing == k for p in c.passages)],
                dc.circle_match(rv, ru)))
    offset = 1 if reduced else 0
    grad: dict[tuple[Vertex, str], int] = {}
    for v in cube.vertices(n):
        for g in gens[v]:
            grad[(v, g)] = (np_ - 2 * nm + cube.grading(v)
                            + g.count(PLUS) - g.count(MINUS) + offset)
    rows = []
    for j in sorted({g for g in grad.values()}):
        # cochain degree i = |v| - n_minus; store at chain degree -i
        basis: dict[int, list[tuple[Vertex, str]]] = {}
        for v in cube.vertices(n):
            for g in gens[v]:
                if grad[(v, g)] == j:
                    basis.setdefault(-(cube.grading(v) - nm), []).append((v, g))
        index = {d: {bg: k for k, bg in enumerate(b)} for d, b in basis.items()}
        diffs = {}
        for d in basis:
            if d - 1 not in basis:
                continue
            cols: list[dict[int, int]] = [{} for _ in basis[d]]
            for col, (v, y) in zip(cols, basis[d]):
                for u, sgn, rv, ru, vk, uk, stable in steps[v]:
                    for x in _abelian_images(y, rv, ru, vk, uk, stable):
                        row = index[d - 1].get((u, x))
                        if row is not None:
                            col[row] = col.get(row, 0) + sgn
            diffs[d] = Matrix.from_columns(len(basis[d - 1]), len(basis[d]), cols)
        cx = ChainComplex.build(
            {d: tuple(f"{cube.bits(v)}|{g}" for (v, g) in b) for d, b in basis.items()},
            diffs)
        for d, h in homology_nontrivial(cx).items():
            rows.append({"i": -d, "j": j, "rank": h.free_rank,
                         "torsion": list(h.torsion)})
    rows.sort(key=lambda r: (r["j"], r["i"]))
    return rows
