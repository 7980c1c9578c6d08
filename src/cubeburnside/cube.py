"""Combinatorics of the poset {0,1}^n: gradings, edge signs, maximal chains,
two-dimensional faces, and face inclusions between cubes of different size.

Vertices are plain tuples of 0/1 bits.  Coordinate ``i`` (1-based in text and
JSON) is tuple index ``i-1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InputError

Vertex = tuple[int, ...]
Chain = tuple[Vertex, ...]

# Largest cube dimension accepted from outside input.  The work is exponential
# in it (2^n vertices), and bundled inputs stay far below.
MAX_DIM = 16


def check_dim(n: int, what: str) -> None:
    """Refuse a cube dimension fixed by outside input that is negative or
    above ``MAX_DIM``, before any work exponential in it starts."""
    if n < 0:
        raise InputError(f"{what} {n} is negative")
    if n > MAX_DIM:
        raise InputError(f"{what} {n} exceeds the cap of {MAX_DIM} on the cube dimension")


def json_int(value, what: str) -> int:
    """An integer field of JSON input.  A float, a bool or a string is
    refused, not truncated or parsed, so it cannot stand for another
    input."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, not {value!r}")
    return value


def check_vertex(v: Vertex) -> None:
    if any(b not in (0, 1) for b in v):
        raise ValueError(f"not a 0/1 vertex: {v!r}")


def bits(v: Vertex) -> str:
    """Display form, most significant (coordinate 1) first."""
    return "".join(str(b) for b in v)


def vertex_from_bits(s: str) -> Vertex:
    v = tuple(int(c) for c in s)
    check_vertex(v)
    return v


def grading(v: Vertex) -> int:
    return sum(v)


def geq(u: Vertex, v: Vertex) -> bool:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return all(a >= b for a, b in zip(u, v))


def edge_coordinate(u: Vertex, v: Vertex) -> int:
    """Index (0-based) of the unique coordinate where u=1, v=0; error otherwise."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    for k, (a, b) in enumerate(zip(u, v)):
        if a != b:
            if a == 1 and u[k + 1:] == v[k + 1:]:
                return k
            break
    raise ValueError(f"not an edge: {u} > {v}")


def sign_assignment(u: Vertex, v: Vertex) -> int:
    """Parity of the number of 1s in u before the changed coordinate."""
    k = edge_coordinate(u, v)
    return sum(u[:k]) % 2


def vertices(n: int) -> list[Vertex]:
    """All vertices of {0,1}^n in lexicographic order."""
    return [tuple(bs) for bs in itertools.product((0, 1), repeat=n)]


def edges(n: int) -> list[tuple[Vertex, Vertex]]:
    out = []
    for u in vertices(n):
        for k in range(n):
            if u[k] == 1:
                v = u[:k] + (0,) + u[k + 1:]
                out.append((u, v))
    return sorted(out)


def clear_coordinate(u: Vertex, k: int) -> Vertex:
    if u[k] != 1:
        raise ValueError("coordinate already 0")
    return u[:k] + (0,) + u[k + 1:]


@dataclass(frozen=True, order=True, slots=True)
class Face2:
    """Two-dimensional face in canonical orientation.

    ``mid_a`` clears the lower-indexed of the two changed coordinates of
    ``top``; ``mid_b`` clears the higher-indexed one.
    """

    top: Vertex
    mid_a: Vertex
    mid_b: Vertex
    bottom: Vertex

    @staticmethod
    def from_top(top: Vertex, i: int, j: int) -> "Face2":
        if not (0 <= i < j < len(top)) or top[i] != 1 or top[j] != 1:
            raise ValueError(f"bad face coordinates {i},{j} for {top}")
        return Face2(top, clear_coordinate(top, i), clear_coordinate(top, j),
                     clear_coordinate(clear_coordinate(top, i), j))

    @staticmethod
    def spanning(top: Vertex, mid1: Vertex, mid2: Vertex, bottom: Vertex) -> "Face2":
        i = edge_coordinate(top, mid1)
        j = edge_coordinate(top, mid2)
        if i == j or clear_coordinate(mid1, j) != bottom or clear_coordinate(mid2, i) != bottom:
            raise ValueError("vertices do not span a 2-face")
        return Face2.from_top(top, min(i, j), max(i, j))


def faces2(n: int) -> list[Face2]:
    out = []
    for top in vertices(n):
        ones = [k for k in range(n) if top[k] == 1]
        for i, j in itertools.combinations(ones, 2):
            out.append(Face2.from_top(top, i, j))
    return out


@dataclass(frozen=True, order=True, slots=True)
class Face3:
    """Three-dimensional face: top vertex plus its three changed coordinates."""

    top: Vertex
    coords: tuple[int, int, int]

    @property
    def bottom(self) -> Vertex:
        v = self.top
        for k in self.coords:
            v = clear_coordinate(v, k)
        return v


def faces3(n: int) -> list[Face3]:
    out = []
    for top in vertices(n):
        ones = [k for k in range(n) if top[k] == 1]
        for trip in itertools.combinations(ones, 3):
            out.append(Face3(top, trip))
    return out


def check_chain(c: Chain) -> None:
    seen = set()
    for a, b in zip(c, c[1:]):
        k = edge_coordinate(a, b)
        if k in seen:
            raise ValueError("repeated coordinate in chain")
        seen.add(k)


def chain_coords(c: Chain) -> tuple[int, ...]:
    """The order in which the chain clears coordinates."""
    return tuple(edge_coordinate(a, b) for a, b in zip(c, c[1:]))


def chain_from_coords(u: Vertex, order: Sequence[int]) -> Chain:
    out = [u]
    v = u
    for k in order:
        v = clear_coordinate(v, k)
        out.append(v)
    return tuple(out)


def maximal_chains(u: Vertex, v: Vertex) -> list[Chain]:
    """All (|u|-|v|)! saturated chains from u down to v."""
    if not geq(u, v):
        raise ValueError(f"{u} is not >= {v}")
    changed = [i for i, (a, b) in enumerate(zip(u, v)) if a != b]
    return [chain_from_coords(u, order) for order in itertools.permutations(changed)]


def chain_swap(c: Chain, idx: int) -> Chain:
    """Replace interior vertex ``idx`` by the unique alternative."""
    if not (0 < idx < len(c) - 1):
        raise ValueError("swap index must be interior")
    order = list(chain_coords(c))
    order[idx - 1], order[idx] = order[idx], order[idx - 1]
    return chain_from_coords(c[0], order)


def chain_swap_path(c1: Chain, c2: Chain) -> list[tuple[int, Chain]]:
    """Elementary swaps carrying c1 to c2 (adjacent-transposition sort,
    smallest out-of-place position first).  Each entry is (interior index
    swapped, resulting chain)."""
    if c1[0] != c2[0] or c1[-1] != c2[-1]:
        raise ValueError("chains do not share endpoints")
    cur = list(chain_coords(c1))
    target = list(chain_coords(c2))
    if sorted(cur) != sorted(target):
        raise ValueError("chains do not share endpoints")
    path: list[tuple[int, Chain]] = []
    chain = c1
    for i in range(len(target)):
        j = cur.index(target[i], i)
        while j > i:
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            chain = chain_swap(chain, j)
            path.append((j, chain))
            j -= 1
    return path


def all_swap_paths(c1: Chain, c2: Chain) -> Iterator[list[tuple[int, Chain]]]:
    """All simple swap paths from c1 to c2 (no chain revisited)."""
    if c1[0] != c2[0] or c1[-1] != c2[-1]:
        raise ValueError("chains do not share endpoints")
    k = len(c1) - 1

    def rec(chain: Chain, seen: frozenset[Chain], path):
        if chain == c2:
            yield list(path)
            return
        for idx in range(1, k):
            nxt = chain_swap(chain, idx)
            if nxt not in seen:
                path.append((idx, nxt))
                yield from rec(nxt, seen | {nxt}, path)
                path.pop()

    yield from rec(c1, frozenset({c1}), [])


@dataclass(frozen=True, slots=True)
class FaceInclusion:
    """Grading-respecting injection of {0,1}^n onto a sub-face of {0,1}^N.

    ``bottom`` is the image of the all-zeros vertex; ``coords`` lists, in
    order, the 0-based target coordinates carrying the n source coordinates.
    """

    n: int
    N: int
    bottom: Vertex
    coords: tuple[int, ...]

    def __post_init__(self):
        check_vertex(self.bottom)
        if len(self.bottom) != self.N or len(self.coords) != self.n:
            raise ValueError("inconsistent face inclusion data")
        if len(set(self.coords)) != self.n or any(not 0 <= c < self.N for c in self.coords):
            raise ValueError("coords must be distinct target coordinates")
        if any(self.bottom[c] != 0 for c in self.coords):
            raise ValueError("bottom must vanish on listed coordinates")

    @staticmethod
    def identity(n: int) -> "FaceInclusion":
        return FaceInclusion(n, n, (0,) * n, tuple(range(n)))

    @property
    def weight(self) -> int:
        return grading(self.bottom)

    def apply(self, v: Vertex) -> Vertex:
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        w = list(self.bottom)
        for i, c in enumerate(self.coords):
            w[c] = v[i]
        return tuple(w)

    def image(self) -> set[Vertex]:
        return {self.apply(v) for v in vertices(self.n)}

    def to_json(self) -> dict:
        return {"n": self.n, "N": self.N, "bottom": bits(self.bottom),
                "coords": [c + 1 for c in self.coords]}

    @staticmethod
    def from_json(obj: dict) -> "FaceInclusion":
        return FaceInclusion(json_int(obj["n"], "n"), json_int(obj["N"], "N"),
                             vertex_from_bits(obj["bottom"]),
                             tuple(json_int(c, "coordinate") - 1 for c in obj["coords"]))
