"""Reference face candidates: the per-fiber product that ``enumerate_matchings``
drew its candidates from before the one enumerator, kept as the oracle for the
order of its completions.  Each fiber's permutations are listed in full and
filtered by the pins, and ``itertools.product`` takes one from each, fibers
ordered by their (source, target) ids."""

from __future__ import annotations

import itertools
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from cubeburnside.cube import Face2
from cubeburnside.errors import SearchCapExceeded
from cubeburnside.functor import _face_key


def fiber_images(face: Face2, ka: list[tuple[int, int]], kb: list[tuple[int, int]],
                 top: Sequence[str], bottom: Sequence[str], pins: Mapping[int, int],
                 max_per_face: int) -> Iterable[list[int]]:
    """Every image p -> q of the composites of ``face``, with fiber keys ka
    and kb, that keeps fibers and the pins p -> pins[p]: per fiber, the
    permutations of its elements in kb, fibers ordered by their (source,
    target) ids, named by ``top`` and ``bottom``.  ``SearchCapExceeded``
    when, pins aside, there are more than ``max_per_face``."""
    fibers = {key: ([], []) for key in ka}
    for side, keys in enumerate((ka, kb)):
        for p, key in enumerate(keys):
            fibers[key][side].append(p)
    count = prod(factorial(len(ps)) for ps, _ in fibers.values())
    if count > max_per_face:
        raise SearchCapExceeded(f"face {_face_key(face)} admits {count} bijections")
    order = sorted(fibers, key=lambda key: (top[key[0]], bottom[key[1]]))
    per_fiber = [[perm for perm in itertools.permutations(fibers[key][1])
                  if all(pins.get(p, q) == q for p, q in zip(fibers[key][0], perm))]
                 for key in order]
    positions = [p for key in order for p in fibers[key][0]]
    for combo in itertools.product(*per_fiber):
        image = [0] * len(ka)
        for p, q in zip(positions, itertools.chain(*combo)):
            image[p] = q
        yield image
