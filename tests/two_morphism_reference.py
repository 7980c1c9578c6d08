"""Set-based reference for ``burnside.is_two_morphism``: the keys of f are
the elements of x, its values the elements of y, no two keys share a
value, and every element keeps its source and target.  The library decides
the same in one pass over x; this is the oracle it is checked against."""

from __future__ import annotations

from typing import Mapping

from cubeburnside.burnside import Correspondence


def is_two_morphism_reference(f: Mapping[str, str], x: Correspondence,
                              y: Correspondence) -> bool:
    if x.source_set != y.source_set or x.target_set != y.target_set:
        return False
    if set(f.keys()) != set(x.ids()) or set(f.values()) != set(y.ids()):
        return False
    if len(set(f.values())) != len(f):
        return False
    ylookup = {e.id: e for e in y.elements}
    for e in x.elements:
        img = ylookup[f[e.id]]
        if img.s != e.s or img.t != e.t:
            return False
    return True
