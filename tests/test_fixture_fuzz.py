"""Mutated bundled fixtures keep the CLI's exit-code contract: a run on a
fixture with one or two nodes replaced or deleted ends in 0 (success),
1 (failed verification) or 2 (input error), never in a traceback or an
internal invariant violation."""

import copy
import json

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeburnside.cli import main
from cubeburnside.corpus import corpus_dir
from cubeburnside.cube import MAX_DIM

# fixture file -> the command that reads it
COMMANDS = {
    "pd/trefoil_pos.json": ["kh", "homology"],
    "pd/hopf.json": ["kh", "verify"],
    "functors/wedge_cube.json": ["functor", "check"],
    "functors/square_free.json": ["functor", "search-matchings"],
    "certificates/wedge_split.json": ["functor", "certificate"],
    "delta/sphere2.json": ["delta", "homology"],
}
FIXTURES = {rel: json.loads((corpus_dir() / rel).read_text(encoding="utf-8"))
            for rel in COMMANDS}
POOL = [None, "", "x", "01", -1, 0, 1, 2, [], {}, MAX_DIM + 1, 40]


def _paths(node, path=()):
    """Every node below the root, as a key path."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_fixtures(draw):
    rel = draw(st.sampled_from(sorted(COMMANDS)))
    obj = copy.deepcopy(FIXTURES[rel])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(obj))
        if not paths:
            break
        *up, key = draw(st.sampled_from(paths))
        parent = obj
        for k in up:
            parent = parent[k]
        if draw(st.booleans()):
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        else:
            del parent[key]
    return rel, obj


@settings(max_examples=500, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_exit_0_1_or_2(tmp_path_factory, case):
    rel, obj = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    res = CliRunner().invoke(main, [*COMMANDS[rel], str(path)],
                             catch_exceptions=False)
    assert res.exit_code in (0, 1, 2), (rel, obj, res.output)
