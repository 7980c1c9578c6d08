import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cubeburnside import cube
from cubeburnside.burnside import BijectionOver
from cubeburnside.cli import main
from cubeburnside.corpus import corpus_dir, list_fixtures, load_golden, load_pd
from cubeburnside.functor import CubeFunctorData, StableFunctor, functor_to_json
from cubeburnside.khovanov import braid_closure_pd, build_khovanov_functor


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_kh_homology_table(runner):
    res = invoke(runner, ["kh", "homology", "trefoil_pos"])
    assert res.exit_code == 0
    assert "Z/2" in res.output


def test_kh_homology_json_matches_golden(runner):
    res = invoke(runner, ["kh", "homology", "fig8", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"] == load_golden("fig8")["rows"]


def test_kh_homology_reduced(runner):
    res = invoke(runner, ["kh", "homology", "unknot0", "--reduced",
                          "--basepoint", "loop:0", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"] == \
        [{"i": 0, "j": 0, "rank": 1, "torsion": []}]
    missing = invoke(runner, ["kh", "homology", "unknot0", "--reduced"])
    assert missing.exit_code == 2
    # a well-formed basepoint without --reduced leaves the unreduced table
    plain = invoke(runner, ["kh", "homology", "trefoil_pos", "--json"])
    ignored = invoke(runner, ["kh", "homology", "trefoil_pos", "--basepoint", "1", "--json"])
    assert ignored.exit_code == 0 and ignored.output == plain.output


def test_kh_homology_deterministic(runner):
    a = invoke(runner, ["kh", "homology", "hopf", "--json"])
    b = invoke(runner, ["kh", "homology", "hopf", "--json"])
    assert a.output == b.output


def test_kh_verify(runner):
    res = invoke(runner, ["kh", "verify", "unknot_ladybug"])
    assert res.exit_code == 0
    assert "coherence: pass" in res.output


def test_input_errors_exit_2(runner, tmp_path):
    res = invoke(runner, ["kh", "homology", "no_such_fixture"])
    assert res.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res2 = invoke(runner, ["kh", "homology", str(bad)])
    assert res2.exit_code == 2

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def bundled(rel):
        return json.loads((corpus_dir() / rel).read_text(encoding="utf-8"))

    cert = bundled("certificates/wedge_split.json")
    nat = next(s for s in cert["steps"] if s["kind"] == "nat")
    del nat["ambient"]
    cert_point = json.loads(json.dumps(cert))
    next(s for s in cert_point["steps"] if s["kind"] == "nat")["ambient"] = {"n": 0}
    wedge = bundled("functors/wedge_cube.json")
    wedge["faces"][next(iter(wedge["faces"]))] = 5
    int_id = bundled("functors/wedge_cube.json")
    next(iter(int_id["edges"].values()))[0]["id"] = 5
    unordered = bundled("delta/sphere2.json")
    next(s for s in unordered["simplices"] if s["id"] == "s1_2_3")["verts"] = [2, 3, 1]
    int_simplex_id = bundled("delta/sphere2.json")
    int_simplex_id["simplices"][0]["id"] = 5
    trefoil_loops = bundled("pd/trefoil_pos.json")
    trefoil_loops["free_loops"] = 14

    def triangle(edges):
        """A triangle on vertices 1, 2, 3 over the edges {id: verts}."""
        return {"n_vertices": 3, "simplices":
                [{"id": f"v{k}", "verts": [k]} for k in (1, 2, 3)]
                + [{"id": e, "verts": vs} for e, vs in edges.items()]
                + [{"id": "t", "verts": [1, 2, 3]}]}

    def edited(rel, edit):
        obj = bundled(rel)
        edit(obj)
        return obj

    def iota(fields):
        return lambda c: next(s for s in c["steps"] if s["kind"] == "face")["iota"].update(fields)

    # an integer field holding a float or a bool is refused, never truncated
    non_integers = {
        "pd_float_arc.json": {"crossings": [[1.9, 2, 2, 1]]},
        "pd_bool_arc.json": {"crossings": [[True, 2, 2, 1]]},
        "pd_float_loops.json": {"crossings": [[1, 2, 2, 1]], "free_loops": 1.5},
        "functor_float_n.json": edited("functors/wedge_cube.json",
                                       lambda f: f.update(n=3.5)),
        "functor_bool_shift.json": edited("functors/wedge_cube.json",
                                          lambda f: f.update(shift=True)),
        "delta_float_count.json": edited("delta/sphere2.json",
                                         lambda d: d.update(n_vertices=4.5)),
        "delta_bool_vert.json": edited("delta/sphere2.json",
                                       lambda d: d["simplices"][0].update(verts=[True])),
        "iota_float_n.json": edited("certificates/wedge_split.json", iota({"n": 2.5})),
        "iota_float_N.json": edited("certificates/wedge_split.json", iota({"N": 3.5})),
        "iota_bool_coord.json": edited("certificates/wedge_split.json",
                                        iota({"coords": [True, 2]})),
    }
    command = {"pd": ["kh", "homology"], "functor": ["functor", "check"],
               "delta": ["delta", "homology"], "iota": ["functor", "certificate"]}
    malformed = [
        ["kh", "homology", write("pd_letter.json", {"crossings": [["x", 1, 2, 3]]})],
        ["kh", "homology", write("pd_short.json", {"crossings": [[1, 1]]})],
        ["delta", "homology", write("delta.json",
                                    {"n_vertices": 1, "simplices": [{"id": "a"}]})],
        ["functor", "certificate", write("cert.json", cert)],
        ["functor", "certificate", write("cert_point.json", cert_point)],
        ["functor", "check", write("vertices.json", {"n": 1, "vertices": 5})],
        ["functor", "check", write("edges.json", {"n": 1, "edges": 5})],
        ["functor", "check", write("faces.json", {"n": 1, "faces": 5})],
        ["functor", "check", write("negative.json", {"n": -1})],
        ["functor", "check", write("face_mapping.json", wedge)],
        ["functor", "check", write("int_id.json", int_id)],
        ["delta", "homology", write("unordered.json", unordered)],
        # simplices must be an array and a simplex id a string
        ["delta", "homology", write("delta_object.json", {"n_vertices": 3, "simplices": {}})],
        ["delta", "homology", write("delta_int_id.json", int_simplex_id)],
        # squares the forced rule refuses: unequal fiber sizes, a fiber of two
        ["delta", "homology", write("delta_doubled_edge.json", triangle(
            {"e": [1, 2], "e2": [1, 2], "f": [1, 3], "g": [2, 3]}))],
        ["delta", "homology", write("delta_ambiguous.json", triangle(
            {f"{e}{k}": vs for e, vs in (("a", [1, 2]), ("b", [1, 3]), ("c", [2, 3]))
             for k in "12"}))],
        # a negative vertex count, an empty simplex, and ids holding a
        # separator of the functor route's element ids
        ["delta", "homology", write("delta_negative.json", {"n_vertices": -1, "simplices": []})],
        ["delta", "homology", write("delta_no_verts.json",
                                    {"n_vertices": 1, "simplices": [{"id": "e", "verts": []}]})],
        ["delta", "homology", write("delta_compose_id.json",
                                    {"n_vertices": 1, "simplices": [{"id": "a∘b", "verts": [1]}]})],
        ["delta", "homology", write("delta_clashing_ids.json", {"n_vertices": 2, "simplices": [
            {"id": "a<b", "verts": [1]}, {"id": "a", "verts": [1]}, {"id": "v2", "verts": [2]},
            {"id": "c", "verts": [1, 2]}, {"id": "b<c", "verts": [1, 2]}]})],
        ["kh", "homology", "trefoil_pos", "--reduced", "--basepoint", "x"],
        ["kh", "homology", "trefoil_pos", "--basepoint", "x"],
        ["kh", "homology", "trefoil_pos", "--reduced", "--basepoint", "loop:7"],
        ["kh", "homology", "fig8", "--jobs", "2"],
        # cube dimensions above the cap are refused before any exponential work
        ["functor", "check", write("huge.json", {"n": 40})],
        ["delta", "homology", write("delta_huge.json", {"n_vertices": 40, "simplices": []})],
        ["kh", "homology", write("pd_huge.json", braid_closure_pd([1] * 17, 2).to_json())],
        ["kh", "homology", write("loops_huge.json", {"crossings": [], "free_loops": 17})],
        # crossings and free loops share the cap
        ["kh", "homology", write("trefoil_loops.json", trefoil_loops)],
    ]
    malformed += [command[name.split("_")[0]] + [write(name, obj)]
                  for name, obj in non_integers.items()]

    def write_bytes(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    # unreadable text: not UTF-8, nested past the parser's depth, or an
    # integer longer than int() converts
    long_int = "1" * 5000
    latin1 = b'{"crossings": [], "name": "caf\xe9"}'
    malformed += [
        ["kh", "homology", write_bytes("latin1.json", latin1)],
        ["kh", "homology", write_bytes("latin1.txt", b"PD[X(1,2,2,1)] \xff")],
        ["kh", "homology", write_bytes("deep.json", b'{"a": ' + b"[" * 100_000
                                       + b"]" * 100_000 + b"}")],
        ["kh", "homology", write_bytes("long_int.json",
                                       f'{{"crossings": [[{long_int}, 2, 2, 1]]}}'.encode())],
        ["kh", "homology", write_bytes("long_int.txt", f"PD[X({long_int},2,2,1)]".encode())],
    ]
    for args in malformed:
        assert invoke(runner, args).exit_code == 2, args
    (tmp_path / "pd").mkdir()
    write_bytes("pd/latin1.json", latin1)
    res3 = runner.invoke(main, ["kh", "homology", "latin1"],
                         env={"KH_CORPUS_DIR": str(tmp_path)}, catch_exceptions=False)
    assert res3.exit_code == 2 and res3.stderr.startswith("input error:")


@pytest.mark.parametrize("key", ["vertices", "edges", "faces"])
def test_functor_check_non_object_part_exits_2(runner, tmp_path, key):
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"n": 1, key: [1]}))
    res = invoke(runner, ["functor", "check", str(path), "--json"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"input error: malformed functor data: {key!r} must be an object\n"


def test_functor_check(runner):
    res = invoke(runner, ["functor", "check", "wedge_cube"])
    assert res.exit_code == 0
    res2 = invoke(runner, ["functor", "check", "cube_obstructed", "--json"])
    assert res2.exit_code == 0  # partial data: square condition + d²=0 only
    out = json.loads(res2.output)
    assert out["checks"]["square_condition"] is True
    assert "coherence" not in out["checks"]


def test_functor_check_broken_hexagon(runner, tmp_path):
    """A ladybug matching flipped within its fiber is still a 2-morphism but
    breaks a hexagon: the one pass over the squares passes the square
    condition and fails coherence."""
    sf = build_khovanov_functor(load_pd("unknot_ladybug"))
    f = sf.functor
    for face in cube.faces2(f.n):
        m = f.matching(face)
        pairs = [v for v in m.src.fibers().values() if len(v) == 2]
        if pairs:
            break
    d = m.as_dict()
    a, b = pairs[0]
    d[a.id], d[b.id] = d[b.id], d[a.id]
    fm = {**f.face_matchings, face: BijectionOver.of(m.src, m.dst, d)}
    flipped = CubeFunctorData(f.n, f.vertex_sets, f.edge_corrs, fm)
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(functor_to_json(StableFunctor(flipped, sf.shift))),
                    encoding="utf-8")
    res = invoke(runner, ["functor", "check", str(path), "--json"])
    assert res.exit_code == 1
    assert res.output == """\
{
  "checks": {
    "coherence": false,
    "d_squared_zero": true,
    "square_condition": true
  },
  "failures": [
    "3-face at 111 coords (1, 2, 3): hexagon does not commute"
  ],
  "schema_version": 1
}
"""


def test_functor_search(runner):
    res = invoke(runner, ["functor", "search-matchings", "square_free"])
    assert res.exit_code == 0
    assert "24 coherent matchings" in res.output
    assert "6 modulo" in res.output
    res2 = invoke(runner, ["functor", "search-matchings", "cube_obstructed"])
    assert res2.exit_code == 0
    assert "no coherent matching exists" in res2.output


def test_functor_certificate(runner, tmp_path):
    res = invoke(runner, ["functor", "certificate", "wedge_split"])
    assert res.exit_code == 0
    assert "certificate: pass" in res.output
    # corrupt one shift in the JSON: the adjacent step must fail
    src = json.loads((corpus_dir() / "certificates" / "wedge_split.json")
                     .read_text(encoding="utf-8"))
    src["chain"][2]["shift"] = 7
    bad = tmp_path / "bad_cert.json"
    bad.write_text(json.dumps(src), encoding="utf-8")
    res2 = invoke(runner, ["functor", "certificate", str(bad)])
    assert res2.exit_code == 1
    assert "FAIL" in res2.output


@pytest.mark.parametrize("direction", ["sideways", 7, None])
def test_certificate_step_direction_is_checked(runner, tmp_path, direction):
    # step 0 of wedge_split with an unknown direction is an input error
    cert = json.loads((corpus_dir() / "certificates" / "wedge_split.json")
                      .read_text(encoding="utf-8"))
    cert["steps"][0]["direction"] = direction
    path = tmp_path / "direction.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    res = invoke(runner, ["functor", "certificate", str(path), "--json"])
    assert res.exit_code == 2 and res.stdout == ""
    assert "direction" in res.stderr


def test_delta_homology(runner):
    res = invoke(runner, ["delta", "homology", "torus", "--json"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["agree"] is True
    assert {"degree": 1, "rank": 2, "torsion": []} in out["direct"]


def test_examples_run(runner):
    res = invoke(runner, ["examples", "run"])
    assert res.exit_code == 0
    assert "FAIL" not in res.output


def test_corpus_dir_override(runner, tmp_path, monkeypatch):
    (tmp_path / "pd").mkdir()
    (tmp_path / "pd" / "mine.json").write_text(
        json.dumps({"crossings": [], "free_loops": 1}), encoding="utf-8")
    monkeypatch.setenv("KH_CORPUS_DIR", str(tmp_path))
    res = invoke(runner, ["kh", "homology", "mine", "--json"])
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    assert rows == [{"i": 0, "j": -1, "rank": 1, "torsion": []},
                    {"i": 0, "j": 1, "rank": 1, "torsion": []}]
    assert list_fixtures("pd") == ["mine"]


def test_fixture_listing():
    names = list_fixtures("pd")
    assert "trefoil_pos" in names and "unknot_ladybug" in names


def test_reduced_golden_via_cli(runner):
    res = invoke(runner, ["kh", "homology", "trefoil_pos", "--reduced",
                          "--basepoint", "1", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"] == \
        load_golden("trefoil_pos_reduced")["rows"]


def test_internal_invariant_exits_3():
    from cubeburnside.cli import _run
    from cubeburnside.errors import InternalInvariantError

    def boom():
        raise InternalInvariantError("constructed for the test")

    with pytest.raises(SystemExit) as exc:
        _run(boom)
    assert exc.value.code == 3


def test_cli_snapshot_replays(runner):
    """stdout and exit codes over every bundled fixture match the recorded
    snapshot (regenerate with ``python scripts/cli_snapshot.py``)."""
    path = Path(__file__).parent / "data" / "cli_snapshot.json"
    differs = []
    for want in json.loads(path.read_text(encoding="utf-8")):
        res = invoke(runner, want["args"])
        got = {"args": want["args"], "exit_code": res.exit_code,
               "stdout_sha256": hashlib.sha256(res.stdout_bytes).hexdigest()}
        if got != want:
            differs.append(" ".join(want["args"]))
    assert not differs, differs
