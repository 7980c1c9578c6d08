"""Command-line frontend.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 internal
invariant violation.  All JSON output is canonically sorted, so identical
inputs and flags produce byte-identical results.
"""

from __future__ import annotations

import json
import sys

import click

from . import cube, fixtures
from .certificates import verify_certificate
from .corpus import (load_certificate, load_delta, load_functor, load_golden,
                     load_pd)
from .errors import InputError, InternalInvariantError, SearchCapExceeded
from .functor import (MAX_PER_FACE, enumerate_matchings, find_natural_isomorphism, product,
                      validate_c0, validate_coherence)
from .khovanov import build_khovanov_functor, generator_gradings, kh_table
from .simplicial import delta_functor, simplicial_homology
from .totalization import HomologyGroup, homology_nontrivial, tot


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


class ExitCode(Exception):
    def __init__(self, code: int):
        self.code = code


def _run(fn):
    try:
        fn()
    except ExitCode as exc:
        sys.exit(exc.code)
    except (InputError, SearchCapExceeded) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except InternalInvariantError as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Cube-to-spans functor calculator: homology of link diagrams, functor
    validation, matching search, stable-equivalence certificates."""


@main.group()
def kh():
    """Link diagram commands."""


@main.group()
def functor():
    """Abstract cube functor commands."""


@main.group()
def delta():
    """Triangulated-complex commands."""


@main.group()
def examples():
    """Bundled end-to-end demonstrations."""


def _basepoint_value(basepoint: str | None):
    if basepoint is None:
        return None
    try:
        if basepoint.startswith("loop:"):
            return ("loop", int(basepoint.split(":", 1)[1]))
        return int(basepoint)
    except ValueError as exc:
        raise InputError(f"bad basepoint {basepoint!r}: expected an arc label "
                         "or loop:<k>") from exc


@kh.command("homology")
@click.argument("diagram")
@click.option("--reduced", is_flag=True, help="reduced variant (needs --basepoint)")
@click.option("--basepoint", default=None, help="arc label, or loop:<k>")
@click.option("--json", "as_json", is_flag=True)
def kh_homology(diagram, reduced, basepoint, as_json):
    """Bigraded homology table of a diagram (fixture name or file)."""
    def go():
        pd = load_pd(diagram)
        bp = _basepoint_value(basepoint)
        rows = kh_table(pd, reduced, bp if reduced else None)
        if as_json:
            click.echo(_dump({"schema_version": 1, "diagram": diagram,
                              "reduced": bool(reduced), "rows": rows}))
        else:
            click.echo(f"{'i':>4} {'j':>4}  group")
            for r in rows:
                h = HomologyGroup(r["i"], r["rank"], tuple(r["torsion"]))
                click.echo(f"{r['i']:>4} {r['j']:>4}  {h}")
    _run(go)


@kh.command("verify")
@click.argument("diagram")
@click.option("--json", "as_json", is_flag=True)
def kh_verify(diagram, as_json):
    """Check the square condition, coherence, d²=0 and quantum grading
    preservation for a diagram's functor.  The build checks coherence on
    positions first and exits 3 where it fails."""
    def go():
        pd = load_pd(diagram)
        sf = build_khovanov_functor(pd)
        checks, failures = _structure_checks(sf.functor)
        try:
            tot(sf)
            checks["d_squared_zero"] = True
        except InternalInvariantError as exc:
            checks["d_squared_zero"] = False
            failures.append(str(exc))
        grads = generator_gradings(pd, sf.functor)
        ok = True
        for (u, v) in cube.edges(pd.n):
            for e in sf.functor.edge(u, v).elements:
                if grads[u][e.s] != grads[v][e.t]:
                    ok = False
                    failures.append(f"edge {cube.bits(u)}>{cube.bits(v)} element "
                                    f"{e.id} changes the quantum grading")
        checks["quantum_grading_preserved"] = ok
        _report_checks(checks, failures, as_json, diagram=diagram)
    _run(go)


@functor.command("check")
@click.argument("input")
@click.option("--json", "as_json", is_flag=True)
def functor_check(input, as_json):
    """Validate a functor JSON file: square condition, coherence (when
    matchings are present), d²=0."""
    def go():
        sf = load_functor(input)
        checks, failures = _structure_checks(sf.functor)
        if checks["square_condition"]:
            tot(sf)
            checks["d_squared_zero"] = True
        _report_checks(checks, failures, as_json)
    _run(go)


def _structure_checks(f) -> tuple[dict[str, bool], list[str]]:
    """The square condition, and coherence when the functor has matchings;
    then one pass over the squares decides both."""
    if not f.has_matchings:
        rep = validate_c0(f)
        return {"square_condition": rep.ok}, list(rep.failures)
    rep = validate_coherence(f)
    return ({"square_condition": rep.square_condition, "coherence": rep.ok},
            list(rep.failures))


def _report_checks(checks: dict[str, bool], failures: list[str], as_json: bool,
                   **header) -> None:
    """Print each check's verdict and the distinct failures; exit 1 when a
    check failed.  ``header`` adds fields to the JSON form."""
    failures = sorted(set(failures))
    if as_json:
        click.echo(_dump({"schema_version": 1, **header, "checks": checks,
                          "failures": failures}))
    else:
        for k, v in sorted(checks.items()):
            click.echo(f"{k}: {'pass' if v else 'FAIL'}")
        for f in failures:
            click.echo(f"  {f}")
    if not all(checks.values()):
        raise ExitCode(1)


@functor.command("search-matchings")
@click.argument("input")
@click.option("--max-search", default=MAX_PER_FACE, type=click.IntRange(1),
              show_default=True, help="cap on bijections per square")
@click.option("--json", "as_json", is_flag=True)
def functor_search(input, max_search, as_json):
    """Exhaustively count coherent 2-face matching assignments."""
    def go():
        sf = load_functor(input)
        results = enumerate_matchings(sf.functor, max_per_face=max_search)
        normalized = None
        pin = _first_pin(sf.functor)
        if results and pin is not None:
            face, src, dst = pin
            normalized = sum(1 for r in results if r[face][src] == dst)
        if as_json:
            out = {"schema_version": 1, "count": len(results)}
            if normalized is not None:
                out["normalized_count"] = normalized
                out["normalization"] = f"{src} -> {dst}"
            click.echo(_dump(out))
        elif not results:
            click.echo("no coherent matching exists")
        elif normalized is not None:
            click.echo(f"{len(results)} coherent matchings "
                       f"({normalized} modulo the {src}↦{dst} normalization)")
        else:
            click.echo(f"{len(results)} coherent matchings")
    _run(go)


def _first_pin(f):
    """First element of the first ambiguous fiber of the first face, pinned
    to its first possible image (for reporting counts modulo relabeling)."""
    for face in cube.faces2(f.n):
        ca, cb = f.square(face)
        fa, fb = ca.fibers(), cb.fibers()
        for key in sorted(fa):
            if len(fa[key]) > 1:
                return face, fa[key][0].id, fb[key][0].id
    return None


@functor.command("certificate")
@click.argument("input")
@click.option("--json", "as_json", is_flag=True)
def functor_certificate(input, as_json):
    """Verify a stable-equivalence certificate step by step."""
    def go():
        cert = load_certificate(input)
        rep = verify_certificate(cert)
        if as_json:
            click.echo(_dump({"schema_version": 1, "ok": rep.ok,
                              "steps": [{"index": s.index, "kind": s.kind,
                                         "ok": s.ok, "detail": s.detail}
                                        for s in rep.steps]}))
        else:
            for s in rep.steps:
                click.echo(f"step {s.index} [{s.kind}] "
                           f"{'pass' if s.ok else 'FAIL'}: {s.detail}")
            click.echo("certificate: " + ("pass" if rep.ok else "FAIL"))
        if not rep.ok:
            raise ExitCode(1)
    _run(go)


@delta.command("homology")
@click.argument("input")
@click.option("--json", "as_json", is_flag=True)
def delta_homology(input, as_json):
    """Homology through the cube functor and through boundary matrices,
    with an agreement verdict."""
    def go():
        via_tot, direct = _delta_routes(load_delta(input))
        agree = via_tot == direct
        if as_json:
            click.echo(_dump({
                "schema_version": 1, "agree": agree,
                "via_functor": [h.to_json() for _, h in sorted(via_tot.items())],
                "direct": [h.to_json() for _, h in sorted(direct.items())]}))
        else:
            degs = sorted(set(via_tot) | set(direct))
            click.echo(f"{'deg':>4}  via functor      direct")
            for d in degs:
                a = str(via_tot.get(d, "0"))
                b = str(direct.get(d, "0"))
                click.echo(f"{d:>4}  {a:<15} {b}")
            click.echo("agreement: " + ("yes" if agree else "NO"))
        if not agree:
            raise ExitCode(1)
    _run(go)


def _delta_routes(x):
    """The nontrivial homology of a Δ-complex through the cube functor and
    through boundary matrices, each keyed by degree."""
    via_tot = homology_nontrivial(tot(delta_functor(x)))
    return via_tot, {d: h for d, h in simplicial_homology(x).items() if not h.is_trivial}


@examples.command("run")
@click.option("--json", "as_json", is_flag=True)
def examples_run(as_json):
    """Reproduce the bundled worked examples end to end."""
    def go():
        results = []

        def record(name, ok, detail=""):
            results.append({"name": name, "ok": bool(ok), "detail": detail})

        me = fixtures.multiple_extension_square()
        all_m = enumerate_matchings(me)
        pinned = enumerate_matchings(
            me, pinned={fixtures.SQUARE_FACE: {"d1∘c1": "b1∘a1"}})
        record("square-matchings-24", len(all_m) == 24, f"found {len(all_m)}")
        record("square-matchings-6-pinned", len(pinned) == 6, f"found {len(pinned)}")

        ze = fixtures.zero_extension_cube()
        record("cube-no-matchings", len(enumerate_matchings(ze)) == 0)

        pp = product(fixtures.projective_functor(),
                     fixtures.projective_functor("x", "y", ("w1", "w2")))
        iso = find_natural_isomorphism(fixtures.smash_square(), pp)
        record("smash-square-is-product", iso is not None)
        hom = {d: (h.free_rank, h.torsion)
               for d, h in homology_nontrivial(tot(pp)).items()}
        record("product-homology", hom == {0: (0, (2,)), 1: (0, (2,))}, str(hom))

        rep = verify_certificate(fixtures.wedge_certificate())
        record("wedge-certificate", rep.ok)

        golden = load_golden("trefoil_pos")
        record("trefoil-golden", kh_table(load_pd("trefoil_pos")) == golden["rows"])
        golden8 = load_golden("fig8")
        record("fig8-golden", kh_table(load_pd("fig8")) == golden8["rows"])
        u0 = kh_table(load_pd("unknot0"))
        record("unknot-R1-R2",
               all(kh_table(load_pd(n)) == u0
                   for n in ("kink_neg", "kink_pos", "unknot_r2", "unknot_ladybug")))

        for name in ("point", "sphere2", "rp2", "torus"):
            via_tot, direct = _delta_routes(load_delta(name))
            record(f"delta-{name}", via_tot == direct)

        ok = all(r["ok"] for r in results)
        if as_json:
            click.echo(_dump({"schema_version": 1, "ok": ok, "results": results}))
        else:
            for r in results:
                click.echo(f"{'pass' if r['ok'] else 'FAIL'}  {r['name']}"
                           + (f"  ({r['detail']})" if r["detail"] else ""))
        if not ok:
            raise ExitCode(1)
    _run(go)


if __name__ == "__main__":
    main()
