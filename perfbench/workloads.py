"""Seeded inputs, jobs and expected outputs of the benchmark workloads.

A job is one call into cubeburnside's public API.  Jobs call the library
through module attributes (``khovanov.kh_table``, not a name imported
here), so the traced run's rebinding reaches them.

The seed permutes the crossing order of every PD code and picks a cyclic
rotation of every braid word.  That changes labels and matrix layout but
neither the sizes of the work nor the answers, so every seed gives the same
tables and the same per-layer counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from cubeburnside import certificates, corpus, functor, khovanov, simplicial, totalization


@dataclass
class Job:
    name: str
    input: Any                    # what the call consumes, for inspection
    run: Callable[[], Any]        # the timed call
    output: Callable[[Any], Any]  # JSON-able form of run()'s result, taken untimed
    expected: Callable[[], Any]   # what output() must equal, computed untimed


def _permuted(pd, rng: random.Random):
    order = list(range(pd.n))
    rng.shuffle(order)
    return khovanov.parse_pd({"crossings": [list(pd.crossings[i]) for i in order],
                              "free_loops": pd.free_loops})


def _braid(word: list[int], strands: int, rng: random.Random):
    k = rng.randrange(len(word))
    return _permuted(khovanov.braid_closure_pd(word[k:] + word[:k], strands), rng)


# Khovanov tables of the benchmark's diagrams, written by make_golden.py from
# kh_table_direct, which assembles the complex without the span layer
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN: dict[str, list] = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def _kh_job(name: str, pd, basepoint=None) -> Job:
    """kh_table, checked against the golden table or else kh_table_direct."""
    reduced = basepoint is not None

    def expected():
        if name in GOLDEN:
            return GOLDEN[name]
        return khovanov.kh_table_direct(pd, reduced=reduced, basepoint=basepoint)

    return Job(name, (pd, basepoint),
               lambda: khovanov.kh_table(pd, reduced=reduced, basepoint=basepoint),
               lambda rows: rows, expected)


def _verify_job(name: str, cert) -> Job:
    return Job(name, cert, lambda: certificates.verify_certificate(cert),
               lambda rep: {"ok": rep.ok, "steps": [s.ok for s in rep.steps]},
               lambda: {"ok": True, "steps": [True] * len(cert.steps)})


def _identity_certificate(pd):
    """The stable functor of ``pd`` and the identity transformation on it."""
    sf = khovanov.build_khovanov_functor(pd)
    eta = functor.identity_transformation(sf.functor)
    return certificates.EquivalenceCertificate((sf, sf), (certificates.NatTransStep(eta),))


def _search_job(name: str, data, completions: int) -> Job:
    return Job(name, data, lambda: functor.enumerate_matchings(data), len, lambda: completions)


def _groups(hs) -> list:
    return [[d, h.free_rank, list(h.torsion)] for d, h in sorted(hs.items())
            if not h.is_trivial]


# integral homology of the bundled triangulations: [degree, rank, torsion]
_DELTA_HOMOLOGY = {
    "point": [[0, 1, []]],
    "rp2": [[0, 1, []], [1, 0, [2]]],
    "sphere2": [[0, 1, []], [2, 1, []]],
    "torus": [[0, 1, []], [1, 2, []], [2, 1, []]],
}


def _delta_job(name: str) -> Job:
    x = corpus.load_delta(name)

    def both_routes():
        via_tot = totalization.homology_nontrivial(
            totalization.tot(simplicial.delta_functor(x)))
        return via_tot, simplicial.simplicial_homology(x)

    expected = _DELTA_HOMOLOGY[name]
    return Job(f"delta:{name}", x, both_routes,
               lambda r: {"via_functor": _groups(r[0]), "direct": _groups(r[1])},
               lambda: {"via_functor": expected, "direct": expected})


def _kh_span(rng: random.Random) -> list[Job]:
    """Mixed-sign diagrams: generators spread over many quantum gradings,
    so matrices stay small and the span layers dominate."""
    tf8 = _permuted(corpus.load_pd("trefoil_fig8"), rng)
    return [
        _kh_job("kh:trefoil_fig8", tf8),
        _kh_job("kh:(s1 s2^-1)^4", _braid([1, -2] * 4, 3, rng)),
        _kh_job("kh:s1 s2^-1 s3 s1 s2^-1 s3 s2", _braid([1, -2, 3, 1, -2, 3, 2], 4, rng)),
        _kh_job("kh-reduced:trefoil_fig8@1", tf8, basepoint=1),
    ]


def _kh_matrix(rng: random.Random) -> list[Job]:
    """Positive torus braids: generators pile into few quantum gradings, so
    totalization, dualization and homology dominate."""
    return [
        _kh_job("kh:T(2,7)", _braid([1] * 7, 2, rng)),
        _kh_job("kh:T(2,6)+loop", _braid([1] * 6, 3, rng)),
    ]


def _certify(rng: random.Random) -> list[Job]:
    """Certificate checks, matching search and simplicial homology: the
    transform-tracking quasi-isomorphism test and cold per-probe functor
    data, which the Khovanov workloads do not reach."""
    jobs = [_verify_job(f"verify:{name}-identity",
                        _identity_certificate(_permuted(corpus.load_pd(name), rng)))
            for name in ("granny", "square_knot")]
    jobs.append(_verify_job("verify:wedge_split", corpus.load_certificate("wedge_split")))
    jobs.append(_search_job("search:wedge_cube", corpus.load_functor("wedge_cube").functor, 64))
    jobs.append(_search_job("search:cube_obstructed",
                            corpus.load_functor("cube_obstructed").functor, 0))
    kink = khovanov.build_khovanov_functor(
        _permuted(corpus.load_pd("trefoil_kink"), rng)).functor
    bare = functor.CubeFunctorData.build(kink.n, kink.vertex_sets, kink.edge_corrs, None)
    jobs.append(_search_job("search:trefoil_kink-bare", bare, 1))
    jobs.extend(_delta_job(name) for name in sorted(_DELTA_HOMOLOGY))
    return jobs


def _smoke(rng: random.Random) -> list[Job]:
    """A few small jobs of every kind, for the benchmark's own tests."""
    pd = _permuted(corpus.load_pd("trefoil_pos"), rng)
    return [
        _kh_job("kh:trefoil_pos", pd),
        _kh_job("kh-reduced:trefoil_pos@1", pd, basepoint=1),
        _verify_job("verify:wedge_split", corpus.load_certificate("wedge_split")),
        _search_job("search:cube_obstructed", corpus.load_functor("cube_obstructed").functor, 0),
        _delta_job("sphere2"),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "kh-span": _kh_span,
    "kh-matrix": _kh_matrix,
    "certify": _certify,
    "smoke": _smoke,
}


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload`` with inputs drawn from ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
