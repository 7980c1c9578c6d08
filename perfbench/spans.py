"""In-memory spans and counts recorded around calls into cubeburnside's
public functions, for the benchmark's traced run.

The tracer rebinds each traced function, in every ``cubeburnside`` module
that holds it, to a wrapper that records a span (name, start, end, parent,
job).  Library code that calls the function through a module global goes
through the wrapper too, so spans nest as the calls do.  Nothing inside
the library changes; ``installed()`` restores the originals on exit.

Counts are computed by hooks from a traced call's arguments and result,
only inside jobs.  Hook time is taken off the tracer's clock, so it shows
in neither span durations nor layer self times, only in the traced run's
wall time (``trace.overhead_s``).
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from typing import Callable

# per-layer time metric -> traced functions whose self time (within jobs) it sums
JOB_TIMES = {
    "khovanov.build_s": ("khovanov.build_khovanov_functor", "khovanov.reduced_functor"),
    "khovanov.split_s": ("khovanov.split_by_quantum",),
    "functor.validate_coherence_s": ("functor.validate_coherence",),
    "functor.enumerate_matchings_s": ("functor.enumerate_matchings",),
    "totalization.tot_s": ("totalization.tot",),
    "totalization.dualize_s": ("totalization.dualize",),
    "totalization.homology_s": ("totalization.homology", "totalization.homology_nontrivial"),
    "totalization.tot_nat_trans_s": ("totalization.tot_nat_trans",),
    "totalization.is_quasi_iso_s": ("totalization.is_quasi_iso",),
    "certificates.verify_s": ("certificates.verify_certificate",),
    "simplicial.homology_s": ("simplicial.simplicial_homology", "simplicial.delta_functor"),
}
# fixture loading happens while the inputs are set up, outside any job
SETUP_TIMES = {
    "corpus.load_s": ("corpus.load_pd", "corpus.load_functor",
                      "corpus.load_certificate", "corpus.load_delta"),
}
COUNTS = (
    "khovanov.vertices", "khovanov.generators", "khovanov.edge_elements",
    "khovanov.ladybug_fibers", "khovanov.gradings",
    "functor.faces3", "functor.search_completions",
    "totalization.max_dim",
    "linalg.dense_entries", "linalg.nnz", "linalg.snf_ops_bound",
    "linalg.d2_product_ops",
)


def _functor_sizes(counts, sf, args, kwargs):
    f = sf.functor
    counts["khovanov.vertices"] += 2 ** f.n
    counts["khovanov.generators"] += sum(len(s) for s in f.vertex_sets.values())
    counts["khovanov.edge_elements"] += sum(len(c.elements) for c in f.edge_corrs.values())
    # a face composite's two-element fibers are exactly the ladybug fibers
    counts["khovanov.ladybug_fibers"] += sum(
        1 for m in (f.face_matchings or {}).values()
        for fiber in m.src.fibers().values() if len(fiber) == 2)


def _gradings(counts, parts, args, kwargs):
    counts["khovanov.gradings"] += len(parts)


def _faces3(counts, report, args, kwargs):
    n = args[0].n
    counts["functor.faces3"] += comb(n, 3) * 2 ** max(n - 3, 0)


def _completions(counts, results, args, kwargs):
    counts["functor.search_completions"] += len(results)


def _snf_inputs(counts, complexes):
    """Sizes of the differentials Smith normal form runs on."""
    for c in complexes:
        counts["totalization.max_dim"] = max(
            counts["totalization.max_dim"], max(map(len, c.basis.values()), default=0))
        for m in c.diffs.values():
            counts["linalg.dense_entries"] += m.rows * m.cols
            counts["linalg.nnz"] += sum(1 for row in m.entries for x in row if x)
            counts["linalg.snf_ops_bound"] += m.rows * m.cols * min(m.rows, m.cols)


def _homology_input(counts, result, args, kwargs):
    _snf_inputs(counts, [args[0]])


def _quasi_iso_input(counts, result, args, kwargs):
    _snf_inputs(counts, [args[0].source, args[0].target])


def _d2_products(counts, c, args, kwargs):
    """Multiply-adds of the dense d∘d = 0 check run when the complex is built."""
    for d, m in c.diffs.items():
        if d - 1 in c.diffs:
            counts["linalg.d2_product_ops"] += c.diffs[d - 1].rows * m.rows * m.cols


HOOKS: dict[str, Callable] = {
    "khovanov.build_khovanov_functor": _functor_sizes,
    "khovanov.split_by_quantum": _gradings,
    "functor.validate_coherence": _faces3,
    "functor.enumerate_matchings": _completions,
    "totalization.homology": _homology_input,
    "totalization.is_quasi_iso": _quasi_iso_input,
    "totalization.tot": _d2_products,
    "totalization.dualize": _d2_products,
}
TRACED = sorted({f for names in (*JOB_TIMES.values(), *SETUP_TIMES.values()) for f in names})

# every per-layer metric, in report order, with its unit
PER_LAYER = {**dict.fromkeys((*JOB_TIMES, *SETUP_TIMES), "s"), **dict.fromkeys(COUNTS, "count"),
             "trace.coverage": "ratio", "trace.overhead_s": "s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._job: str | None = None
        self._excluded = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def _open(self, name: str) -> Span:
        span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; counts are taken only inside jobs."""
        self._job = job_id
        span = self._open("job")
        try:
            yield
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None and self._job is not None:
                t = time.perf_counter()
                hook(self.counts, result, args, kwargs)
                self._excluded += time.perf_counter() - t
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in every loaded cubeburnside module."""
        patched = []
        try:
            for qual in TRACED:
                mod_name, fn_name = qual.split(".")
                orig = getattr(importlib.import_module(f"cubeburnside.{mod_name}"), fn_name)
                wrapper = self._wrap(qual, orig)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "cubeburnside" or mod is None:
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def self_times(self) -> dict[tuple[str, bool], float]:
        """Self time per (span name, inside a job)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[tuple[str, bool], float] = {}
        for i, s in enumerate(self.spans):
            key = (s.name, s.job is not None)
            out[key] = out.get(key, 0.0) + (s.end - s.start) - child_time[i]
        return out

    def metrics(self, overhead_s: float) -> dict[str, float | int]:
        """Every per-layer metric, in the order of ``PER_LAYER``."""
        st = self.self_times()
        out: dict[str, float | int] = {}
        for metric, names in JOB_TIMES.items():
            out[metric] = sum(st.get((n, True), 0.0) for n in names)
        for metric, names in SETUP_TIMES.items():
            out[metric] = sum(st.get((n, False), 0.0) for n in names)
        out.update(self.counts)
        job_total = sum(s.end - s.start for s in self.spans if s.name == "job")
        layer_total = sum(v for (n, in_job), v in st.items() if in_job and n != "job")
        out["trace.coverage"] = layer_total / job_total if job_total else 0.0
        out["trace.overhead_s"] = overhead_s
        return out
