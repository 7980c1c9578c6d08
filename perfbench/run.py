"""Benchmark of cubeburnside: one client, one process, one thread, one job
at a time (a closed loop), on a workload drawn from a seed.

    python3 perfbench/run.py --workload kh-span --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run sets up its inputs, then runs passes over the
workload's jobs until ``--seconds`` is spent, at least two passes, timing
the set-up again in fresh processes before each pass, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics of the traced one.  Either way every job's output is
checked against an independent expectation after the timed passes.

Standard output ends with a report line (provenance, per-job medians, the
jobs that failed) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every job succeeded, 1 when a job failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed in this process and in fresh ones, so the import counts
# too.  Fresh set-ups are spread over the run, before each pass: at least
# one, and up to SETUPS_PER_PASS while they take under SETUP_SLICE_S.  With
# MIN_PASSES passes a run has at least three set-up samples.
SETUPS_PER_PASS, SETUP_SLICE_S = 3, 0.5
MIN_PASSES = 2


class UnknownWorkload(Exception):
    pass


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the set-up samples)")
    return p.parse_args(argv)


def _setup(workload: str, seed: int, tracer=None):
    """Import the library and build the workload's inputs; returns the
    seconds taken and the jobs."""
    t0 = time.perf_counter()
    import workloads  # first import of cubeburnside happens here
    if workload not in workloads.WORKLOADS:
        raise UnknownWorkload(f"unknown workload {workload!r}")
    if tracer is None:
        jobs = workloads.build(workload, seed)
    else:
        with tracer.installed():
            jobs = workloads.build(workload, seed)
    return time.perf_counter() - t0, jobs


def _fresh_setup_s(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _run_pass(jobs, tracer=None):
    """One pass, one job at a time: per-job seconds and (result, error)."""
    times, results = [], []
    for job in jobs:
        t = time.perf_counter()
        try:
            if tracer is None:
                res = (job.run(), None)
            else:
                with tracer.job(job.name):
                    res = (job.run(), None)
        except Exception:  # a failing job is counted, and the run goes on
            res = (None, traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t)
        results.append(res)
    return times, results


def _check(jobs, passes_results):
    """Compare every pass's outputs with the expectations, untimed.

    Returns per-job canonical outputs (first pass) and the failures."""
    failures, outputs = [], {}
    for k, job in enumerate(jobs):
        try:
            expected = job.expected()
        except Exception:
            expected, why = None, "expectation raised:\n" + traceback.format_exc(limit=3)
        else:
            why = None
        for p, results in enumerate(passes_results):
            res, err = results[k]
            if err is None:
                try:
                    out = job.output(res)
                except Exception:
                    err = traceback.format_exc(limit=3)
            if err is None:
                outputs.setdefault(job.name, out)
                if why is None and out == expected:
                    continue
            failures.append({"job": job.name, "pass": p,
                             "error": err or why or f"output {out!r} != expected {expected!r}"})
    return outputs, failures


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str | None]:
    out = {"L2": None, "L3": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if f"L{level}" in out:
                out[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """Content hash of the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and p.suffix in (".py", ".json", ".pd")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    caches = _cache_sizes()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "l2": caches["L2"], "l3": caches["L3"],
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "git_sha": _git_sha(), "source_sha256": _source_digest(), "seed": seed}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _untraced(args, jobs, setup_s):
    setups = [setup_s]
    pass_times, pass_results = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            setups.append(_fresh_setup_s(args.workload, args.seed))
            if time.perf_counter() - t >= SETUP_SLICE_S:
                break
        sampling_s = time.perf_counter() - t
        gc.collect()
        times, results = _run_pass(jobs)
        pass_times.append(times)
        pass_results.append(results)
        elapsed = time.perf_counter() - start
        # one pass is estimated by the sum of per-job medians over the passes
        job_median_s = [statistics.median(col) for col in zip(*pass_times)]
        solve_s = sum(job_median_s)
        if len(pass_times) >= MIN_PASSES and elapsed + sampling_s + solve_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"solve_s": _metric(solve_s, "s"),
               "peak_rss_mb": _metric(peak_rss_mb, "MB"),
               "setup_s": _metric(statistics.median(setups), "s")}
    detail = {"passes": len(pass_times),
              "pass_s": [sum(t) for t in pass_times],
              "job_median_s": dict(zip((job.name for job in jobs), job_median_s)),
              "setup_samples_s": setups}
    return metrics, pass_results, detail


def _traced(jobs, tracer):
    gc.collect()
    t = time.perf_counter()
    _, plain = _run_pass(jobs)
    untraced_s = time.perf_counter() - t
    gc.collect()
    t = time.perf_counter()
    with tracer.installed():
        _, traced = _run_pass(jobs, tracer)
    traced_s = time.perf_counter() - t
    values = tracer.metrics(traced_s - untraced_s)
    metrics = {name: _metric(values[name], unit) for name, unit in spans.PER_LAYER.items()}
    detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "spans": len(tracer.spans)}
    return metrics, [plain, traced], detail


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cubeburnside" / "__init__.py").is_file():
        print(f"perfbench: no cubeburnside package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace and not args.setup_only else None
    try:
        setup_s, jobs = _setup(args.workload, args.seed, tracer)
    except UnknownWorkload as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is None:
        metrics, pass_results, detail = _untraced(args, jobs, setup_s)
    else:
        metrics, pass_results, detail = _traced(jobs, tracer)
    # both passes of a traced run meet the same expectation, so their outputs agree
    outputs, failures = _check(jobs, pass_results)
    attempted = len(jobs) * len(pass_results)
    for f in failures:
        print(f"perfbench: job {f['job']} (pass {f['pass']}) failed: {f['error']}",
              file=sys.stderr)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), "jobs": [j.name for j in jobs],
              "jobs_failed": len(failures) / attempted,
              "output_sha256": {name: _digest(out) for name, out in outputs.items()},
              **detail}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
