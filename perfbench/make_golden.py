"""Write perfbench/golden.json: the Khovanov table of every kh_table job of
the benchmark workloads, computed by kh_table_direct (the matrix-assembly
path that does not use the span layer).

    python3 perfbench/make_golden.py

Every seed gives the same tables, so the tables are taken at seed 0; the
tests check them against kh_table_direct at another seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

GOLDEN_WORKLOADS = ("kh-span", "kh-matrix")


def direct_tables(seed: int) -> dict[str, list]:
    out = {}
    for w in GOLDEN_WORKLOADS:
        for job in workloads.build(w, seed):
            pd, basepoint = job.input
            out[job.name] = workloads.khovanov.kh_table_direct(
                pd, reduced=basepoint is not None, basepoint=basepoint)
    return out


if __name__ == "__main__":
    workloads.GOLDEN_PATH.write_text(json.dumps(direct_tables(0), indent=1, sort_keys=True) + "\n")
