"""Self-test of the benchmark: on every workload in BENCHMARK.json, two
seeds must give identical outputs (job tables and results) and identical
per-layer counts.

    python3 perfbench/selftest.py [--seeds 1 2]

Runs ``run.py --trace 1`` once per workload and seed, from the repository
root, and exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, report, result = proc.stdout.splitlines()
    counts = {name: m["value"] for name, m in json.loads(result)["metrics"].items()
              if m["unit"] == "count"}
    return json.loads(report)["report"]["output_sha256"], counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        (out_a, counts_a), (out_b, counts_b) = (_traced_run(w["name"], s) for s in args.seeds)
        same = out_a == out_b and counts_a == counts_b
        ok &= same
        print(json.dumps({"workload": w["name"], "seeds": args.seeds, "identical": same,
                          "counts": counts_a}))
        if not same:
            print(json.dumps({"outputs": [out_a, out_b], "counts": [counts_a, counts_b]}),
                  file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
