#!/usr/bin/env python3
"""Record the CLI's stdout hashes and exit codes over the bundled fixtures.

Each invocation runs in-process through click's ``CliRunner``; the snapshot
keeps its arguments, exit code and the sha256 of its stdout.  The default
snapshot file is ``tests/data/cli_snapshot.json``, which the tier-1 test
``test_cli_snapshot_replays`` replays.

    python scripts/cli_snapshot.py [--out PATH]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner

from cubeburnside.cli import main as cli
from cubeburnside.corpus import list_fixtures

DEFAULT_OUT = ROOT / "tests" / "data" / "cli_snapshot.json"


def invocations() -> list[list[str]]:
    """Every bundled fixture through the JSON form of each command."""
    runs = []
    for name in list_fixtures("pd"):
        runs.append(["kh", "homology", name, "--json"])
        runs.append(["kh", "homology", name, "--json", "--reduced", "--basepoint", "1"])
        runs.append(["kh", "verify", name, "--json"])
    runs += [["functor", "check", name, "--json"] for name in list_fixtures("functors")]
    runs += [["functor", "search-matchings", name, "--json"]
             for name in list_fixtures("functors")]
    runs += [["functor", "certificate", name, "--json"]
             for name in list_fixtures("certificates")]
    runs += [["delta", "homology", name, "--json"] for name in list_fixtures("delta")]
    runs.append(["examples", "run", "--json"])
    return runs


def run(args: list[str]) -> dict:
    res = CliRunner().invoke(cli, args, catch_exceptions=False)
    return {"args": args, "exit_code": res.exit_code,
            "stdout_sha256": hashlib.sha256(res.stdout_bytes).hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    opts = ap.parse_args()
    records = [run(args) for args in invocations()]
    opts.out.parent.mkdir(parents=True, exist_ok=True)
    opts.out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} invocations to {opts.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
