"""Gate perfbench's protocol counts against the committed record.

Over a workload's fixed ``count_updates`` prefix, a ``--seconds 0
--trace 0`` run of ``perfbench/run.py`` takes three protocol counts
(``server_queries_per_update``, ``bytes_per_update`` and
``node_accesses_per_query``) that repeat exactly for a seed, unlike its
timings.  ``benchmarks/perfbench_counts.json`` holds them, with each
run's ``correct`` and ``failed``, for every workload at seeds 1-3, and
the Python and numpy versions that recorded them.

This script reruns those runs and prints every value that differs from
the record; it exits 1 on any difference.  A change that moves a count
on purpose re-records the file with ``--write`` and says why.

Usage, from the root of a checkout::

    python3 benchmarks/check_perfbench_counts.py
    python3 benchmarks/check_perfbench_counts.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench_pairs import run_once

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "perfbench_counts.json"

WORKLOADS = ("commute", "hotspot", "churn", "reverse")
SEEDS = (1, 2, 3)
COUNTS = ("server_queries_per_update", "bytes_per_update",
          "node_accesses_per_query")


def run_counts(workload: str, seed: int) -> Tuple[Dict[str, object],
                                                  Dict[str, object]]:
    """One ``--seconds 0 --trace 0`` run: its counts, ``correct`` and
    ``failed``, and the environment line it printed."""
    result, lines = run_once(ROOT, workload, seed, 0)
    env = next(json.loads(line[len("# env "):]) for line in lines
               if line.startswith("# env "))
    counts: Dict[str, object] = {
        name: result["metrics"][name]["value"] for name in COUNTS}
    counts["correct"] = result["correct"]
    counts["failed"] = result["failed"]
    return counts, env


def measure() -> Tuple[Dict[str, Dict[str, Dict[str, object]]],
                       Dict[str, object]]:
    runs: Dict[str, Dict[str, Dict[str, object]]] = {}
    env: Dict[str, object] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            counts, env = run_counts(workload, seed)
            runs.setdefault(workload, {})[str(seed)] = counts
            print(f"{workload} seed {seed}: {json.dumps(counts)}",
                  flush=True)
    return runs, env


def differences(want: Dict[str, Dict[str, Dict[str, object]]],
                got: Dict[str, Dict[str, Dict[str, object]]]) -> List[str]:
    out = []
    for workload in WORKLOADS:
        for seed in map(str, SEEDS):
            recorded = want.get(workload, {}).get(seed, {})
            for name, value in got[workload][seed].items():
                if recorded.get(name) != value:
                    out.append(f"{workload} seed {seed} {name}: recorded "
                               f"{recorded.get(name)!r}, now {value!r}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="re-record the file instead of checking it")
    args = parser.parse_args(argv)
    if not args.write and not RECORD.is_file():
        print(f"no record at {RECORD}; run with --write", file=sys.stderr)
        return 2
    runs, env = measure()
    if args.write:
        record = {"python": env["python"], "numpy": env["numpy"],
                  "command": "perfbench/run.py --seconds 0 --trace 0",
                  "runs": runs}
        RECORD.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {RECORD.relative_to(ROOT)}")
        return 0
    record = json.loads(RECORD.read_text())
    for key in ("python", "numpy"):
        if record[key] != env[key]:
            print(f"note: recorded with {key} {record[key]}, running "
                  f"{env[key]}")
    diffs = differences(record["runs"], runs)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} count(s) differ from "
              f"{RECORD.relative_to(ROOT)}")
        return 1
    print(f"all {len(WORKLOADS) * len(SEEDS)} runs match "
          f"{RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
