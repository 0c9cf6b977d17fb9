"""Time two checkouts of the program against each other in paired runs.

Runs ``perfbench/run.py --trace 0`` of one workload in a parent and a
change checkout, one pair per seed, alternating which side runs first
(the parent in the first pair, the change in the second, and so on).
Each run lasts ``BENCHMARK.json``'s ``run_seconds``.
For every end-to-end metric ``BENCHMARK.json`` declares it prints each
side's median and quartiles, the number of pairs the change won (ties
count for neither) and a verdict:

``gain``
    at least ten pairs, the change wins at least nine tenths of them,
    and the medians differ by more than the parent's interquartile
    range;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's interquartile range is wider than the bound, so the
    runs cannot tell, unless every change run beats every parent run;
``within bound``
    otherwise.

It exits 1 when a run reports ``correct: false`` or when the change's
runs fail more operations than the parent's (``failed`` summed over
each side's runs).

Usage, from the root of a checkout::

    python3 benchmarks/perfbench_pairs.py --parent ../parent --change . \\
        --workload commute --seeds 101-110
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Pairs below which no gain is claimed.
MIN_PAIRS = 10
#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: Sequence[float], change: Sequence[float],
         higher: bool) -> int:
    """Pairs in which the change reads strictly better."""
    return sum((c > p) if higher else (c < p)
               for p, c in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float], higher: bool,
            bound: float) -> str:
    """The verdict on one metric, from paired runs in pair order.

    ``higher`` says whether a larger value is better; ``bound`` is the
    relative worsening the metric may take (BENCHMARK.json's bound).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gap = (c_med - p_med) if higher else (p_med - c_med)
    if (len(parent) >= MIN_PAIRS
            and wins(parent, change, higher) >= WIN_SHARE * len(parent)
            and gap > p_q3 - p_q1):
        return "gain"
    if -gap > bound * abs(p_med):
        return "worse"
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "within bound"


def parse_seeds(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> Tuple[Dict[str, object], List[str]]:
    """One ``--trace 0`` run of ``perfbench/run.py`` in ``checkout``: its
    result (the final JSON line) and every line it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def table(metrics: List[Dict[str, object]],
          runs: Dict[str, List[Dict[str, object]]]) -> List[str]:
    """One row per end-to-end metric: medians, quartiles, wins, verdict."""
    n = len(runs["parent"])
    lines = [f"{'metric':<26} {'parent median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'change':>8} "
             f"{'wins':>6}  verdict"]
    for spec in metrics:
        name = spec["name"]
        higher = spec["better"] == "higher"
        parent, change = ([r["metrics"][name]["value"] for r in runs[s]]
                          for s in ("parent", "change"))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        delta = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
        lines.append(
            f"{name:<26} {f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>30} "
            f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>30} {delta:>8} "
            f"{wins(parent, change, higher):>3}/{n:<2}  "
            f"{verdict(parent, change, higher, spec['bound'])}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed: A-B inclusive, or one seed")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, _ = run_once(getattr(args, side), args.workload, seed,
                                 seconds)
            runs[side].append(result)
            values = {m["name"]: result["metrics"][m["name"]]["value"]
                      for m in metrics}
            print(f"# pair {i + 1} seed {seed} {side}: correct="
                  f"{result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {json.dumps(values)}", flush=True)
            if not result["correct"]:
                print(f"{side} seed {seed}: incorrect answers",
                      file=sys.stderr)
                return 1
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"--seconds {seconds:g}: {len(args.seeds)} pairs")
    for line in table(metrics, runs):
        print(line)
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    if failed["change"] > failed["parent"]:
        print(f"the change failed {failed['change']} operations, the parent "
              f"{failed['parent']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
