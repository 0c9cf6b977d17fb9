"""The repository's benchmark: one seeded run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 12 --trace 0

Workloads (parameters in ``perfbench/workloads.py``, rationale and
metric declarations in ``BENCHMARK.json``): ``commute``, ``hotspot``,
``churn`` and ``reverse``.  The program is
the ``repro`` package under ``src/`` of the same checkout, driven only
through its public API.

``--trace 0`` measures the end-to-end metrics: the stack is set up
``setup_repeats`` times (``setup_s`` is the median), then the seeded
crowd runs in a closed loop for ``--seconds`` seconds of work, and at
least the workload's ``count_updates``, over which the protocol counts
are taken, so they repeat exactly for a seed.  ``--trace 1``
runs the ``count_updates`` prefix twice on fresh stacks, untraced and
then with every layer's entry point wrapped, and reports the per-layer
table plus ``harness.trace_overhead`` (traced / untraced time in the
program).

Timings, set-up included, are in reference-speed time (see
``perfbench/session.py``): on a shared virtual CPU the raw clock drifts
too much between runs to compare two versions of the program.  The
loop's timings are medians over blocks of the run.

Every run checks a deterministic sample of answers against the query
kinds' brute-force oracles.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Hard limit on one run's wall time (seconds); loops stop at it.
_RUN_BUDGET_S = 165.0
#: Speed probes taken before and after each set-up to scale its time,
#: each the best of three.  Probes at its two ends cannot tell how a
#: set-up's seconds split between the CPU's two speeds, so a set-up is
#: scaled by the fast one alone, which the best of three finds.
_SETUP_PROBES = 5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One run; prints the record and table, returns the JSON result."""
    from perfbench import report

    deadline = perf_counter() + _RUN_BUDGET_S
    print("# env " + json.dumps(report.environment(ROOT, workload)))
    print("# workload " + json.dumps(workload.params()))
    if trace:
        sessions, metrics, rows = _traced(workload, seed, deadline)
    else:
        sessions, metrics, rows = _untraced(workload, seed, seconds, deadline)
    for line in report.table(rows):
        print(line)
    for s in sessions:
        q = statistics.quantiles(s.scales, n=10)
        print(f"# speed scale (reference s per wall s) median "
              f"{statistics.median(s.scales):.3f}, p10 {q[0]:.3f}, "
              f"p90 {q[8]:.3f}")
        print(f"# checked {dict(s.checked)} incorrect={len(s.incorrect)} "
              f"failed={s.failed}/{s.attempted} errors={dict(s.errors)}")
        for problem in s.incorrect[:10]:
            print(f"# incorrect {problem}")
    checked = sum(sum(s.checked.values()) for s in sessions)
    return {
        "correct": checked > 0 and not any(s.incorrect for s in sessions),
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": metrics,
    }


def _setup(workload, repeats: int):
    """Set up ``repeats`` times; returns the times, in reference-speed
    seconds like every other timing, and the last stack."""
    from perfbench.session import REFERENCE_PROBE_S
    from perfbench.workloads import build_stack

    times = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack[1].close()
            stack = None
        gc.collect()
        probes = [_best_probe() for _ in range(_SETUP_PROBES)]
        start = perf_counter()
        stack = build_stack(workload)
        took = perf_counter() - start
        probes += [_best_probe() for _ in range(_SETUP_PROBES)]
        times.append(took * REFERENCE_PROBE_S / statistics.median(probes))
    return times, stack


def _best_probe() -> float:
    from perfbench.session import speed_probe

    return min(speed_probe() for _ in range(3))


def _pass(workload, seed: int, stack, seconds: float, deadline: float):
    from perfbench.session import Session

    session = Session(workload, seed, *stack)
    session.run(seconds, workload.count_updates, deadline)
    return session


def _untraced(workload, seed: int, seconds: float, deadline: float):
    from perfbench import report
    from perfbench.session import tail_quantile

    times, stack = _setup(workload, workload.setup_repeats)
    session = _pass(workload, seed, stack, seconds, deadline)
    session.close()
    values = report.end_to_end(workload, session, times)
    n = len(session.server_latency)
    tail = report.tail_blocks(n)
    notes = {
        "updates_per_s": f"median of {report.BLOCKS} blocks after a warm-up "
                         f"block, {len(session.cum_busy)} updates",
        "server_p50_ms": f"median of {report.BLOCKS} block medians, {n} "
                         "server updates",
        "server_p90_ms": f"median of {report.BLOCKS} block p90s",
        "server_p99_ms": f"median of {tail} block p"
                         f"{100 * tail_quantile(n // (tail + 1)):.3g}s, {n} "
                         "server updates",
        "over_limit_ratio": f"limit {workload.latency_limit_ms:g} ms",
        "setup_s": f"median of {len(times)} set-ups",
    }
    rows = [(name, values[name], unit, notes.get(name, report.MEANING[name]))
            for name, unit in report.END_TO_END + report.TABLE_ONLY]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in report.END_TO_END}
    return [session], metrics, rows


def _traced(workload, seed: int, deadline: float):
    from perfbench import report
    from perfbench.tracer import Tracer, installed_wrappers

    half = perf_counter() + (deadline - perf_counter()) / 2.0
    _, stack = _setup(workload, 1)
    plain = _pass(workload, seed, stack, 0.0, half)
    plain.close()
    _, stack = _setup(workload, 1)
    tracer = Tracer()
    with tracer:
        traced = _pass(workload, seed, stack, 0.0, deadline)
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracer wrappers left installed: {left}")
    overhead = traced.busy / plain.busy if plain.busy else 0.0
    values = report.per_layer(workload, traced, tracer, overhead)
    traced.close()
    absent = ", ".join(t.label for t in tracer.absent)
    rows = [(name, values[name], unit, "") for name, unit in report.PER_LAYER]
    if absent:
        rows.append(("absent targets", None, "", absent))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in report.PER_LAYER}
    return [plain, traced], metrics, rows


if __name__ == "__main__":
    sys.exit(main())
