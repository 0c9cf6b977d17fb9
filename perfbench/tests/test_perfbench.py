"""The benchmark's own tests: tiny runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import report  # noqa: E402
from perfbench.run import run  # noqa: E402
from perfbench.tracer import installed_wrappers  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402


def _tiny_run(name: str, trace: bool = False, seed: int = 7) -> dict:
    # seconds=0: the run is exactly the count window, so it repeats.
    return run(tiny(WORKLOADS[name]), seed, 0.0, trace)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name, capsys):
    result = _tiny_run(name)
    out = capsys.readouterr().out
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m[0] for m in report.END_TO_END}
    for metric, unit in report.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0, metric
    rows = {line.split()[0]: line.split() for line in out.splitlines()
            if line.startswith("  ")}
    for metric, unit in report.END_TO_END + report.TABLE_ONLY:
        assert rows[metric][2] == unit, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_counts_repeat(name):
    first = _tiny_run(name)
    second = _tiny_run(name)
    assert first["attempted"] == second["attempted"]
    for metric in ("server_queries_per_update", "bytes_per_update",
                   "node_accesses_per_query"):
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_unwraps(name):
    result = _tiny_run(name, trace=True)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in report.PER_LAYER}
    for metric, unit in report.PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] is not None, metric
    assert result["metrics"]["harness.trace_overhead"]["value"] > 0
    assert installed_wrappers() == []


def test_traced_layers_match_the_workload_stacks():
    commute = _tiny_run("commute", trace=True)["metrics"]
    assert commute["core.knn_ms"]["value"] > 0
    for idle in ("cache.probe_ms", "shard.self_ms", "replica.self_ms",
                 "continuous.notify_ms"):
        assert commute[idle]["value"] == 0, idle
    churn = _tiny_run("churn", trace=True)["metrics"]
    for busy in ("cache.invalidate_ms", "shard.self_ms",
                 "replica.replicate_ms", "continuous.notify_ms"):
        assert churn[busy]["value"] > 0, busy
    assert churn["kernel.columns_builds"]["value"] > 1


def test_check_every_must_reach_every_client_slot():
    # 9 reverse clients: checking every 3rd update would only ever
    # sample slots 0, 3 and 6.
    with pytest.raises(ValueError, match="unchecked"):
        replace(WORKLOADS["reverse"], check_every=3)


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "commute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
