"""benchmarks/perfbench_pairs.py: its verdict on canned runs, and the
whole script on stand-in checkouts whose ``perfbench/run.py`` prints
canned results."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PAIRS = os.path.join(REPO, "benchmarks", "perfbench_pairs.py")


def _load_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()

#: Ten parent set-up times (s): median 3.535, quartiles 3.4475 and 3.6475.
PARENT = [3.42, 3.55, 3.61, 3.38, 3.76, 3.47, 3.66, 3.52, 3.71, 3.44]


def test_a_clear_fall_in_a_lower_is_better_metric_is_a_gain():
    change = [1.9, 2.0, 1.95, 1.83, 2.05, 1.88, 1.97, 1.92, 2.01, 1.86]
    assert pairs.verdict(PARENT, change, higher=False, bound=0.25) == "gain"


def test_a_rise_in_a_higher_is_better_metric_is_a_gain():
    parent = [100.0 + i for i in range(10)]
    change = [p + 20.0 for p in parent]
    assert pairs.verdict(parent, change, higher=True, bound=0.25) == "gain"


def test_eight_wins_in_ten_are_no_gain():
    change = [p - 1.0 for p in PARENT]
    change[0] = change[1] = 9.0
    assert pairs.wins(PARENT, change, higher=False) == 8
    assert pairs.verdict(PARENT, change, higher=False,
                         bound=0.25) == "within bound"


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 1.0
    assert pairs.wins(PARENT, change, higher=False) == 1
    assert pairs.verdict(PARENT, change, higher=False,
                         bound=0.25) == "within bound"


def test_a_gap_inside_the_parents_spread_is_no_gain():
    """Ten wins, but by less than the parent's interquartile range."""
    change = [p - 0.1 for p in PARENT]
    q1, _, q3 = pairs.quartiles(PARENT)
    assert q3 - q1 > 0.1
    assert pairs.wins(PARENT, change, higher=False) == 10
    assert pairs.verdict(PARENT, change, higher=False,
                         bound=0.25) == "within bound"


def test_fewer_than_ten_pairs_claim_no_gain():
    parent, change = PARENT[:9], [1.9] * 9
    assert pairs.verdict(parent, change, higher=False,
                         bound=0.25) == "within bound"


def test_a_median_beyond_the_bound_is_worse():
    change = [p * 1.3 for p in PARENT]
    assert pairs.verdict(PARENT, change, higher=False, bound=0.25) == "worse"
    parent = [250.0, 249.9, 250.1]
    assert pairs.verdict(parent, [263.0, 262.5, 263.5], higher=False,
                         bound=0.05) == "worse"
    assert pairs.verdict([400.0, 410.0, 405.0], [290.0, 300.0, 295.0],
                         higher=True, bound=0.25) == "worse"


def test_a_median_inside_the_bound_is_within_it():
    assert pairs.verdict([250.0, 249.9, 250.1], [255.0, 254.5, 255.5],
                         higher=False, bound=0.05) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.5]  # quartiles 1.25 and 1.75: 33% of 1.5
    assert pairs.verdict(parent, [1.6, 1.7, 1.4], higher=False,
                         bound=0.25) == "unresolved"


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [1.0, 2.0, 1.5]
    assert pairs.verdict(parent, [0.9, 0.8, 0.95], higher=False,
                         bound=0.25) == "within bound"


def test_a_single_pair_has_no_spread():
    assert pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert pairs.verdict([4.0], [4.5], higher=False,
                         bound=0.25) == "within bound"


def test_mismatched_or_empty_runs_raise():
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0], higher=False, bound=0.25)
    with pytest.raises(ValueError):
        pairs.verdict([], [], higher=False, bound=0.25)


def test_seed_ranges():
    assert pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert pairs.parse_seeds("7") == [7]


# --- the whole script, on stand-in checkouts ------------------------------

_FAKE_RUN = '''
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
seconds = sys.argv[sys.argv.index("--seconds") + 1]
with open({log!r}, "a") as fh:
    fh.write({side!r} + " " + str(seed) + " " + seconds + "\\n")
values = dict({values!r}, setup_s={setup!r} + seed / 1000.0)
print("# table")
print(json.dumps({{"correct": {correct!r}, "attempted": 100,
                  "failed": {failed!r}, "metrics": {{
    name: {{"value": value, "unit": ""}}
    for name, value in values.items()}}}}))
'''


def _checkout(tmp_path, side, setup, correct=True, failed=0):
    names = [m["name"] for m in json.loads(
        (pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    root = tmp_path / side
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN.format(
        log=str(tmp_path / "order.log"), side=side,
        values={name: 1.0 for name in names}, setup=setup,
        correct=correct, failed=failed))
    return str(root)


def _main(tmp_path, capsys, **change):
    code = pairs.main([
        "--parent", _checkout(tmp_path, "parent", 3.0),
        "--change", _checkout(tmp_path, "change", 1.8, **change),
        "--workload", "commute", "--seeds", "5-6"])
    return code, capsys.readouterr()


def test_the_sides_alternate_and_every_metric_is_printed(tmp_path, capsys):
    """Each run lasts the benchmark's own run length."""
    code, out = _main(tmp_path, capsys)
    assert code == 0
    seconds = json.loads(
        (pairs.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert (tmp_path / "order.log").read_text().split("\n") == [
        f"{side} {seed} {seconds}" for side, seed in (
            ("parent", 5), ("change", 5), ("change", 6), ("parent", 6))
    ] + [""]
    rows = {line.split()[0]: line for line in out.out.splitlines()
            if line and not line.startswith("#")}
    for spec in json.loads(
            (pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        assert spec["name"] in rows
    assert "-39.9%" in rows["setup_s"] and "2/2" in rows["setup_s"]
    assert rows["setup_s"].endswith("within bound")  # two pairs: no gain


def test_an_incorrect_run_fails(tmp_path, capsys):
    code, out = _main(tmp_path, capsys, correct=False)
    assert code == 1
    assert "incorrect answers" in out.err


def test_more_failed_operations_on_the_change_fail(tmp_path, capsys):
    code, out = _main(tmp_path, capsys, failed=2)
    assert code == 1
    assert "the change failed 4 operations, the parent 0" in out.err
