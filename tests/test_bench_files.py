"""The committed benchmark records: every ``BENCH_*.json`` at the repository
root parses and holds both sides of its comparison.

A record holds, for every run of ``perfbench/run.py`` it reports, the run's
workload, seed, side (``parent`` or ``change``) and place in the order of
runs, with the ``fingerprint`` line and the final JSON that run printed.
Every (workload, seed) pair is run on both sides, so each claim rests on
alternated pairs of runs and not on one side's numbers alone.  Workloads
and end-to-end metrics are the ones ``BENCHMARK.json`` declares.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = {"parent", "change"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def test_the_benchmark_declares_workloads_and_metrics():
    assert WORKLOADS and METRICS


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_holds_both_sides_of_every_pair(path):
    record = json.loads(path.read_text())
    assert record["parent"] and record["command"] and record["conditions"]
    runs = record["runs"]
    assert [run["order"] for run in runs] == list(range(1, len(runs) + 1))
    for run in runs:
        assert run["side"] in SIDES, run["order"]
        assert run["workload"] in WORKLOADS, run["order"]
        assert isinstance(run["seed"], int) and isinstance(run["fingerprint"], dict)
        result = run["result"]
        assert isinstance(result["correct"], bool), run["order"]
        assert METRICS <= set(result["metrics"]), run["order"]
        assert all(isinstance(metric["value"], (int, float))
                   for metric in result["metrics"].values()), run["order"]
    pairs = Counter((run["workload"], run["seed"], run["side"]) for run in runs)
    for workload, seed, _ in pairs:
        assert all(pairs[workload, seed, side] == 1 for side in SIDES), (workload, seed)
    claimed = record["claim"]
    assert claimed["workload"] in WORKLOADS
    assert any(run["workload"] == claimed["workload"] for run in runs)
    assert claimed["metric"] in METRICS
