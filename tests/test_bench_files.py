"""The committed benchmark records, BENCH_*.json at the repo root.

Each record compares a change with its parent, measured in one session by
bench/run.py.  It names the machine and both commits, and for each side,
workload and metric gives the number of runs with their median, min and
max, in names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RECORDS = sorted(REPO.glob("BENCH_*.json"))
MACHINE = {
    "nproc", "python", "numpy", "blas", "avx512f", "PYTHONDONTWRITEBYTECODE",
    "parent_sha", "change_sha",
}
SIDES = {"parent", "change"}


def _declared() -> tuple[set[str], set[str]]:
    """The workload names and metric names BENCHMARK.json declares."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {w["name"] for w in spec["workloads"]}, metrics


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    doc = json.loads(path.read_text())
    assert MACHINE <= set(doc["machine"]), sorted(MACHINE - set(doc["machine"]))
    assert set(doc["sides"]) == SIDES
    workloads, metrics = _declared()
    parent, change = (doc["sides"][s] for s in ("parent", "change"))
    assert parent.keys() == change.keys() and parent
    for side in (parent, change):
        for workload, entry in side.items():
            assert workload in workloads, workload
            assert isinstance(entry["report_sha256"], str) and entry["report_sha256"]
            assert entry["metrics"].keys() == parent[workload]["metrics"].keys()
            for metric, stats in entry["metrics"].items():
                assert metric in metrics, metric
                assert stats["n"] >= 5, (workload, metric)
                assert stats["min"] <= stats["median"] <= stats["max"], (workload, metric)


def test_there_is_a_bench_record():
    assert RECORDS
