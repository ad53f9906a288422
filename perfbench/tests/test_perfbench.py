"""The benchmark's own tests: tiny runs of every workload.

They check that each run prints exactly the metrics BENCHMARK.json lists,
with the same units, that a wrong result counts as a failed op, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import common, kernel  # noqa: E402
from perfbench.spans import SpanTree  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("kernel-ba", 0), ("kernel-faulted", 1), ("serve-mix", 1), ("sweep-batched", 0)],
)
def test_printed_metrics_match_benchmark_json(workload, trace):
    assert workload in {entry["name"] for entry in BENCHMARK["workloads"]}
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for entry in listed:
        assert f"metric {entry['name']} = " in done.stdout


def test_wrong_result_counts_as_failed(monkeypatch):
    from repro.run.session import Session

    original = Session.run
    calls = []

    def drop_a_node(self, spec, **kwargs):
        result = original(self, spec, **kwargs)
        calls.append(1)
        if len(calls) % 3 == 0:
            result.dominating_set = set(result.dominating_set)
            result.dominating_set.pop()
        return result

    monkeypatch.setattr(Session, "run", drop_a_node)
    common.WORK.mkdir(exist_ok=True)
    report = common.Report()
    kernel.run("kernel-ba", 3, 0.2, False, "tiny", report, 0.0)
    tally = report.tally
    assert 0 < tally.failed < tally.attempted
    assert report.result_line()["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("kernel-ba", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_excludes_children():
    spans = [
        {"id": 1, "parent": None, "name": "op", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "a", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "b", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "name": "c", "start": 1.0, "end": 2.0},
    ]
    tree = SpanTree(spans)
    assert tree.self_time(spans[0]) == pytest.approx(5.0)
    assert tree.self_time(spans[1]) == pytest.approx(2.0)
    assert tree.total(spans[0], "c") == pytest.approx(1.0)


def test_quantile_reports_samples_beyond():
    assert common.quantile(list(range(1, 22)), 0.5) == (11.0, 21, 10)
    assert common.quantile(list(range(1, 101)), 0.9) == (90.0, 100, 10)


def test_pinned_mismatch_marks_the_run_incorrect():
    report = common.Report()
    report.tally.record([], "op")
    report.pin({"digest": "a", "counts": {"kernels.rounds": 1}}, "a", {"kernels.rounds": 1})
    assert report.result_line()["correct"] is True
    report.pin({"digest": "a", "counts": {"kernels.rounds": 1}}, "b", {"kernels.rounds": 2})
    assert report.result_line()["correct"] is False
