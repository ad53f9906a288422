"""Sweep runner: parallel determinism, cache integration, streaming order."""

from __future__ import annotations

import threading
import time

import pytest

from repro.orchestration.runner import pool_map_ordered
from repro.orchestration import (
    GraphSpec,
    ResultCache,
    ScenarioSpec,
    SolverSpec,
    SweepCell,
    SweepRunner,
    expand_cells,
    records_to_bytes,
    register_scenario,
    unregister_scenario,
)

SMOKE = ["smoke/forest", "smoke/mixed"]


class TestExpandCells:
    def test_deterministic_cross_product_order(self):
        cells = expand_cells(["a", "b"], [0, 1], ["batched", "reference"])
        assert cells[0] == SweepCell("a", 0, "batched")
        assert cells[1] == SweepCell("a", 0, "reference")
        assert cells[2] == SweepCell("a", 1, "batched")
        assert len(cells) == 8

    def test_default_engine(self):
        (cell,) = expand_cells(["a"], [3])
        assert cell.engine == "batched"


class TestDeterminism:
    def test_parallel_sweep_matches_serial_byte_for_byte(self):
        serial = SweepRunner(cache=None, workers=1).sweep(SMOKE, seeds=[0, 1])
        parallel = SweepRunner(cache=None, workers=3).sweep(SMOKE, seeds=[0, 1])
        assert [r.cell for r in serial] == [r.cell for r in parallel]
        for s, p in zip(serial, parallel):
            assert records_to_bytes(s.records) == records_to_bytes(p.records), s.cell
        assert not any(r.from_cache for r in parallel)

    def test_engines_produce_identical_records(self):
        both = SweepRunner(cache=None, workers=1).sweep(
            ["smoke/forest"], seeds=[0], engines=["batched", "reference"]
        )
        assert len(both) == 2
        assert records_to_bytes(both[0].records) == records_to_bytes(both[1].records)
        # ... but live under different cache keys.
        assert both[0].key != both[1].key


class TestCacheIntegration:
    def test_second_sweep_is_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepRunner(cache=cache, workers=1).sweep(SMOKE, seeds=[0, 1])
        assert not any(r.from_cache for r in first)

        rerun_cache = ResultCache(tmp_path)
        second = SweepRunner(cache=rerun_cache, workers=1).sweep(SMOKE, seeds=[0, 1])
        # Acceptance bar is >= 90% served from cache; determinism makes it 100%.
        assert all(r.from_cache for r in second)
        assert rerun_cache.stats.hit_rate == 1.0
        for a, b in zip(first, second):
            assert records_to_bytes(a.records) == records_to_bytes(b.records)

    def test_parallel_and_serial_share_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, workers=3).sweep(SMOKE, seeds=[0, 1])
        followup = SweepRunner(cache=ResultCache(tmp_path), workers=1).sweep(
            SMOKE, seeds=[0, 1]
        )
        assert all(r.from_cache for r in followup)

    def test_partial_cache_only_recomputes_missing_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, workers=1).sweep(SMOKE, seeds=[0])
        mixed = SweepRunner(cache=ResultCache(tmp_path), workers=1).sweep(SMOKE, seeds=[0, 1])
        by_seed = {(r.scenario, r.seed): r.from_cache for r in mixed}
        assert by_seed[("smoke/forest", 0)] is True
        assert by_seed[("smoke/forest", 1)] is False

    def test_spec_change_invalidates(self, tmp_path):
        def make(n):
            return ScenarioSpec(
                name="test/invalidate",
                experiment="TEST",
                description="",
                graphs=[GraphSpec("random-tree", {"n": n}, alpha=1)],
                solvers=[SolverSpec("deterministic", params={"epsilon": 0.5})],
            )

        try:
            register_scenario(make(12))
            cache = ResultCache(tmp_path)
            (first,) = SweepRunner(cache=cache, workers=1).sweep(["test/invalidate"])
            assert not first.from_cache

            (hit,) = SweepRunner(cache=cache, workers=1).sweep(["test/invalidate"])
            assert hit.from_cache

            register_scenario(make(13), replace=True)
            (miss,) = SweepRunner(cache=cache, workers=1).sweep(["test/invalidate"])
            assert not miss.from_cache
            assert miss.key != first.key
            assert miss.spec_hash != first.spec_hash
        finally:
            unregister_scenario("test/invalidate")

    def test_no_cache_runner_never_writes(self, tmp_path):
        runner = SweepRunner(cache=None, workers=1)
        results = runner.sweep(["smoke/forest"], seeds=[0])
        assert not results[0].from_cache
        assert not list(tmp_path.iterdir())


class TestStreaming:
    def test_results_stream_in_submission_order(self, tmp_path):
        cells = expand_cells(SMOKE, [0, 1])
        runner = SweepRunner(cache=ResultCache(tmp_path), workers=2)
        seen = [result.cell for result in runner.run_cells(cells)]
        assert seen == cells

    def test_unknown_scenario_fails_fast(self):
        runner = SweepRunner(cache=None, workers=1)
        with pytest.raises(KeyError, match="unknown scenario"):
            list(runner.run_cells([SweepCell("test/does-not-exist", 0, "batched")]))


def _pool_square(job):
    return job * job


def _pool_sleep(job):
    time.sleep(job)
    return job


#: ``None`` submits every job upfront; 1 and 2 cap the jobs in flight.
WINDOWS = [None, 1, 2]


class TestPoolMapOrdered:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_inline_and_pooled_yield_in_submission_order(self, window):
        jobs = [3, 1, 2, 0]
        inline = [r for r, _ in pool_map_ordered(_pool_square, jobs, workers=1, window=window)]
        pooled = [r for r, _ in pool_map_ordered(_pool_square, jobs, workers=2, window=window)]
        assert inline == pooled == [9, 1, 4, 0]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_durations_are_reported(self, window):
        [(result, duration)] = list(pool_map_ordered(_pool_square, [5], workers=4, window=window))
        assert result == 25
        assert duration >= 0.0

    def test_zero_window_is_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            next(pool_map_ordered(_pool_square, [1, 2], workers=1, window=0))

    def test_window_draws_jobs_lazily(self):
        # A bounded window pulls the next job only after the consumer has
        # taken a result: an adaptive job source sees each completion first.
        drawn = []

        def source():
            for job in range(5):
                drawn.append(job)
                yield job

        stream = pool_map_ordered(_pool_square, source(), workers=1, window=2)
        assert next(stream)[0] == 0
        assert drawn == [0, 1]
        assert next(stream)[0] == 1
        assert drawn == [0, 1, 2]
        assert [result for result, _ in stream] == [4, 9, 16]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_abandoned_pooled_stream_does_not_wait_for_queued_jobs(self, window):
        # Six 2-second jobs on two workers: a full drain costs >= 6s.  A
        # consumer that stops after the first result must not be held
        # hostage by the queued jobs -- close() cancels what has not
        # started and returns without waiting for the rest.
        jobs = [2.0] * 6
        threads_before = set(threading.enumerate())
        start = time.perf_counter()
        stream = pool_map_ordered(_pool_sleep, jobs, workers=2, window=window)
        first, _ = next(stream)
        stream.close()
        elapsed = time.perf_counter() - start
        assert first == 2.0
        assert elapsed < 5.0, f"early close waited {elapsed:.1f}s for abandoned jobs"
        # The abandoned pool winds down in the background: its running jobs
        # finish, then its manager thread joins the workers and exits.  Wait
        # for that (with a deadline), so later tests that measure this
        # process's memory do not overlap the shutdown.
        deadline = time.monotonic() + 30.0
        for thread in set(threading.enumerate()) - threads_before:
            thread.join(max(0.0, deadline - time.monotonic()))
