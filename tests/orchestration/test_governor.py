"""Budget governor: estimator monotonicity, admission, skips, parity."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.orchestration.cache import ResultCache, records_to_bytes
from repro.orchestration.governor import (
    PeakHoldEstimator,
    SweepBudget,
    SweepGovernor,
)
from repro.orchestration.runner import SweepBudget as ReexportedBudget
from repro.orchestration.runner import SweepCell, SweepRunner, aggregate_skips, expand_cells
from repro.orchestration.scenarios import register_builtin_scenarios


@pytest.fixture(autouse=True)
def _scenarios():
    register_builtin_scenarios()


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def cell(scenario="s", seed=0, engine="batched") -> SweepCell:
    return SweepCell(scenario=scenario, seed=seed, engine=engine)


class TestSweepBudget:
    def test_reexported_from_runner(self):
        assert ReexportedBudget is SweepBudget

    def test_all_none_is_unbounded(self):
        assert not SweepBudget().bounded
        assert SweepBudget(seconds=1.0).bounded
        assert SweepBudget(bytes=1).bounded
        assert SweepBudget(cell_max_rss_kb=1).bounded

    @pytest.mark.parametrize("field", ["seconds", "bytes", "cell_max_rss_kb"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_limits_rejected(self, field, bad):
        with pytest.raises(ValueError, match="must be positive"):
            SweepBudget(**{field: bad})

    def test_wire_round_trip(self):
        budget = SweepBudget(seconds=2.5, bytes=1024, cell_max_rss_kb=4096)
        assert SweepBudget.from_dict(budget.as_dict()) == budget

    def test_wire_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown budget fields"):
            SweepBudget.from_dict({"seconds": 1.0, "minutes": 2})

    def test_describe(self):
        assert SweepBudget().describe() == "unbounded"
        assert "wall" in SweepBudget(seconds=3).describe()


class TestPeakHoldEstimator:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=0, max_value=10**12),
            ),
            max_size=50,
        )
    )
    def test_estimates_are_monotone_under_any_stream(self, stream):
        estimator = PeakHoldEstimator()
        high = (0.0, 0, 0)
        for fresh, elapsed, rss, bits in stream:
            feed = estimator.observe if fresh else estimator.seed
            feed("k", elapsed_s=elapsed, maxrss_kb=rss, bits=bits)
            current = (
                estimator.elapsed_s("k"),
                estimator.maxrss_kb("k"),
                estimator.bits("k"),
            )
            assert current >= high
            high = current

    def test_seed_is_advisory_observe_is_fresh(self):
        estimator = PeakHoldEstimator()
        estimator.seed("k", maxrss_kb=500)
        assert not estimator.rss_is_fresh("k")
        estimator.observe("k", maxrss_kb=100)
        assert estimator.rss_is_fresh("k")
        # A later advisory seed cannot demote fresh evidence.
        estimator.seed("k", maxrss_kb=900)
        assert estimator.rss_is_fresh("k")
        assert estimator.maxrss_kb("k") == 900


class TestGovernorAdmission:
    def test_unbounded_budget_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            SweepGovernor(SweepBudget())

    def test_wall_clock_exhaustion_drains_everything_pending(self):
        clock = FakeClock()
        governor = SweepGovernor(SweepBudget(seconds=10), clock=clock)
        governor.schedule([cell(seed=s) for s in range(4)])
        assert governor.next_cell() == cell(seed=0)
        clock.now = 11.0
        assert governor.next_cell() is None
        skips = governor.drain_skips()
        assert [c.seed for c, _ in skips] == [1, 2, 3]
        assert all("wall-clock budget exhausted" in reason for _, reason in skips)
        assert governor.skipped_count() == 3

    def test_byte_exhaustion(self):
        governor = SweepGovernor(SweepBudget(bytes=10), clock=FakeClock())
        governor.schedule([cell(seed=s) for s in range(3)])
        first = governor.next_cell()
        governor.observe(first, elapsed_s=0.0, maxrss_kb=0, bits=200)
        assert governor.next_cell() is None
        assert all(
            "byte budget exhausted" in reason for _, reason in governor.drain_skips()
        )

    def test_wont_fit_veto_on_shrunk_wall_clock(self):
        clock = FakeClock()
        governor = SweepGovernor(SweepBudget(seconds=10), clock=clock)
        governor.seed(cell(), {"elapsed_s": 4.0})
        governor.schedule([cell(seed=0), cell(seed=1)])
        # Projected 8s fits 10s, so nothing is downsampled up front.
        assert governor.next_cell() == cell(seed=0)
        clock.now = 7.0
        assert governor.next_cell() is None
        ((skipped, reason),) = governor.drain_skips()
        assert skipped.seed == 1
        assert "exceeds the remaining" in reason and "wall-clock" in reason

    def test_wont_fit_veto_on_byte_estimate(self):
        governor = SweepGovernor(SweepBudget(bytes=100), clock=FakeClock())
        governor.seed(cell(), {"bits": 1000})
        governor.schedule([cell(seed=0)])
        assert governor.next_cell() is None
        ((_, reason),) = governor.drain_skips()
        assert "byte budget" in reason

    def test_single_overbudget_cell_is_downsampled_to_nothing(self):
        governor = SweepGovernor(SweepBudget(seconds=10), clock=FakeClock())
        governor.seed(cell(scenario="big"), {"elapsed_s": 50.0})
        governor.schedule([cell(scenario="big"), cell(scenario="small")])
        admitted = governor.next_cell()
        assert admitted.scenario == "small"
        assert governor.next_cell() is None
        ((skipped, reason),) = governor.drain_skips()
        assert skipped.scenario == "big"
        assert "budget" in reason

    def test_memory_ceiling_ignores_advisory_evidence(self):
        governor = SweepGovernor(
            SweepBudget(cell_max_rss_kb=100), clock=FakeClock()
        )
        # Cached telemetry says 500 KiB -- advisory only, never a veto: it
        # may be coordinator-sized output of the pre-fix worker probe.
        governor.seed(cell(), {"maxrss_kb": 500})
        governor.schedule([cell(seed=0), cell(seed=1)])
        assert governor.next_cell() == cell(seed=0)
        # Fresh in-sweep evidence above the ceiling vetoes the class.
        governor.observe(cell(seed=0), elapsed_s=0.01, maxrss_kb=500, bits=0)
        assert governor.next_cell() is None
        ((_, reason),) = governor.drain_skips()
        assert "per-cell ceiling" in reason

    def test_reorders_cheapest_class_first_under_pressure(self):
        clock = FakeClock()
        governor = SweepGovernor(SweepBudget(seconds=10), clock=clock)
        governor.seed(cell(scenario="slow"), {"elapsed_s": 8.0})
        governor.seed(cell(scenario="fast"), {"elapsed_s": 0.5})
        governor.schedule(
            [cell(scenario="slow", seed=s) for s in range(2)]
            + [cell(scenario="fast", seed=s) for s in range(2)]
        )
        order = []
        while True:
            admitted = governor.next_cell()
            if admitted is None:
                break
            order.append(admitted.scenario)
        # Projected 17s > 10s remaining: fast cells jump the queue.
        assert order[:2] == ["fast", "fast"]

    def test_downsamples_a_class_that_alone_blows_the_budget(self):
        clock = FakeClock()
        governor = SweepGovernor(SweepBudget(seconds=5), clock=clock)
        governor.seed(cell(), {"elapsed_s": 1.0})
        governor.schedule([cell(seed=s) for s in range(10)])
        admitted = []
        while True:
            nxt = governor.next_cell()
            if nxt is None:
                break
            admitted.append(nxt.seed)
        # 10 cells at ~1s each cannot fit 5s: the seed list is cut to the
        # prefix that fits, and quotas never grow back.
        assert admitted == [0, 1, 2, 3, 4]
        skips = governor.drain_skips()
        assert [c.seed for c, _ in skips] == [5, 6, 7, 8, 9]
        assert all("downsampled" in reason for _, reason in skips)
        assert "downsampled" in governor.summary()

    def test_summary_has_the_stable_skip_phrase(self):
        governor = SweepGovernor(SweepBudget(seconds=1), clock=FakeClock())
        assert "skipped (budget)" in governor.summary()


class TestGovernedRunner:
    SCENARIOS = ["smoke/forest", "smoke/mixed"]
    SEEDS = [0, 1, 2]

    def test_budget_skips_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, budget=SweepBudget(seconds=1e-9))
        results = runner.sweep(self.SCENARIOS, seeds=self.SEEDS)
        skipped = [r for r in results if r.skipped is not None]
        assert skipped, "a 1ns budget must refuse cells"
        for result in skipped:
            assert result.skip_reason == "budget"
            assert result.records == []
            assert cache.get_entry(result.key) is None
        ran = [r for r in results if r.skipped is None]
        assert cache.entry_count() == len(ran)

    def test_budget_skips_do_not_pollute_capability_aggregation(self):
        runner = SweepRunner(budget=SweepBudget(seconds=1e-9))
        results = runner.sweep(self.SCENARIOS, seeds=self.SEEDS)
        assert any(r.skipped is not None for r in results)
        assert aggregate_skips(results) == {}

    def test_unbounded_budget_takes_the_ungoverned_path(self):
        runner = SweepRunner(budget=SweepBudget())
        results = runner.sweep(self.SCENARIOS, seeds=[0])
        assert runner.budget_summary() is None
        assert all(r.skipped is None for r in results)

    def test_generous_budget_is_byte_identical_to_ungoverned(self):
        baseline = SweepRunner().sweep(self.SCENARIOS, seeds=self.SEEDS)
        governed = SweepRunner(budget=SweepBudget(seconds=600)).sweep(
            self.SCENARIOS, seeds=self.SEEDS
        )
        expected = {
            (r.scenario, r.seed): records_to_bytes(r.records) for r in baseline
        }
        actual = {
            (r.scenario, r.seed): records_to_bytes(r.records) for r in governed
        }
        assert actual == expected

    def test_fresh_results_report_bits_and_summary(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, budget=SweepBudget(seconds=600))
        results = runner.sweep(["smoke/forest"], seeds=[0])
        (result,) = results
        assert result.bits == sum(rec.total_bits for rec in result.records)
        assert result.bits > 0
        summary = runner.budget_summary()
        assert summary is not None and summary.startswith("budget: ")
        assert "1 admitted" in summary
        # The hit path reads the persisted bits back.
        (hit,) = SweepRunner(
            cache=cache, budget=SweepBudget(seconds=600)
        ).sweep(["smoke/forest"], seeds=[0])
        assert hit.from_cache and hit.bits == result.bits

    def test_refused_cells_leave_no_trace_files(self, tmp_path):
        trace_dir = tmp_path / "traces"
        runner = SweepRunner(trace_dir=trace_dir, budget=SweepBudget(seconds=1e-9))
        results = runner.sweep(self.SCENARIOS, seeds=self.SEEDS)
        assert any(r.skipped is not None for r in results), "a 1ns budget must refuse cells"
        written = {path.name for path in trace_dir.glob("*.jsonl")}
        executed = {
            f"{r.scenario.replace('/', '-')}__seed{r.seed}__{r.engine}.jsonl"
            for r in results
            if r.skipped is None
        }
        assert written == executed

    def test_pooled_governed_sweep_matches_pooled_ungoverned(self, tmp_path):
        cells = expand_cells(self.SCENARIOS, self.SEEDS)
        warm = [cells[1], cells[4]]
        plain_cache = ResultCache(tmp_path / "plain")
        plain = list(SweepRunner(cache=plain_cache, workers=2).run_cells(cells))
        governed_cache = ResultCache(tmp_path / "governed")
        list(SweepRunner(cache=governed_cache, workers=2).run_cells(warm))
        runner = SweepRunner(cache=governed_cache, workers=2, budget=SweepBudget(seconds=600))
        governed = list(runner.run_cells(cells))

        # Hits stream first in the given order, then the fresh cells.
        fresh = [c for c in cells if c not in warm]
        assert [r.cell for r in governed] == warm + fresh
        assert [r.from_cache for r in governed] == [True] * len(warm) + [False] * len(fresh)
        assert f"{len(fresh)} admitted" in runner.budget_summary()

        expected = {r.cell: records_to_bytes(r.records) for r in plain}
        assert {r.cell: records_to_bytes(r.records) for r in governed} == expected
        for result in governed:
            plain_entry = json.loads(plain_cache.path_for(result.key).read_text())
            governed_entry = json.loads(governed_cache.path_for(result.key).read_text())
            assert plain_entry["meta"].keys() == governed_entry["meta"].keys()
            assert json.dumps(plain_entry["records"]) == json.dumps(governed_entry["records"])
