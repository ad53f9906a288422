"""Structured capability-skip keys: CellResult.skipped_cell and aggregation."""

from __future__ import annotations

import pytest

from repro.congest.errors import EngineCapabilityError
from repro.orchestration.registry import register_scenario, unregister_scenario
from repro.orchestration.runner import (
    CellResult,
    SweepCell,
    SweepRunner,
    aggregate_skips,
    expand_cells,
    format_skip_cell,
)


class _UnsupportedScenario:
    """A stub whose run always raises a fully attributed capability error."""

    name = "stub/structured-skip"
    experiment = "STUB"
    faults = None
    tags = ()

    def spec_hash(self):
        return "1" * 16

    def run(self, seed=0, engine=None):
        raise EngineCapabilityError(
            "no can do",
            algorithm="stub-algo",
            engine=engine,
            fault_model="crash15",
        )


class TestCellKeyPlumbing:
    def test_skipped_cell_carries_the_structured_key(self, tmp_path):
        register_scenario(_UnsupportedScenario(), replace=True)
        try:
            runner = SweepRunner(cache=None)
            (result,) = runner.sweep(["stub/structured-skip"], engines=["kernel"])
        finally:
            unregister_scenario("stub/structured-skip")
        assert result.skipped == "no can do"
        assert result.skipped_cell == ("stub-algo", "kernel", "crash15")

    def test_skipped_cell_survives_worker_processes(self, tmp_path):
        register_scenario(_UnsupportedScenario(), replace=True)
        try:
            runner = SweepRunner(cache=None, workers=2)
            cells = expand_cells(["stub/structured-skip"], seeds=[0, 1], engines=["kernel"])
            results = list(runner.run_cells(cells))
        finally:
            unregister_scenario("stub/structured-skip")
        assert all(r.skipped_cell == ("stub-algo", "kernel", "crash15") for r in results)

    def test_capability_error_without_attribution_defaults_to_none_key(self):
        error = EngineCapabilityError("bare message")
        assert error.cell == (None, None, None)

    @pytest.mark.parametrize(
        "graph_kind, algorithm, engine, faults",
        [
            ("networkx", "deterministic", "sharded", "lossy10"),
            ("csr", "deterministic", "sharded", "lossy10"),
            ("networkx", "randomized", "sharded", None),
            ("csr", "randomized", "sharded", None),
            ("csr", "deterministic", "batched", "crash15"),
        ],
    )
    def test_session_attributes_csr_capability_cells(
        self, graph_kind, algorithm, engine, faults
    ):
        # The same capability cell gets the same spec-level key whatever
        # the graph type.
        import networkx as nx

        from repro.graphs.large_scale import csr_from_networkx
        from repro.run import RunSpec, Session

        graph = nx.path_graph(4)
        if graph_kind == "csr":
            graph = csr_from_networkx(graph)
        spec = RunSpec(graph=graph, algorithm=algorithm, engine=engine, faults=faults)
        with pytest.raises(EngineCapabilityError) as caught:
            Session().run(spec)
        assert caught.value.cell == (algorithm, engine, faults)


def _skip_result(cell_key, scenario="s", engine="kernel") -> CellResult:
    return CellResult(
        cell=SweepCell(scenario=scenario, seed=0, engine=engine),
        records=[],
        from_cache=False,
        duration_s=0.0,
        key="k",
        skipped="msg",
        skipped_cell=cell_key,
    )


class TestAggregation:
    def test_counts_by_cell_key(self):
        results = [
            _skip_result(("a", "kernel", None)),
            _skip_result(("a", "kernel", None)),
            _skip_result(("b", "kernel", "crash15")),
            CellResult(
                cell=SweepCell(scenario="ok", seed=0, engine="kernel"),
                records=[],
                from_cache=False,
                duration_s=0.0,
                key="k2",
            ),
        ]
        counts = aggregate_skips(results)
        assert counts == {
            ("a", "kernel", None): 2,
            ("b", "kernel", "crash15"): 1,
        }

    def test_unattributed_skips_land_under_none_key(self):
        counts = aggregate_skips([_skip_result(None)])
        assert counts == {(None, None, None): 1}

    def test_format_skip_cell(self):
        assert format_skip_cell(("a", "kernel", None)) == "a@kernel"
        assert format_skip_cell(("a", "kernel", "crash15")) == "a@kernel+crash15"
        assert format_skip_cell((None, None, None)) == "?@?"
