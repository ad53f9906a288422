"""Session semantics: compile-once reuse, batches, faults, validation policy.

The load-bearing property throughout is *byte parity*: a run through a
compiled, reused session must be indistinguishable from a fresh one-shot
execution (which itself equals the legacy ``solve_*`` path; see
``test_parity_grid.py``).
"""

from __future__ import annotations

import dataclasses
import pickle

import networkx as nx
import pytest

from repro import FaultSpec, RunSpec, Session, execute
from repro.faults import AdversarialEngine, FAULT_MODELS
from repro.graphs.generators import forest_union_graph
from repro.graphs.weights import assign_random_weights
from repro.run.result import result_bytes


@pytest.fixture
def graph() -> nx.Graph:
    g = forest_union_graph(60, alpha=3, seed=9)
    assign_random_weights(g, 1, 20, seed=2)
    return g


def _spec(graph, **overrides) -> RunSpec:
    base = dict(graph=graph, algorithm="weighted", params={"epsilon": 0.2}, alpha=3)
    base.update(overrides)
    return RunSpec(**base)


class TestCompiledReuse:
    def test_graph_compiled_once_per_session(self, graph):
        session = Session()
        first = session.compile(_spec(graph))
        second = session.compile(_spec(graph, algorithm="randomized", params={}, seed=5))
        assert first is second
        assert session.compiled_count == 1

    def test_repeated_runs_byte_identical_to_fresh_executes(self, graph):
        session = Session()
        for engine in ("reference", "batched"):
            for seed in (0, 3):
                spec = _spec(graph, seed=seed, engine=engine)
                assert result_bytes(session.run(spec)) == result_bytes(execute(spec))

    def test_alternating_algorithms_rebind_network_cleanly(self, graph):
        """Config/knowledge churn (weighted -> unknown-degree -> weighted)
        through one compiled network matches fresh executions."""
        session = Session()
        specs = [
            _spec(graph, seed=1),
            _spec(graph, algorithm="unknown-degree", seed=1),
            _spec(graph, seed=1),  # back again: rebind must fully restore
            _spec(graph, algorithm="randomized", params={"t": 2}, seed=4),
        ]
        for spec in specs:
            assert result_bytes(session.run(spec)) == result_bytes(execute(spec))

    def test_invalidate_recompiles(self, graph):
        session = Session()
        compiled = session.compile(_spec(graph))
        session.invalidate(graph)
        assert session.compile(_spec(graph)) is not compiled
        session.invalidate()
        assert session.compiled_count == 0

    def test_context_manager_drops_compiled_state(self, graph):
        with Session() as session:
            session.run(_spec(graph))
            assert session.compiled_count == 1
        assert session.compiled_count == 0

    def test_session_default_engine_used_when_spec_leaves_none(self, graph):
        fast = Session(engine="batched")
        slow = Session(engine="reference")
        spec = _spec(graph, seed=2)
        assert result_bytes(fast.run(spec)) == result_bytes(slow.run(spec))

    def test_unknown_session_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Session(engine="warp-drive")

    def test_compiled_entry_pins_graph_and_weights_identity(self, graph):
        """The cache is keyed by id(graph)/id(weights); the compiled entry
        must hold strong references to both, or a freed object's recycled id
        would silently serve a stale compilation (a real CPython failure
        mode for back-to-back dicts of the same size)."""
        session = Session()
        weights = {node: 3 for node in graph.nodes()}
        spec = _spec(graph, weights=weights)
        compiled = session.compile(spec)
        assert compiled.source is graph
        assert compiled.weights_source is weights

    def test_distinct_weight_dicts_compile_separately(self, graph):
        session = Session()
        heavy = {node: 9 for node in graph.nodes()}
        light = {node: 1 for node in graph.nodes()}
        first = session.run(_spec(graph, weights=heavy, params={}, alpha=None))
        second = session.run(_spec(graph, weights=light, params={}, alpha=None))
        assert session.compiled_count == 2
        assert first.weight == 9 * len(first.dominating_set)
        assert second.weight == 1 * len(second.dominating_set)


class TestRunMany:
    def test_seed_batch_matches_per_seed_executes(self, graph):
        session = Session()
        base = _spec(graph, algorithm="randomized", params={"t": 1})
        batch = list(session.run_many(base=base, seeds=range(5)))
        loop = [execute(dataclasses.replace(base, seed=s)) for s in range(5)]
        assert [result_bytes(r) for r in batch] == [result_bytes(r) for r in loop]

    def test_streaming_iterator_is_lazy(self, graph):
        session = Session()
        stream = session.run_many(base=_spec(graph), seeds=range(3))
        assert iter(stream) is stream  # a generator, not a list
        first = next(stream)
        assert first.is_valid

    def test_explicit_spec_list(self, graph):
        session = Session()
        specs = [_spec(graph, seed=1), _spec(graph, algorithm="forest", params={}, seed=1)]
        results = list(session.run_many(specs))
        assert [r.algorithm for r in results] == [
            execute(specs[0]).algorithm, execute(specs[1]).algorithm
        ]

    def test_pooled_batch_byte_identical_to_serial(self, graph):
        session = Session()
        base = _spec(graph, algorithm="randomized", params={"t": 1}, engine="batched")
        serial = list(session.run_many(base=base, seeds=range(4)))
        pooled = list(session.run_many(base=base, seeds=range(4), workers=2))
        assert [result_bytes(r) for r in pooled] == [result_bytes(r) for r in serial]


class TestFaults:
    def test_spec_faults_match_manual_adversarial_engine(self, graph):
        regime = FaultSpec(drop_probability=0.1, latency_max=1)
        plan = regime.materialize(graph, 7)
        session = Session()
        for engine in ("reference", "batched"):
            via_spec = session.run(
                _spec(graph, faults=regime, fault_seed=7, seed=3, engine=engine)
            )
            legacy_engine = AdversarialEngine(plan, inner=engine)
            via_engine = execute(_spec(graph, seed=3, engine=legacy_engine))
            assert result_bytes(via_spec) == result_bytes(via_engine)

    def test_named_fault_model_resolves(self, graph):
        session = Session()
        named = session.run(_spec(graph, faults="lossy10", fault_seed=0, seed=1))
        plan = FAULT_MODELS["lossy10"].materialize(graph, 0)
        explicit = session.run(_spec(graph, faults=plan, seed=1))
        assert result_bytes(named) == result_bytes(explicit)

    def test_fault_seed_defaults_to_run_seed(self, graph):
        session = Session()
        regime = FAULT_MODELS["lossy10"]
        implicit = session.run(_spec(graph, faults=regime, seed=5))
        explicit = session.run(_spec(graph, faults=regime, fault_seed=5, seed=5))
        assert result_bytes(implicit) == result_bytes(explicit)

    def test_materialised_plans_are_memoized(self, graph):
        session = Session()
        compiled = session.compile(_spec(graph))
        spec = _spec(graph, faults=FAULT_MODELS["lossy10"], fault_seed=3)
        assert compiled.fault_plan(spec) is compiled.fault_plan(spec)

    def test_plan_memo_is_bounded(self, graph):
        # A long-lived session seeing a fresh fault seed per run (repro
        # serve) must not keep every plan it ever built alive.
        import gc
        import weakref

        compiled = Session().compile(_spec(graph))
        regime = FAULT_MODELS["chaos"]
        plans = [
            weakref.ref(compiled.fault_plan(_spec(graph, faults=regime, fault_seed=seed)))
            for seed in range(50)
        ]
        gc.collect()
        assert sum(plan() is not None for plan in plans) <= 8
        # The most recent plan is still memoized by identity.
        latest = _spec(graph, faults=regime, fault_seed=49)
        assert plans[-1]() is compiled.fault_plan(latest)


class TestValidationPolicyAndWeights:
    def test_skip_validation_sets_is_valid_none(self, graph):
        full = execute(_spec(graph, seed=1))
        skipped = execute(_spec(graph, seed=1, validate="skip"))
        assert full.is_valid is True
        assert skipped.is_valid is None
        assert skipped.dominating_set == full.dominating_set
        assert skipped.weight == full.weight
        assert pickle.dumps(skipped.metrics) == pickle.dumps(full.metrics)

    def test_weights_mapping_applied_to_a_copy(self):
        graph = nx.path_graph(8)
        weights = {node: 5 for node in graph.nodes()}
        result = execute(RunSpec(graph=graph, algorithm="weighted", weights=weights))
        assert result.weight == 5 * len(result.dominating_set)
        # The caller's graph is untouched.
        assert all("weight" not in graph.nodes[node] for node in graph.nodes())

    def test_weight_scheme_object_applied_with_graph_seed(self):
        from repro.orchestration.registry import WeightSpec

        graph = nx.path_graph(12)
        spec = RunSpec(
            graph=graph,
            algorithm="weighted",
            weights=WeightSpec(scheme="random", params={"low": 1, "high": 9}),
            graph_seed=4,
        )
        result = execute(spec)
        expected = graph.copy()
        WeightSpec(scheme="random", params={"low": 1, "high": 9}).apply(expected, 4)
        legacy = execute(RunSpec(graph=expected, algorithm="weighted"))
        assert result_bytes(result) == result_bytes(legacy)


class TestGraphSources:
    def test_graph_spec_source_builds_once(self):
        from repro.orchestration.registry import GraphSpec

        source = GraphSpec(family="random-tree", params={"n": 30})
        session = Session()
        spec = RunSpec(graph=source, algorithm="forest", graph_seed=3)
        first = session.run(spec)
        second = session.run(dataclasses.replace(spec, seed=1))
        assert session.compiled_count == 1
        built = source.build(3)
        fresh = execute(RunSpec(graph=built.graph, algorithm="forest"))
        assert result_bytes(first) == result_bytes(fresh)
        assert second.is_valid

    def test_graph_instance_source(self):
        from repro.orchestration.registry import GraphSpec

        instance = GraphSpec(family="random-tree", params={"n": 25}).build(0)
        result = execute(RunSpec(graph=instance, algorithm="forest"))
        assert result.is_valid
