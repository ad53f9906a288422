"""RunSpec validation and the shared lookup error paths."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import RunSpec, Session, execute
from repro.run import (
    ALGORITHMS,
    available_algorithms,
    register_algorithm,
    resolve_algorithm,
)
from repro.run.algorithms import registry_lookup


@pytest.fixture
def graph() -> nx.Graph:
    return nx.path_graph(6)


class TestRunSpecValidation:
    def test_unknown_algorithm_lists_known_names(self, graph):
        with pytest.raises(KeyError) as excinfo:
            RunSpec(graph=graph, algorithm="definitely-not-an-algorithm")
        message = excinfo.value.args[0]
        assert "unknown algorithm 'definitely-not-an-algorithm'" in message
        for name in available_algorithms():
            assert name in message

    def test_unknown_fault_model_lists_known_names(self, graph):
        with pytest.raises(KeyError) as excinfo:
            RunSpec(graph=graph, faults="definitely-not-a-model")
        message = excinfo.value.args[0]
        assert "unknown fault model" in message
        assert "lossy10" in message and "chaos" in message

    def test_unknown_engine_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(graph=graph, engine="warp-drive")

    def test_algorithm_must_be_name_or_instance(self, graph):
        with pytest.raises(TypeError, match="registered name or a SynchronousAlgorithm"):
            RunSpec(graph=graph, algorithm=42)

    def test_invalid_validate_policy(self, graph):
        with pytest.raises(ValueError, match="validate must be one of"):
            RunSpec(graph=graph, validate="maybe")

    def test_alpha_below_one_rejected(self, graph):
        with pytest.raises(ValueError, match="alpha must be at least 1"):
            RunSpec(graph=graph, alpha=0)

    def test_budget_knobs_validated(self, graph):
        with pytest.raises(ValueError, match="max_rounds"):
            RunSpec(graph=graph, max_rounds=0)
        with pytest.raises(ValueError, match="bandwidth_words"):
            RunSpec(graph=graph, bandwidth_words=-1)

    def test_bad_graph_source_fails_at_run(self):
        spec = RunSpec(graph="not a graph")
        with pytest.raises(TypeError, match="RunSpec.graph must be"):
            execute(spec)

    def test_bad_weights_source_fails_at_run(self, graph):
        spec = RunSpec(graph=graph, weights=3.14)
        with pytest.raises(TypeError, match="RunSpec.weights must be"):
            execute(spec)

    def test_algorithm_label(self, graph):
        assert RunSpec(graph=graph, algorithm="randomized").algorithm_label == "randomized"
        from repro.core.trees import ForestMDSAlgorithm

        labeled = RunSpec(graph=graph, algorithm=ForestMDSAlgorithm())
        assert labeled.algorithm_label == ForestMDSAlgorithm.name


class TestAlgorithmRegistry:
    def test_baseline_solvers_registered(self):
        for name in ("lw-deterministic", "lw-randomized", "msw-combinatorial",
                     "weighted-lambda-scaled"):
            assert name in ALGORITHMS

    def test_resolve_algorithm_unknown_name(self):
        with pytest.raises(KeyError, match="known algorithms:"):
            resolve_algorithm("nope")

    def test_register_algorithm_rejects_silent_redefinition(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("deterministic", lambda compiled, spec: None)

    def test_register_and_run_custom_recipe(self, graph):
        from repro.run.algorithms import ResolvedRun
        from repro.core.trees import ForestMDSAlgorithm

        def recipe(compiled, spec):
            del compiled
            return ResolvedRun(ForestMDSAlgorithm(), None, True, 99.0)

        register_algorithm("test-custom-forest", recipe, replace=True)
        try:
            result = execute(RunSpec(graph=nx.path_graph(5), algorithm="test-custom-forest"))
            assert result.guarantee == 99.0
        finally:
            del ALGORITHMS["test-custom-forest"]


class TestRegistryLookup:
    def test_registry_lookup_is_shared(self):
        # The RunSpec validation and the scenario registry raise through the
        # same helper, so the error shapes stay in lockstep.
        with pytest.raises(KeyError, match="unknown thing 'x'; known things: a, b"):
            registry_lookup({"a": 1, "b": 2}, "x", "thing")


class TestRunManyArguments:
    def test_requires_specs_or_base_and_seeds(self, graph):
        session = Session()
        with pytest.raises(ValueError, match="either specs, or base= and seeds="):
            list(session.run_many())
        with pytest.raises(ValueError, match="not both"):
            spec = RunSpec(graph=graph, algorithm="forest")
            list(session.run_many([spec], base=spec, seeds=[1]))
