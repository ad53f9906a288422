"""Tests for the high-level execution API (``RunSpec`` + ``execute``)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import DominatingSetResult, RunSpec, execute
from repro.congest.algorithm import SynchronousAlgorithm
from repro.graphs.generators import random_tree


def _run(graph, algorithm, **fields):
    return execute(RunSpec(graph=graph, algorithm=algorithm, **fields))


def _deterministic(graph, alpha=None, epsilon=0.1):
    return _run(graph, "deterministic", alpha=alpha, params={"epsilon": epsilon})


def _randomized(graph, alpha=None, t=1, seed=0):
    return _run(graph, "randomized", alpha=alpha, params={"t": t}, seed=seed)


class TestSolveMds:
    def test_returns_result_dataclass(self, small_forest_union):
        result = _deterministic(small_forest_union, alpha=3)
        assert isinstance(result, DominatingSetResult)
        assert result.is_valid
        assert result.weight == len(result.dominating_set)
        assert len(result) == len(result.dominating_set)

    def test_dispatches_to_unweighted_algorithm(self, small_forest_union):
        result = _deterministic(small_forest_union, alpha=3)
        assert "unweighted" in result.algorithm

    def test_dispatches_to_weighted_algorithm(self, weighted_forest_union):
        result = _deterministic(weighted_forest_union, alpha=3)
        assert "deterministic" in result.algorithm

    def test_alpha_defaults_to_degeneracy(self, small_forest_union):
        result = _deterministic(small_forest_union)
        assert result.is_valid
        assert result.guarantee is not None

    def test_invalid_alpha_rejected(self, small_forest_union):
        with pytest.raises(ValueError):
            _deterministic(small_forest_union, alpha=0)

    def test_guarantee_reported(self, small_forest_union):
        result = _deterministic(small_forest_union, alpha=3, epsilon=0.5)
        assert result.guarantee == pytest.approx(7 * 1.5)

    def test_metrics_available(self, small_forest_union):
        result = _deterministic(small_forest_union, alpha=3)
        assert result.metrics.rounds == result.rounds
        assert result.metrics.total_messages > 0


class TestOtherSolvers:
    def test_solve_weighted(self, weighted_forest_union):
        result = _run(weighted_forest_union, "weighted", alpha=3)
        assert result.is_valid

    def test_solve_randomized(self, weighted_forest_union):
        result = _randomized(weighted_forest_union, alpha=3, t=2, seed=4)
        assert result.is_valid

    def test_solve_general(self):
        graph = nx.gnp_random_graph(40, 0.2, seed=3)
        result = _run(graph, "general", params={"k": 2}, seed=1)
        assert result.is_valid

    def test_solve_forest(self):
        graph = random_tree(30, seed=2)
        result = _run(graph, "forest")
        assert result.is_valid
        assert result.guarantee == 3.0
        assert result.rounds <= 2

    def test_solve_unknown_degree(self, weighted_forest_union):
        result = _run(weighted_forest_union, "unknown-degree", alpha=3)
        assert result.is_valid

    def test_solve_unknown_arboricity(self, small_forest_union):
        result = _run(small_forest_union, "unknown-arboricity")
        assert result.is_valid

    def test_results_are_reproducible(self, weighted_forest_union):
        first = _randomized(weighted_forest_union, alpha=3, t=1, seed=11)
        second = _randomized(weighted_forest_union, alpha=3, t=1, seed=11)
        assert first.dominating_set == second.dominating_set

    def test_different_seeds_may_differ_but_stay_valid(self, weighted_forest_union):
        for seed in range(3):
            result = _randomized(weighted_forest_union, alpha=3, t=1, seed=seed)
            assert result.is_valid


class _SelectNobody(SynchronousAlgorithm):
    """Every node outputs ``in_ds=False`` immediately (never dominating)."""

    name = "select-nobody"

    def round(self, node, round_index, inbox):
        node.state["output"] = {"in_ds": False}
        node.finish()
        return None


class _SelectEverybody(SynchronousAlgorithm):
    """Every node joins the set immediately (always dominating)."""

    name = "select-everybody"

    def round(self, node, round_index, inbox):
        node.state["output"] = {"in_ds": True}
        node.finish()
        return None


class TestResultPackaging:
    """Edge cases of the DominatingSetResult packaging pipeline."""

    def test_guarantee_propagates_verbatim(self, small_grid):
        result = _run(small_grid, _SelectEverybody(), guarantee=12.5)
        assert result.guarantee == 12.5

    def test_guarantee_defaults_to_none_for_heuristics(self, small_grid):
        result = _run(small_grid, _SelectEverybody())
        assert result.guarantee is None

    def test_non_dominating_output_is_flagged_not_raised(self, small_grid):
        result = _run(small_grid, _SelectNobody())
        assert result.is_valid is False
        assert result.dominating_set == set()
        assert result.weight == 0
        assert len(result) == 0

    def test_empty_graph_nobody_is_vacuously_dominating(self):
        result = _run(nx.empty_graph(0), _SelectNobody())
        assert result.is_valid is True
        assert len(result) == 0

    def test_len_counts_nodes_not_weight(self):
        graph = nx.path_graph(4)
        for node in graph.nodes():
            graph.nodes[node]["weight"] = 10
        result = _run(graph, _SelectEverybody())
        assert len(result) == 4
        assert result.weight == 40
        assert result.is_valid is True

    def test_weight_counts_each_selected_node_once(self, small_grid):
        result = _run(small_grid, _SelectEverybody())
        assert result.weight == small_grid.number_of_nodes()
        assert len(result) == small_grid.number_of_nodes()

    def test_truthy_non_dict_outputs_select_nodes(self, small_grid):
        class _BooleanOutputs(SynchronousAlgorithm):
            name = "boolean-outputs"

            def round(self, node, round_index, inbox):
                node.state["output"] = True  # plain truthy, not an in_ds dict
                node.finish()
                return None

        result = _run(small_grid, _BooleanOutputs())
        assert result.dominating_set == set(small_grid.nodes())
