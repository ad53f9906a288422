"""Behavior of the AdversarialEngine: crashes, drops, latency, churn, metrics.

Every semantic claim of the fault model is pinned here on small, hand-built
networks, plus the cross-engine guarantee: a *non-empty* plan produces
byte-identical executions whether the per-delivery reference path or the
vectorized batched path applies it.  (The empty-plan guarantee lives in
``test_zero_fault_parity.py``.)
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest

from repro.congest.errors import BandwidthViolation, NonConvergenceError
from repro.congest.simulator import run_algorithm
from repro.core.randomized import RandomizedMDSAlgorithm
from repro.core.unweighted import UnweightedMDSAlgorithm
from repro.core.weighted import WeightedMDSAlgorithm
from repro.faults import (
    FAULT_MODELS,
    AdversarialEngine,
    ChurnEvent,
    CrashFault,
    FaultPlan,
    FaultSpec,
    LinkFault,
)
from repro.graphs.generators import (
    grid_graph,
    preferential_attachment_graph,
    random_geometric_graph,
)
from repro.graphs.weights import assign_random_weights

ENGINES = ("reference", "batched", "kernel")


def _run(graph, plan, inner, algorithm=None, seed=0, **kwargs):
    algorithm = algorithm or UnweightedMDSAlgorithm(epsilon=0.3)
    engine = AdversarialEngine(plan, inner=inner)
    return run_algorithm(graph, algorithm, seed=seed, engine=engine, **kwargs)


def _trace(result):
    """Everything observable about a faulted run, minus the engine name
    (``engine_used`` differs across engines by design)."""
    import dataclasses

    metrics = dataclasses.replace(result.metrics, engine_used=None)
    # dict(): kernel-tier outputs are a lazy column view that pickles as
    # columns; its materialised dicts are what the engines must agree on.
    return pickle.dumps((dict(result.outputs), metrics))


# --------------------------------------------------------------------------- #
# Crashes
# --------------------------------------------------------------------------- #


class TestCrashes:
    @pytest.mark.parametrize("inner", ENGINES)
    def test_crash_stop_terminates_and_is_recorded(self, inner):
        graph = preferential_attachment_graph(40, attachment=3, seed=2)
        victims = sorted(graph.nodes())[:6]
        plan = FaultPlan(crashes=tuple(CrashFault(v, start=1) for v in victims))
        result = _run(graph, plan, inner, alpha=3)
        assert result.metrics.faulty_nodes == tuple(sorted(victims, key=repr))
        # Crash-stop nodes do not keep the run alive; outputs exist for them.
        assert set(result.outputs) == set(graph.nodes())
        assert all(
            round_metrics.crashed_nodes == len(victims)
            for round_metrics in result.metrics.per_round[1:]
        )

    @pytest.mark.parametrize("inner", ENGINES)
    def test_crash_from_round_zero_sends_nothing(self, inner):
        graph = nx.star_graph(5)  # center 0 broadcasts to 5 leaves
        plan = FaultPlan(crashes=(CrashFault(0, start=0),))
        result = _run(graph, plan, inner, alpha=1)
        plain = run_algorithm(
            graph, UnweightedMDSAlgorithm(epsilon=0.3), alpha=1, engine=inner
        )
        assert result.metrics.total_messages < plain.metrics.total_messages

    @pytest.mark.parametrize("inner", ENGINES)
    def test_crash_recover_node_finishes_after_window(self, inner):
        graph = grid_graph(4, 4)
        victim = list(graph.nodes())[5]
        plan = FaultPlan(crashes=(CrashFault(victim, start=1, recover=4),))
        result = _run(graph, plan, inner, alpha=2)
        # The recovering node produced an output and the run converged
        # without hitting the limit.
        assert result.metrics.stalled_nodes == 0
        assert victim in result.outputs
        crashed_per_round = [r.crashed_nodes for r in result.metrics.per_round]
        assert crashed_per_round[1:4] == [1, 1, 1]
        assert all(c == 0 for c in crashed_per_round[4:])

    @pytest.mark.parametrize("inner", ENGINES)
    def test_messages_to_crashed_receiver_are_dropped(self, inner):
        graph = nx.path_graph(3)
        plan = FaultPlan(crashes=(CrashFault(1, start=0),))
        result = _run(graph, plan, inner, alpha=1)
        assert result.metrics.total_dropped_messages > 0

    @pytest.mark.parametrize("inner", ENGINES)
    def test_back_to_back_windows_apply_regardless_of_plan_order(self, inner):
        # Window 2 starts exactly where window 1 recovers; listed out of
        # order, the round-5 down toggle must still win over the recovery
        # (regression: toggles used to apply in plan-tuple order).
        graph = grid_graph(4, 4)
        victim = list(graph.nodes())[3]
        plan = FaultPlan(
            crashes=(
                CrashFault(victim, start=5, recover=8),
                CrashFault(victim, start=2, recover=5),
            )
        )
        result = _run(graph, plan, inner, alpha=2, max_rounds=40)
        crashed = [r.crashed_nodes for r in result.metrics.per_round]
        assert crashed[2:8] == [1, 1, 1, 1, 1, 1]
        assert all(count == 0 for count in crashed[8:])

    @pytest.mark.parametrize("inner", ENGINES)
    @pytest.mark.parametrize("variant", ["unknown-delta", "unknown-alpha"])
    def test_unknown_param_algorithms_degrade_when_crash_covers_setup(self, inner, variant):
        # A crash window over the setup rounds means tau/lambda are never
        # learned; both Remark 4.4/4.5 algorithms must fall back to local
        # knowledge (degraded output), not raise on None arithmetic.
        from repro.core.unknown_params import (
            UnknownArboricityMDSAlgorithm,
            UnknownDegreeMDSAlgorithm,
        )

        graph = preferential_attachment_graph(30, attachment=3, seed=8)
        victim = sorted(graph.nodes())[0]
        if variant == "unknown-delta":
            algorithm = UnknownDegreeMDSAlgorithm(epsilon=0.25)
            kwargs = {"alpha": 3}
            start = 1  # covers the round that learns tau and lambda
        else:
            algorithm = UnknownArboricityMDSAlgorithm(epsilon=0.25)
            kwargs = {}
            # Cover the *final* setup round, where lambda/alpha_hat are
            # derived -- the victim recovers directly into the iterations.
            n = graph.number_of_nodes()
            start = algorithm.peel_schedule(n)[1] + 2
        plan = FaultPlan(crashes=(CrashFault(victim, start=start, recover=start + 3),))
        result = _run(
            graph, plan, inner, algorithm=algorithm, knows_max_degree=False, **kwargs
        )
        assert victim in result.outputs


# --------------------------------------------------------------------------- #
# Link omission
# --------------------------------------------------------------------------- #


class TestDrops:
    @pytest.mark.parametrize("inner", ENGINES)
    def test_full_omission_drops_everything(self, inner):
        graph = grid_graph(4, 5)
        plan = FaultPlan(drop_probability=1.0)
        result = _run(graph, plan, inner, alpha=2)
        assert result.metrics.total_messages == 0
        assert result.metrics.total_bits == 0
        assert result.metrics.total_dropped_messages > 0

    @pytest.mark.parametrize("inner", ENGINES)
    def test_partial_omission_reduces_traffic(self, inner):
        graph = preferential_attachment_graph(50, attachment=3, seed=4)
        plain = run_algorithm(
            graph, UnweightedMDSAlgorithm(epsilon=0.3), alpha=3, engine=inner
        )
        lossy = _run(graph, FaultPlan(drop_probability=0.3, seed=1), inner, alpha=3)
        assert 0 < lossy.metrics.total_dropped_messages
        assert lossy.metrics.per_round[0].messages < plain.metrics.per_round[0].messages

    @pytest.mark.parametrize("inner", ENGINES)
    def test_per_link_override(self, inner):
        graph = nx.path_graph(3)  # edges (0,1), (1,2)
        plan = FaultPlan(links=(LinkFault(0, 1, drop_probability=1.0),))
        result = _run(graph, plan, inner, alpha=1)
        # Every message on (0,1) in both directions dies; (1,2) is clean.
        per_round_zero = result.metrics.per_round[0]
        assert per_round_zero.dropped_messages == 2
        assert per_round_zero.messages == 2

    def test_link_fault_on_missing_edge_rejected(self):
        graph = nx.path_graph(3)
        plan = FaultPlan(links=(LinkFault(0, 2, drop_probability=1.0),))
        with pytest.raises(ValueError, match="not in the input graph"):
            _run(graph, plan, "reference", alpha=1)


# --------------------------------------------------------------------------- #
# Latency
# --------------------------------------------------------------------------- #


class TestLatency:
    @pytest.mark.parametrize("inner", ENGINES)
    def test_fixed_latency_delays_every_message(self, inner):
        graph = grid_graph(4, 4)
        plain = run_algorithm(
            graph, UnweightedMDSAlgorithm(epsilon=0.3), alpha=2, engine=inner
        )
        # Every message takes exactly one extra round; the algorithms run on
        # a fixed global-round schedule, so the run does not shrink -- the
        # phases are starved of their messages instead.
        slow = _run(graph, FaultPlan(latency_low=1, latency_high=1), inner, alpha=2)
        assert slow.metrics.rounds >= plain.metrics.rounds
        assert slow.metrics.total_delayed_messages == slow.metrics.total_messages
        assert slow.metrics.total_delayed_messages > 0

    @pytest.mark.parametrize("inner", ENGINES)
    def test_random_latency_counts_delayed_fraction(self, inner):
        graph = preferential_attachment_graph(40, attachment=3, seed=6)
        result = _run(graph, FaultPlan(latency_high=2, seed=3), inner, alpha=3)
        delayed = result.metrics.total_delayed_messages
        assert 0 < delayed < result.metrics.total_messages


# --------------------------------------------------------------------------- #
# Churn
# --------------------------------------------------------------------------- #


class TestChurn:
    @pytest.mark.parametrize("inner", ENGINES)
    def test_removed_edge_drops_messages_and_shrinks_topology(self, inner):
        graph = grid_graph(3, 4)
        edge = next(iter(graph.edges()))
        plan = FaultPlan(churn=(ChurnEvent(0, "remove", *edge),))
        result = _run(graph, plan, inner, alpha=2)
        assert result.metrics.per_round[0].live_edges == graph.number_of_edges() - 1
        assert result.metrics.per_round[0].dropped_messages == 2

    @pytest.mark.parametrize("inner", ENGINES)
    def test_reinsert_restores_topology(self, inner):
        graph = grid_graph(3, 4)
        edge = next(iter(graph.edges()))
        plan = FaultPlan(
            churn=(ChurnEvent(0, "remove", *edge), ChurnEvent(2, "insert", *edge))
        )
        result = _run(graph, plan, inner, alpha=2)
        live = [r.live_edges for r in result.metrics.per_round]
        m = graph.number_of_edges()
        assert live[0] == live[1] == m - 1
        assert all(count == m for count in live[2:])

    def test_churn_on_missing_edge_rejected(self):
        graph = nx.path_graph(3)
        plan = FaultPlan(churn=(ChurnEvent(0, "remove", 0, 2),))
        with pytest.raises(ValueError, match="not in the input graph"):
            _run(graph, plan, "batched", alpha=1)


# --------------------------------------------------------------------------- #
# Metrics bookkeeping and policies
# --------------------------------------------------------------------------- #


class TestMetricsAndPolicies:
    @pytest.mark.parametrize("inner", ENGINES)
    def test_empty_plan_reports_no_fault_metrics(self, inner):
        graph = grid_graph(3, 3)
        result = _run(graph, FaultPlan(), inner, alpha=2)
        metrics = result.metrics
        assert metrics.total_dropped_messages == 0
        assert metrics.total_delayed_messages == 0
        assert metrics.faulty_nodes == ()
        assert all(r.live_edges is None for r in metrics.per_round)

    @pytest.mark.parametrize("inner", ENGINES)
    def test_non_empty_plan_reports_topology_size(self, inner):
        graph = grid_graph(3, 3)
        result = _run(graph, FaultPlan(drop_probability=0.01), inner, alpha=2)
        assert all(
            r.live_edges == graph.number_of_edges() for r in result.metrics.per_round
        )

    @pytest.mark.parametrize("inner", ENGINES)
    def test_stop_at_limit_truncates_instead_of_raising(self, inner):
        # A recover round far beyond the algorithm's schedule stalls the
        # crashed node past its finish round; the run must end at the limit
        # with the stall recorded, not crash the sweep.
        graph = nx.path_graph(6)
        plan = FaultPlan(crashes=(CrashFault(2, start=1, recover=10_000),))
        result = _run(graph, plan, inner, alpha=1, max_rounds=30)
        assert result.metrics.stalled_nodes >= 1

    @pytest.mark.parametrize("inner", ENGINES)
    def test_raise_policy_propagates_with_pending_nodes(self, inner):
        graph = nx.path_graph(6)
        plan = FaultPlan(
            crashes=(CrashFault(2, start=1, recover=10_000),), on_round_limit="raise"
        )
        with pytest.raises(NonConvergenceError) as info:
            _run(graph, plan, inner, alpha=1, max_rounds=30)
        assert info.value.pending_nodes == (2,)
        assert "2" in str(info.value)

    def test_summary_mentions_faults(self):
        graph = grid_graph(3, 3)
        result = _run(graph, FaultPlan(drop_probability=0.5, seed=2), "batched", alpha=2)
        summary = result.metrics.summary()
        assert "dropped=" in summary and "delayed=" in summary

    def test_nesting_is_rejected(self):
        with pytest.raises(ValueError, match="cannot wrap"):
            AdversarialEngine(FaultPlan(), inner=AdversarialEngine())

    def test_bandwidth_violation_carries_edge_and_round(self):
        from repro.congest.algorithm import SynchronousAlgorithm
        from repro.congest.message import Broadcast

        class Oversized(SynchronousAlgorithm):
            name = "oversized"

            def round(self, node, round_index, inbox):
                if round_index == 0:
                    return Broadcast({"blob": "x" * 400})
                node.finish()
                return None

        graph = nx.path_graph(4)
        for engine in (
            "reference",
            "batched",
            AdversarialEngine(FaultPlan(drop_probability=0.5), inner="batched"),
        ):
            with pytest.raises(BandwidthViolation) as info:
                run_algorithm(graph, Oversized(), engine=engine)
            violation = info.value
            assert violation.edge == (violation.sender, violation.receiver)
            assert violation.round_index == 0
            # The offending link and round are in the message for log greps.
            assert repr(violation.sender) in str(violation)
            assert repr(violation.receiver) in str(violation)
            assert "round 0" in str(violation)


# --------------------------------------------------------------------------- #
# Cross-engine parity under real fault plans
# --------------------------------------------------------------------------- #


def _assert_cross_engine_parity(graph, plan, algorithm_factory, seed=0, **kwargs):
    traces = {
        inner: _trace(_run(graph, plan, inner, algorithm_factory(), seed=seed, **kwargs))
        for inner in ENGINES
    }
    for inner in ENGINES[1:]:
        assert traces[inner] == traces["reference"], inner


class TestCrossEngineFaultParity:
    def test_mixed_plan_parity(self):
        graph = preferential_attachment_graph(60, attachment=3, seed=9)
        assign_random_weights(graph, 1, 25, seed=10)
        plan = FaultSpec(
            crash_fraction=0.2,
            crash_at=2,
            recover_after=3,
            drop_probability=0.1,
            latency_max=2,
            churn_fraction=0.1,
            churn_period=3,
        ).materialize(graph, 0)
        _assert_cross_engine_parity(
            graph, plan, lambda: WeightedMDSAlgorithm(epsilon=0.2), alpha=3
        )

    def test_randomized_algorithm_parity(self):
        graph = random_geometric_graph(70, radius=0.2, seed=3)
        plan = FAULT_MODELS["chaos"].materialize(graph, 5)
        _assert_cross_engine_parity(
            graph, plan, lambda: RandomizedMDSAlgorithm(t=2), seed=11, alpha=6
        )

    def test_repeated_runs_are_byte_identical(self):
        graph = preferential_attachment_graph(50, attachment=3, seed=1)
        plan = FAULT_MODELS["lossy25"].materialize(graph, 2)
        first = _trace(_run(graph, plan, "batched", RandomizedMDSAlgorithm(t=2), seed=4, alpha=3))
        second = _trace(_run(graph, plan, "batched", RandomizedMDSAlgorithm(t=2), seed=4, alpha=3))
        assert first == second

    @pytest.mark.slow
    @pytest.mark.parametrize("model", sorted(FAULT_MODELS))
    @pytest.mark.parametrize("family", ["ba", "grid", "rgg"])
    @pytest.mark.parametrize("cell_seed", [0, 2022])
    def test_fault_model_parity_grid(self, model, family, cell_seed):
        """The nightly fault-model parity grid: every catalogue regime on
        every fault-scenario family, both engines, byte-compared."""
        builders = {
            "ba": lambda: preferential_attachment_graph(90, attachment=3, seed=cell_seed),
            "grid": lambda: grid_graph(9, 10),
            "rgg": lambda: random_geometric_graph(90, radius=0.16, seed=cell_seed),
        }
        graph = builders[family]()
        plan = FAULT_MODELS[model].materialize(graph, cell_seed)
        _assert_cross_engine_parity(
            graph,
            plan,
            lambda: UnweightedMDSAlgorithm(epsilon=0.25),
            seed=cell_seed,
            alpha=max(1, min(8, max(dict(graph.degree()).values(), default=1))),
        )
