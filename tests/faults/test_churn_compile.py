"""Grouped churn compilation equals a sequential replay of the plan.

:class:`~repro.faults.session.FaultSession` compiles churn into one insert
group and one remove group per round, each deduplicated per undirected edge
and applied as a scatter.  These properties pin that against the plain
reading of the schedule: sort the events by round, inserts before removes
(stable, so plan order within a group), and toggle one link at a time.
The per-round link mask and live-edge count must agree on both session
kinds -- a ``Network`` session and a CSR session -- for hand-built plans
that name one edge several times in a round, in either orientation, and
leave some rounds without events.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.network import Network
from repro.faults import FAULT_MODELS, ChurnEvent, FaultPlan
from repro.faults.session import FaultSession
from repro.graphs.large_scale import csr_from_networkx, large_preferential_attachment


def _replay(graph, plan, rounds):
    """Per-round ``{undirected edge: alive}`` by toggling events one by one."""
    alive = {frozenset(edge): True for edge in graph.edges()}
    ordered = sorted(plan.churn, key=lambda e: (e.round_index, e.action != "insert"))
    states = []
    for round_index in range(rounds):
        for event in ordered:
            if event.round_index == round_index:
                alive[frozenset((event.u, event.v))] = event.action == "insert"
        states.append(dict(alive))
    return states


def _assert_matches_replay(session, graph, plan, rounds):
    n = len(session.node_order)
    src = np.repeat(np.arange(n), np.diff(np.asarray(session._indptr)))
    dst = np.asarray(session._indices)
    labels = list(session.node_order)
    reports = not plan.is_empty()  # empty plans report no topology
    for round_index, expected in enumerate(_replay(graph, plan, rounds)):
        session.begin_round(round_index)
        mask = [expected[frozenset((labels[s], labels[d]))] for s, d in zip(src, dst)]
        assert session._alive.tolist() == mask, f"round {round_index}"
        live = sum(expected.values()) if reports else None
        assert session.live_edge_count() == live, f"round {round_index}"


def _sessions(graph, plan):
    yield FaultSession(plan, Network(graph))
    yield FaultSession.for_csr(plan, csr_from_networkx(graph))


@st.composite
def _graph_and_plan(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    graph = nx.gnp_random_graph(n, 0.5, seed=draw(st.integers(0, 10_000)))
    edges = list(graph.edges())
    if not edges:
        graph.add_edge(0, 1)
        edges = [(0, 1)]
    event = st.tuples(
        st.integers(min_value=0, max_value=6),  # round (7 rounds, most empty)
        st.sampled_from(("remove", "insert")),
        st.integers(min_value=0, max_value=len(edges) - 1),
        st.booleans(),  # name the edge as (v, u)
    )
    events = []
    for round_index, action, k, flipped in draw(st.lists(event, max_size=24)):
        u, v = edges[k]
        events.append(ChurnEvent(round_index, action, *((v, u) if flipped else (u, v))))
    # Duplicate some events verbatim, anywhere in the plan.
    for index in draw(st.lists(st.integers(0, max(len(events) - 1, 0)), max_size=4)):
        if events:
            events.insert(draw(st.integers(0, len(events))), events[index])
    return graph, FaultPlan(churn=tuple(events))


class TestGroupedChurnEqualsReplay:
    @settings(max_examples=60, deadline=None)
    @given(_graph_and_plan())
    def test_random_plans(self, case):
        graph, plan = case
        for session in _sessions(graph, plan):
            _assert_matches_replay(session, graph, plan, rounds=9)

    @pytest.mark.parametrize(
        "events",
        [
            # One edge inserted and removed in the same round: removed.
            [("remove", 0, (0, 1)), ("insert", 2, (0, 1)), ("remove", 2, (0, 1))],
            # ... listed remove-first: still removed (inserts apply first).
            [("remove", 0, (0, 1)), ("remove", 2, (0, 1)), ("insert", 2, (0, 1))],
            # The same event duplicated: one toggle, one count.
            [("remove", 1, (1, 2)), ("remove", 1, (1, 2)), ("insert", 3, (1, 2))],
            # The same edge named both ways in one group.
            [("remove", 1, (1, 2)), ("remove", 1, (2, 1)), ("insert", 4, (2, 1))],
            # Inserting a live edge changes nothing.
            [("insert", 0, (0, 1)), ("insert", 0, (1, 0))],
            # Rounds without events between churn rounds.
            [("remove", 0, (2, 3)), ("insert", 5, (2, 3))],
        ],
    )
    def test_named_cases(self, events):
        graph = nx.cycle_graph(5)
        plan = FaultPlan(
            churn=tuple(ChurnEvent(r, action, u, v) for action, r, (u, v) in events)
        )
        for session in _sessions(graph, plan):
            _assert_matches_replay(session, graph, plan, rounds=7)

    def test_chaos_plan_takes_the_grouped_path(self, monkeypatch):
        # A chaos round re-inserts the previous sample and removes a fresh
        # one, so one edge can appear in both groups of a round; that must
        # compile without falling back to the per-event error scan.
        def no_fallback(*args, **kwargs):
            raise AssertionError("churn compile fell back to the scalar path")

        monkeypatch.setattr(FaultSession, "_raise_churn_error", no_fallback)
        monkeypatch.setattr(FaultSession, "_directed_pair", no_fallback)
        csr = large_preferential_attachment(60, attachment=2, seed=3)
        graph = csr.to_networkx()
        spec = FAULT_MODELS["chaos"]
        rounds = spec.churn_period * (spec.churn_epochs + 1) + 2
        both_groups = 0  # rounds that re-insert and remove one edge
        for seed in range(4):
            plan = spec.materialize(csr, seed)
            session = FaultSession.for_csr(plan, csr)
            both_groups += sum(
                np.intersect1d(insert_uv, remove_uv).size > 0
                for insert_uv, _, remove_uv, _ in session._churn_events.values()
            )
            _assert_matches_replay(session, graph, plan, rounds=rounds)
            _assert_matches_replay(FaultSession(plan, Network(graph)), graph, plan, rounds)
        assert both_groups
