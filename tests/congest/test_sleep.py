"""Sleep promises (``NodeContext.sleep_until``) on the batched engine.

A node that promises to be idle until round ``r`` is not called while its
inbox is empty, and a round in which every active node sleeps with no mail
in flight is counted without calling anyone.  The reference engine ignores
the promise and calls every node, so each test here byte-compares the
batched engine against it: outputs, rounds, per-round metrics and errors.
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest

from repro import RunSpec, Session, execute
from repro.congest.algorithm import SynchronousAlgorithm
from repro.congest.errors import NonConvergenceError
from repro.congest.message import Broadcast
from repro.congest.simulator import run_algorithm
from repro.graphs.generators import random_bounded_arboricity_graph
from repro.obs.trace import FileTracer, load_trace, validate_trace
from repro.run.result import result_bytes

ENGINES = ("reference", "batched")


class _Counted(SynchronousAlgorithm):
    """Counts its ``round`` calls on the instance (no node state is touched)."""

    def __init__(self):
        self.calls = 0

    def round(self, node, round_index, inbox):
        self.calls += 1
        return self.step(node, round_index, inbox)

    def step(self, node, round_index, inbox):
        raise NotImplementedError


class MailWakesSleeper(_Counted):
    """Node 0 sleeps until round 10; node 1 pings it in round 3."""

    name = "mail-wakes-sleeper"

    def setup(self, node):
        node.state["output"] = []

    def step(self, node, round_index, inbox):
        log = node.state["output"]
        if node.node_id == 0:
            if round_index == 0:
                node.sleep_until(10)
            elif inbox:
                log.append(("mail", round_index, sorted(inbox)))
            elif round_index >= 10:
                log.append(("awake", round_index))
                node.finish()
            return None
        if round_index == 3 and node.node_id == 1:
            return Broadcast({"ping": True})
        if round_index >= 5:
            node.finish()
        return None


class StaggeredWake(_Counted):
    """Every node sleeps until its own round and then finishes; no mail at all."""

    name = "staggered-wake"

    def step(self, node, round_index, inbox):
        wake = 4 + 3 * node.node_id
        if round_index == 0:
            node.sleep_until(wake)
        elif round_index >= wake:
            node.state["output"] = round_index
            node.finish()
        return None


class SleepsPastLimit(_Counted):
    """Sleeps until round 50 under a round limit of 20."""

    name = "sleeps-past-limit"

    def step(self, node, round_index, inbox):
        if round_index == 0:
            node.sleep_until(50)
            return Broadcast({"hello": True})
        return None

    def max_rounds(self, network):
        return 20


def _run_both(graph, factory, **kwargs):
    results, calls = {}, {}
    for engine in ENGINES:
        algorithm = factory()
        results[engine] = run_algorithm(graph, algorithm, engine=engine, **kwargs)
        results[engine].metrics.engine_used = None
        calls[engine] = algorithm.calls
    reference, batched = results["reference"], results["batched"]
    assert batched.outputs == reference.outputs
    assert pickle.dumps(batched.metrics) == pickle.dumps(reference.metrics)
    return reference, calls


def test_mail_wakes_a_sleeper_for_the_next_round():
    reference, calls = _run_both(nx.path_graph(4), MailWakesSleeper)
    assert reference.outputs[0] == [("mail", 4, [1]), ("awake", 10)]
    assert reference.rounds == 11
    # Rounds 6-9 hold node 0 alone, asleep: active but never called.
    assert [r.active_nodes for r in reference.metrics.per_round[6:10]] == [1, 1, 1, 1]
    assert calls["batched"] < calls["reference"]


def test_sleepers_wake_by_round_alone():
    reference, calls = _run_both(nx.path_graph(5), StaggeredWake)
    assert reference.outputs == {i: 4 + 3 * i for i in range(5)}
    assert reference.rounds == 17
    assert [r.active_nodes for r in reference.metrics.per_round] == [
        5 - max(0, (index - 2) // 3) for index in range(17)
    ]
    # Round 0 and each node's wake round: the jumps skip everything else.
    assert (calls["batched"], calls["reference"]) == (10, 55)


def test_round_limit_inside_a_sleep_raises_identically():
    errors = {}
    for engine in ENGINES:
        with pytest.raises(NonConvergenceError) as caught:
            run_algorithm(nx.cycle_graph(6), SleepsPastLimit(), engine=engine)
        errors[engine] = caught.value
    assert errors["batched"].rounds == errors["reference"].rounds == 20
    assert errors["batched"].pending == errors["reference"].pending == 6
    assert str(errors["batched"]) == str(errors["reference"])


def test_traced_batched_run_stamps_every_skipped_round(tmp_path):
    path = tmp_path / "sleep.jsonl"
    spec = RunSpec(graph=nx.path_graph(5), algorithm=StaggeredWake(), engine="batched")
    with FileTracer(path) as tracer:
        result = Session().run(spec, tracer=tracer)
    records = load_trace(path)
    assert validate_trace(records) == []
    rounds = [record for record in records if record["type"] == "round"]
    assert len(rounds) == result.metrics.rounds == 17
    assert all(isinstance(record["t_start_s"], float) for record in rounds)


def test_reused_session_network_clears_sleep_promises():
    """A sweep cell runs several recipes on one compiled network: the
    unknown-arboricity peel leaves wake rounds behind that the next run
    must not inherit."""
    graph = random_bounded_arboricity_graph(60, alpha=2, seed=3)
    specs = [
        RunSpec(graph=graph, algorithm=algorithm, seed=3, engine="batched")
        for algorithm in ("unknown-arboricity", "randomized")
    ]
    session = Session()
    for spec in specs:
        assert result_bytes(session.run(spec)) == result_bytes(execute(spec))
