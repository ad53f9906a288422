"""Determinism regression tests: same seed => byte-identical runs.

The network seeds every node's private RNG from ``f"{seed}:{node_id!r}"``, so
a fixed ``(graph, algorithm, seed)`` triple must reproduce *exactly* the same
execution -- outputs, round count, and the full per-round metrics trace --
across repeated runs and across both engines.  This locks down the RNG
threading through :class:`RandomizedMDSAlgorithm`: any engine that called a
node's RNG a different number of times, or consulted a shared stream, would
change the byte-level trace even when the final dominating set happens to
agree.
"""

from __future__ import annotations

import pickle

import pytest

from repro.congest.engine import universal_engines
from repro.congest.simulator import run_algorithm
from repro.core.general_graphs import GeneralGraphMDSAlgorithm
from repro.core.randomized import RandomizedMDSAlgorithm
from repro.graphs.generators import forest_union_graph, preferential_attachment_graph


def _trace(graph, algorithm_factory, seed, engine, **kwargs):
    """Run and serialise everything observable about the execution.

    ``engine_used`` is normalised away: it names the executing engine by
    design, which is exactly what the cross-engine traces must ignore.
    """
    import dataclasses

    result = run_algorithm(graph, algorithm_factory(), seed=seed, engine=engine, **kwargs)
    metrics = dataclasses.replace(result.metrics, engine_used=None)
    # dict(): kernel-tier outputs are a lazy column view that pickles as
    # columns; its materialised dicts are what the engines must agree on.
    return pickle.dumps((result.algorithm_name, dict(result.outputs), metrics))


@pytest.mark.parametrize("engine", sorted(universal_engines()))
def test_randomized_same_seed_byte_identical_across_runs(engine):
    graph = forest_union_graph(60, alpha=3, seed=17)
    first = _trace(graph, lambda: RandomizedMDSAlgorithm(t=2), 42, engine, alpha=3)
    second = _trace(graph, lambda: RandomizedMDSAlgorithm(t=2), 42, engine, alpha=3)
    assert first == second


def test_randomized_same_seed_byte_identical_across_engines():
    graph = preferential_attachment_graph(70, attachment=3, seed=23)
    traces = {
        engine: _trace(graph, lambda: RandomizedMDSAlgorithm(t=2), 7, engine, alpha=3)
        for engine in universal_engines()
    }
    assert len(set(traces.values())) == 1, "engines produced different byte-level traces"


def test_general_graph_algorithm_deterministic_across_engines():
    graph = preferential_attachment_graph(60, attachment=4, seed=3)
    traces = {
        engine: _trace(graph, lambda: GeneralGraphMDSAlgorithm(k=2), 11, engine)
        for engine in universal_engines()
    }
    assert len(set(traces.values())) == 1


@pytest.mark.parametrize("engine", sorted(universal_engines()))
def test_different_seeds_differ(engine):
    """Sanity check that the trace actually depends on the seed (the
    byte-identical assertions above would pass vacuously otherwise)."""
    graph = preferential_attachment_graph(70, attachment=3, seed=23)
    a = _trace(graph, lambda: RandomizedMDSAlgorithm(t=1), 1, engine, alpha=3)
    b = _trace(graph, lambda: RandomizedMDSAlgorithm(t=1), 2, engine, alpha=3)
    assert a != b
