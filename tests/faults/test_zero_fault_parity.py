"""Zero-fault parity: an empty FaultPlan run is byte-identical to a plain run.

The hooked round loops the AdversarialEngine activates inside both engines
are *structurally* different from the plain loops (delivery goes through the
fault session's in-flight mailbox), so this equality is a real theorem about
the implementation, not a short-circuit: with an empty plan, both engines
must reproduce their plain executions bit for bit -- outputs, round counts,
the full pickled metrics trace.

The fast subset (every algorithm on two families) runs in tier-1; the full
7-algorithm x 8-family differential grid mirrors
``tests/congest/test_engine_parity.py`` and runs under ``pytest -m slow``
(wired into the nightly fault-model parity job).  The kernel tier is part
of the engine list: its round driver replays the hooked round loop as
array programs, and with an empty plan it must reproduce the plain kernel
execution bit for bit, exactly like the per-node engines.
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest

from repro.congest.simulator import run_algorithm
from repro.core.general_graphs import GeneralGraphMDSAlgorithm
from repro.core.randomized import RandomizedMDSAlgorithm
from repro.core.trees import ForestMDSAlgorithm
from repro.core.unknown_params import (
    UnknownArboricityMDSAlgorithm,
    UnknownDegreeMDSAlgorithm,
)
from repro.core.unweighted import UnweightedMDSAlgorithm
from repro.core.weighted import WeightedMDSAlgorithm
from repro.faults import AdversarialEngine, FaultPlan
from repro.graphs.generators import (
    caterpillar_graph,
    forest_union_graph,
    grid_graph,
    outerplanar_graph,
    planar_triangulation_graph,
    preferential_attachment_graph,
    random_tree,
)
from repro.graphs.weights import assign_random_weights

ENGINES = ("reference", "batched", "kernel")

#: The same 8 seeded families as the engine-parity differential grid.
FAMILIES = {
    "tree": (lambda size, seed: random_tree(size, seed=seed), 1),
    "grid": (lambda size, seed: grid_graph(5, max(2, size // 5)), 2),
    "forest-union": (lambda size, seed: forest_union_graph(size, alpha=3, seed=seed), 3),
    "ba": (lambda size, seed: preferential_attachment_graph(size, attachment=3, seed=seed), 3),
    "planar": (lambda size, seed: planar_triangulation_graph(size, seed=seed), 3),
    "outerplanar": (lambda size, seed: outerplanar_graph(size, seed=seed), 2),
    "caterpillar": (lambda size, seed: caterpillar_graph(max(2, size // 4), legs_per_node=3), 1),
    "gnp": (lambda size, seed: nx.gnp_random_graph(size, 0.15, seed=seed), None),
}

#: The 7 core algorithms, as in the engine-parity grid.
ALGORITHMS = {
    "unweighted": (lambda: UnweightedMDSAlgorithm(epsilon=0.2), False, {}),
    "weighted": (lambda: WeightedMDSAlgorithm(epsilon=0.2), True, {}),
    "randomized": (lambda: RandomizedMDSAlgorithm(t=2), False, {}),
    "general": (lambda: GeneralGraphMDSAlgorithm(k=2), False, {"use_alpha": False}),
    "forest": (lambda: ForestMDSAlgorithm(), False, {"use_alpha": False}),
    "unknown-delta": (
        lambda: UnknownDegreeMDSAlgorithm(epsilon=0.2),
        True,
        {"knows_max_degree": False},
    ),
    "unknown-alpha": (
        lambda: UnknownArboricityMDSAlgorithm(epsilon=0.25),
        True,
        {"use_alpha": False, "knows_max_degree": False},
    ),
}

#: Tier-1 keeps the grid light; the slow grid covers all 8 families.
FAST_FAMILIES = ("ba", "grid")


def _build_graph(family_key, size, seed, weighted):
    builder, alpha = FAMILIES[family_key]
    graph = builder(size, seed)
    if weighted:
        assign_random_weights(graph, 1, 25, seed=seed + 1)
    if alpha is None:
        from repro.graphs.arboricity import arboricity_upper_bound

        alpha = max(1, arboricity_upper_bound(graph))
    return graph, alpha


def _assert_empty_plan_parity(family_key, algorithm_key, size, seed):
    factory, weighted, options = ALGORITHMS[algorithm_key]
    graph, alpha = _build_graph(family_key, size, seed, weighted)
    kwargs = dict(seed=seed)
    if options.get("use_alpha", True):
        kwargs["alpha"] = alpha
    if not options.get("knows_max_degree", True):
        kwargs["knows_max_degree"] = False
    for inner in ENGINES:
        plain = run_algorithm(graph, factory(), engine=inner, **kwargs)
        hooked = run_algorithm(
            graph,
            factory(),
            engine=AdversarialEngine(FaultPlan(), inner=inner),
            **kwargs,
        )
        label = f"{algorithm_key}/{family_key}/{inner}"
        assert hooked.outputs == plain.outputs, label
        assert pickle.dumps(hooked.metrics) == pickle.dumps(plain.metrics), label


@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
@pytest.mark.parametrize("family_key", FAST_FAMILIES)
def test_empty_plan_byte_identical_fast(family_key, algorithm_key):
    _assert_empty_plan_parity(family_key, algorithm_key, size=40, seed=13)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
@pytest.mark.parametrize("family_key", sorted(FAMILIES))
@pytest.mark.parametrize("size", [12, 60, 120])
@pytest.mark.parametrize("seed", [0, 1, 2022])
def test_empty_plan_byte_identical_exhaustive(family_key, algorithm_key, size, seed):
    _assert_empty_plan_parity(family_key, algorithm_key, size=size, seed=seed)


def test_empty_plan_parity_on_corner_graphs():
    """Empty, single-node, isolated-only and disconnected graphs."""
    corner_graphs = [
        nx.empty_graph(0),
        nx.empty_graph(1),
        nx.empty_graph(7),
        nx.path_graph(2),
        nx.disjoint_union(nx.path_graph(3), nx.empty_graph(2)),
        nx.star_graph(9),
    ]
    for index, graph in enumerate(corner_graphs):
        for inner in ENGINES:
            plain = run_algorithm(
                graph, UnweightedMDSAlgorithm(epsilon=0.2), alpha=1, seed=index, engine=inner
            )
            hooked = run_algorithm(
                graph,
                UnweightedMDSAlgorithm(epsilon=0.2),
                alpha=1,
                seed=index,
                engine=AdversarialEngine(FaultPlan(), inner=inner),
            )
            assert hooked.outputs == plain.outputs, f"corner-{index}/{inner}"
            assert pickle.dumps(hooked.metrics) == pickle.dumps(plain.metrics)
