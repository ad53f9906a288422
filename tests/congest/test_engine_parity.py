"""Differential test harness: the two engines are observationally identical.

The batched engine is only allowed to be *faster* than the reference engine,
never *different*: same per-node outputs, same round counts, same per-round
message/bit/active metrics, same exceptions.  This module runs every core
algorithm on a grid of seeded graph families under both engines and compares
the full observable behavior.

Equality here is strict on purpose.  Several algorithms fold floating point
packing values from their inbox in iteration order, so even the *insertion
order* of inbox entries is part of the observable contract -- comparing
pickled metrics byte-for-byte catches any divergence a tolerant comparison
would mask.

The default grid (every algorithm x four families) keeps tier-1 runs fast;
the exhaustive grid over extra families, sizes and seeds runs under
``pytest -m slow``.
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest

from repro.congest.engine import available_engines, get_engine, universal_engines
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
from repro.graphs.generators import (
    caterpillar_graph,
    forest_union_graph,
    grid_graph,
    outerplanar_graph,
    planar_triangulation_graph,
    preferential_attachment_graph,
    random_tree,
)
from repro.graphs.validation import is_dominating_set
from repro.graphs.weights import assign_random_weights

# --------------------------------------------------------------------------- #
# The grid
# --------------------------------------------------------------------------- #

#: Seeded graph families.  Each entry is ``name -> (builder, alpha)`` where the
#: builder takes a size knob and a seed.  ``alpha`` is the arboricity bound
#: passed to the algorithms that require it.
FAMILIES = {
    "tree": (lambda size, seed: random_tree(size, seed=seed), 1),
    "grid": (lambda size, seed: grid_graph(5, max(2, size // 5)), 2),
    "forest-union": (lambda size, seed: forest_union_graph(size, alpha=3, seed=seed), 3),
    "ba": (lambda size, seed: preferential_attachment_graph(size, attachment=3, seed=seed), 3),
}

#: Extra families for the exhaustive (slow) grid.
SLOW_FAMILIES = {
    "planar": (lambda size, seed: planar_triangulation_graph(size, seed=seed), 3),
    "outerplanar": (lambda size, seed: outerplanar_graph(size, seed=seed), 2),
    "caterpillar": (lambda size, seed: caterpillar_graph(max(2, size // 4), legs_per_node=3), 1),
    "gnp": (lambda size, seed: nx.gnp_random_graph(size, 0.15, seed=seed), None),
}

#: ``name -> (algorithm factory, needs_weights, run_algorithm kwargs)``.
#: The six core algorithms of the paper plus the unweighted warm-up.
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


def _build_graph(family, size, seed, weighted):
    builder, alpha = family
    graph = builder(size, seed)
    if weighted:
        assign_random_weights(graph, 1, 25, seed=seed + 1)
    return graph, alpha


def _run_both(graph, alpha, algorithm_key, seed):
    """Run the algorithm under each engine on a fresh network; return results."""
    factory, _, options = ALGORITHMS[algorithm_key]
    kwargs = dict(seed=seed)
    if options.get("use_alpha", True):
        kwargs["alpha"] = alpha
    if not options.get("knows_max_degree", True):
        kwargs["knows_max_degree"] = False
    return {
        engine: run_algorithm(graph, factory(), engine=engine, **kwargs)
        for engine in universal_engines()
    }


def _assert_observationally_identical(results, label):
    reference = results["reference"]
    # engine_used is the one field that legitimately differs across engines
    # -- it names the tier that ran -- so normalize it before the
    # byte-for-byte metrics comparison below.
    for result in results.values():
        result.metrics.engine_used = None
    for engine, result in results.items():
        if engine == "reference":
            continue
        assert result.outputs == reference.outputs, f"{label}: outputs differ on {engine}"
        assert result.rounds == reference.rounds, f"{label}: rounds differ on {engine}"
        assert result.metrics.total_messages == reference.metrics.total_messages, label
        assert result.metrics.total_bits == reference.metrics.total_bits, label
        assert result.metrics.max_message_bits == reference.metrics.max_message_bits, label
        assert (
            result.metrics.bandwidth_budget_bits == reference.metrics.bandwidth_budget_bits
        ), label
        for ref_round, other_round in zip(
            reference.metrics.per_round, result.metrics.per_round
        ):
            assert ref_round == other_round, f"{label}: round {ref_round.round_index} differs"
        # Belt and braces: the full metrics object, byte for byte.
        assert pickle.dumps(result.metrics) == pickle.dumps(reference.metrics), label


# --------------------------------------------------------------------------- #
# Default grid: every algorithm x four seeded families
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
@pytest.mark.parametrize("family_key", sorted(FAMILIES))
def test_engines_identical(family_key, algorithm_key):
    weighted = ALGORITHMS[algorithm_key][1]
    graph, alpha = _build_graph(FAMILIES[family_key], size=40, seed=13, weighted=weighted)
    results = _run_both(graph, alpha, algorithm_key, seed=13)
    _assert_observationally_identical(results, f"{algorithm_key}/{family_key}")


@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
def test_dominating_outputs_agree_and_validate(algorithm_key):
    """Both engines select the same, valid dominating set (except the partial
    trees/general corner cases, which still must agree)."""
    weighted = ALGORITHMS[algorithm_key][1]
    graph, alpha = _build_graph(FAMILIES["forest-union"], size=45, seed=5, weighted=weighted)
    results = _run_both(graph, alpha, algorithm_key, seed=5)
    selections = {engine: result.selected_nodes() for engine, result in results.items()}
    reference_selection = selections["reference"]
    assert all(sel == reference_selection for sel in selections.values())
    if algorithm_key != "forest":  # the forest 3-approx is only meaningful on forests
        assert is_dominating_set(graph, reference_selection)


def test_engines_identical_on_edge_case_graphs():
    """Empty, single-node, disconnected and self-loop-free corner graphs."""
    corner_graphs = [
        nx.empty_graph(0),
        nx.empty_graph(1),
        nx.empty_graph(7),  # isolated nodes only
        nx.path_graph(2),
        nx.disjoint_union(nx.path_graph(3), nx.empty_graph(2)),
        nx.star_graph(9),
    ]
    for index, graph in enumerate(corner_graphs):
        results = _run_both(graph, 1, "unweighted", seed=index)
        _assert_observationally_identical(results, f"corner-{index}")


# --------------------------------------------------------------------------- #
# Exhaustive grid (runs under ``pytest -m slow``)
# --------------------------------------------------------------------------- #


@pytest.mark.slow
@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
@pytest.mark.parametrize("family_key", sorted({**FAMILIES, **SLOW_FAMILIES}))
@pytest.mark.parametrize("size", [12, 60, 120])
@pytest.mark.parametrize("seed", [0, 1, 2022])
def test_engines_identical_exhaustive(family_key, algorithm_key, size, seed):
    families = {**FAMILIES, **SLOW_FAMILIES}
    weighted = ALGORITHMS[algorithm_key][1]
    graph, alpha = _build_graph(families[family_key], size=size, seed=seed, weighted=weighted)
    if alpha is None:  # gnp: certify an arboricity bound via degeneracy
        from repro.graphs.arboricity import arboricity_upper_bound

        alpha = max(1, arboricity_upper_bound(graph))
    results = _run_both(graph, alpha, algorithm_key, seed=seed)
    _assert_observationally_identical(
        results, f"{algorithm_key}/{family_key}/n={size}/seed={seed}"
    )


def test_engines_identical_with_type_punned_payloads():
    """Payload values that compare equal but differ in type (1 == 1.0 == True)
    have different wire-format sizes; every engine must charge each round's
    payload by its own type, never by an equal-comparing earlier one."""
    from repro.congest.algorithm import SynchronousAlgorithm
    from repro.congest.message import Broadcast

    class TypePunned(SynchronousAlgorithm):
        name = "type-punned"

        def round(self, node, round_index, inbox):
            payloads = [{"v": 1.0}, {"v": 1}, {"v": True}, {"v": 1.0}]
            if round_index < len(payloads):
                return Broadcast(payloads[round_index])
            node.state["output"] = sorted(
                (type(m["v"]).__name__, m["v"]) for m in inbox.values()
            )
            node.finish()
            return None

    graph = nx.path_graph(5)
    results = {
        engine: run_algorithm(graph, TypePunned(), engine=engine)
        for engine in universal_engines()
    }
    reference = results["reference"]
    for result in results.values():
        result.metrics.engine_used = None
    for engine, result in results.items():
        assert result.outputs == reference.outputs, engine
        assert pickle.dumps(result.metrics) == pickle.dumps(reference.metrics), engine
    # float (2 words) costs more than int 1 (2 bits) and bool (1 bit);
    # per-round bits must reflect each round's actual payload type.
    per_round_bits = [r.bits for r in reference.metrics.per_round]
    assert per_round_bits[0] > per_round_bits[1] > per_round_bits[2]
    assert per_round_bits[3] == per_round_bits[0]


# --------------------------------------------------------------------------- #
# Engine registry behavior
# --------------------------------------------------------------------------- #


class TestEngineRegistry:
    def test_available_engines(self):
        assert set(available_engines()) >= {"reference", "batched"}

    def test_get_engine_accepts_instances_and_classes(self):
        from repro.congest.engine import BatchedEngine, ReferenceEngine

        instance = BatchedEngine()
        assert get_engine(instance) is instance
        assert isinstance(get_engine(ReferenceEngine), ReferenceEngine)
        assert get_engine("reference").name == "reference"

    def test_get_engine_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp-drive")

    def test_default_engine_roundtrip(self):
        from repro.congest.engine import get_default_engine, set_default_engine

        original = get_default_engine()
        try:
            previous = set_default_engine("batched")
            assert previous == original
            assert get_engine(None).name == "batched"
        finally:
            set_default_engine(original)

    def test_set_default_engine_rejects_unknown(self):
        from repro.congest.engine import set_default_engine

        with pytest.raises(ValueError, match="unknown engine"):
            set_default_engine("warp-drive")
