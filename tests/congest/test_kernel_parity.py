"""Cross-implementation differential grid for the kernel execution tier.

Every kerneled algorithm (the forest 3-approximation, the Theorem 1.1/3.1
primal-dual pair, both LW-style distributed greedy baselines, and the
unknown-max-degree Remark 4.4 variant) runs under all three engines --
reference oracle, batched, kernel -- across the eight seeded graph
families, weighted and unweighted.  The assertion is the strongest the
repository has: identical dominating sets and byte-identical results via
:func:`repro.run.result.result_bytes` (which covers the full ``RunMetrics``
trace, the per-node outputs, weights and validation flags).

The CSR-direct path gets the same treatment: a kernel run on a streamed
:class:`~repro.graphs.large_scale.CSRGraph` must be byte-identical to a
reference run on the equivalent ``networkx`` graph -- with and without a
fault plan (plans compile against the CSR arrays through
:meth:`~repro.faults.session.FaultSession.for_csr`).

The default grid keeps tier-1 fast; the exhaustive grid (families x sizes x
seeds x weightings) runs under ``pytest -m slow`` and in ``nightly.yml``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.congest.errors import EngineCapabilityError
from repro.graphs import large_scale
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
from repro.run import RunSpec, Session
from repro.run.result import result_bytes

ENGINES = ("reference", "batched", "kernel")

#: The eight families of the repository's differential grids.
FAMILIES = {
    "tree": (lambda size, seed: random_tree(size, seed=seed), 1),
    "caterpillar": (lambda size, seed: caterpillar_graph(max(2, size // 4), legs_per_node=3), 1),
    "grid": (lambda size, seed: grid_graph(5, max(2, size // 5)), 2),
    "outerplanar": (lambda size, seed: outerplanar_graph(size, seed=seed), 2),
    "planar": (lambda size, seed: planar_triangulation_graph(size, seed=seed), 3),
    "forest-union": (lambda size, seed: forest_union_graph(size, alpha=3, seed=seed), 3),
    "ba": (lambda size, seed: preferential_attachment_graph(size, attachment=3, seed=seed), 3),
    "gnp": (lambda size, seed: nx.gnp_random_graph(size, 0.15, seed=seed), None),
}

FAST_FAMILIES = ("tree", "grid", "forest-union", "ba")

#: Kerneled algorithms: registry name plus the weightings they accept.
#: ``deterministic`` on unit weights exercises UnweightedMDSAlgorithm,
#: ``weighted`` exercises WeightedMDSAlgorithm on both weightings, and
#: ``lw-deterministic`` is the unweighted distributed greedy baseline.
KERNELED = {
    "forest": (False,),
    "deterministic": (False,),
    "weighted": (False, True),
    "lw-deterministic": (False,),
    "lw-randomized": (False,),
    "unknown-degree": (False, True),
}


def _build(family_key, size, seed, weighted):
    builder, alpha = FAMILIES[family_key]
    graph = builder(size, seed)
    if weighted:
        assign_random_weights(graph, 1, 25, seed=seed + 1)
    if alpha is None:
        from repro.graphs.arboricity import arboricity_upper_bound

        alpha = max(1, arboricity_upper_bound(graph))
    return graph, alpha


def _run_grid_point(graph, alpha, algorithm, seed):
    results = {}
    for engine in ENGINES:
        spec = RunSpec(
            graph=graph, algorithm=algorithm, alpha=alpha, seed=seed, engine=engine
        )
        results[engine] = Session().run(spec)
    return results


def _assert_byte_identical(results, label):
    reference = results["reference"]
    for engine, result in results.items():
        assert result.dominating_set == reference.dominating_set, (
            f"{label}: dominating sets differ on {engine}"
        )
        assert result_bytes(result) == result_bytes(reference), (
            f"{label}: result bytes differ on {engine}"
        )


# --------------------------------------------------------------------------- #
# Fast grid (tier-1)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm", sorted(KERNELED))
@pytest.mark.parametrize("family_key", FAST_FAMILIES)
def test_kernel_byte_identical(family_key, algorithm):
    for weighted in KERNELED[algorithm]:
        graph, alpha = _build(family_key, size=40, seed=13, weighted=weighted)
        results = _run_grid_point(graph, alpha, algorithm, seed=13)
        _assert_byte_identical(
            results, f"{algorithm}/{family_key}/weighted={weighted}"
        )


def test_kernel_on_edge_case_graphs():
    corner_graphs = [
        nx.empty_graph(0),
        nx.empty_graph(1),
        nx.empty_graph(7),
        nx.path_graph(2),
        nx.disjoint_union(nx.path_graph(3), nx.empty_graph(2)),
        nx.disjoint_union(nx.path_graph(2), nx.path_graph(2)),  # two-node components
        nx.star_graph(9),
    ]
    for algorithm in sorted(KERNELED):
        for index, graph in enumerate(corner_graphs):
            results = _run_grid_point(graph, 1, algorithm, seed=index)
            _assert_byte_identical(results, f"{algorithm}/corner-{index}")


def test_csr_direct_path_byte_identical():
    """Kernel-on-CSRGraph == reference-on-networkx, byte for byte."""
    cases = [
        (large_scale.large_grid(6, 8), "deterministic"),
        (large_scale.large_preferential_attachment(60, attachment=3, seed=5), "deterministic"),
        (large_scale.large_preferential_attachment(60, attachment=3, seed=5), "forest"),
        (large_scale.large_random_geometric(70, 0.15, seed=3), "lw-deterministic"),
        (
            large_scale.random_integer_weights(
                large_scale.large_preferential_attachment(50, attachment=3, seed=2),
                1, 40, seed=9,
            ),
            "weighted",
        ),
    ]
    for csr, algorithm in cases:
        alpha = csr.alpha if csr.alpha is not None else None
        kernel_result = Session().run(
            RunSpec(graph=csr, algorithm=algorithm, alpha=alpha, engine="kernel")
        )
        reference_result = Session().run(
            RunSpec(
                graph=csr.to_networkx(), algorithm=algorithm, alpha=alpha,
                engine="reference",
            )
        )
        label = f"{csr.name}/{algorithm}"
        assert kernel_result.dominating_set == reference_result.dominating_set, label
        assert result_bytes(kernel_result) == result_bytes(reference_result), label


# --------------------------------------------------------------------------- #
# Error-path parity and capability boundaries
# --------------------------------------------------------------------------- #


def test_unit_weight_rejection_identical_across_engines():
    graph = random_tree(12, seed=0)
    assign_random_weights(graph, 2, 9, seed=1)
    messages = {}
    for engine in ENGINES:
        with pytest.raises(ValueError) as info:
            # algorithm="deterministic" would dispatch to WeightedMDS; force
            # the unweighted warm-up onto a weighted instance instead.
            from repro.core.unweighted import UnweightedMDSAlgorithm

            Session().run(
                RunSpec(
                    graph=graph, algorithm=UnweightedMDSAlgorithm(), alpha=1,
                    engine=engine,
                )
            )
        messages[engine] = str(info.value)
    assert len(set(messages.values())) == 1, messages


def _outcome(spec):
    """``result_bytes`` of a run, or the identifying fields of its error."""
    from repro.congest.errors import BandwidthViolation, NonConvergenceError

    try:
        return ("ok", result_bytes(Session().run(spec)))
    except NonConvergenceError as error:
        return ("round-limit", error.rounds, error.pending)
    except BandwidthViolation as error:
        return ("bandwidth", error.sender, error.receiver, error.bits, error.round_index)


def _outcomes_on_every_tier(csr, algorithm, **spec_fields):
    """Outcome per engine on ``csr.to_networkx()``, plus the CSR kernel and
    the sharded tier (2 shards on the networkx graph, 2 and 4 on the CSR)."""
    graph = csr.to_networkx()
    outcomes = {
        engine: _outcome(
            RunSpec(graph=graph, algorithm=algorithm, engine=engine, **spec_fields)
        )
        for engine in ENGINES
    }
    outcomes["kernel-csr"] = _outcome(
        RunSpec(graph=csr, algorithm=algorithm, engine="kernel", **spec_fields)
    )
    outcomes["sharded-2"] = _outcome(
        RunSpec(graph=graph, algorithm=algorithm, engine="sharded", shards=2, **spec_fields)
    )
    for shards in (2, 4):
        outcomes[f"sharded-csr-{shards}"] = _outcome(
            RunSpec(
                graph=csr, algorithm=algorithm, engine="sharded", shards=shards,
                **spec_fields,
            )
        )
    return outcomes


@pytest.mark.parametrize("max_rounds", [1, 2, 5])
@pytest.mark.parametrize("algorithm", sorted(KERNELED))
def test_round_limit_error_identical_across_engines(algorithm, max_rounds):
    csr = large_scale.large_preferential_attachment(30, attachment=3, seed=1)
    outcomes = _outcomes_on_every_tier(
        csr, algorithm, alpha=3, seed=4, max_rounds=max_rounds
    )
    assert len(set(outcomes.values())) == 1, outcomes
    if max_rounds == 1:
        assert outcomes["reference"][0] == "round-limit"


def _two_hub_graph(weighted):
    """40 nodes on a path, plus two hubs (5 and 17) adjacent to all others.

    With one word per message (6 bits at n=40) a hub's degree, span or
    closed degree does not fit, while most other nodes' payloads do -- so
    the first offender is not simply node 0.
    """
    others = [v for v in range(40) if v not in (5, 17)]
    edges = [(a, b) for a, b in zip(others, others[1:])]
    edges += [(hub, v) for hub in (5, 17) for v in others]
    edges.append((5, 17))
    u, v = (np.array(column, dtype=np.int64) for column in zip(*edges))
    csr = large_scale.csr_from_edges(40, u, v)
    if weighted:
        csr = large_scale.random_integer_weights(csr, 1, 4096, seed=3)
    return csr


@pytest.mark.parametrize(
    "algorithm, weighted",
    [(name, weighted) for name in sorted(KERNELED) for weighted in KERNELED[name]],
)
def test_strict_budget_violation_identical_across_engines(algorithm, weighted):
    """Same (sender, receiver, bits, round) on every tier, the CSR kernel
    and the sharded tier included: the per-node engines name the first
    offender in their delivery loop, the kernel driver in its emission, and
    the sharded coordinator picks the smallest global sender among its
    workers' candidates."""
    outcomes = _outcomes_on_every_tier(
        _two_hub_graph(weighted), algorithm, alpha=2, seed=4,
        bandwidth_words=1, strict=True,
    )
    assert len(set(outcomes.values())) == 1, outcomes
    # lw-deterministic only ever sends one-bit flags.
    expected = "ok" if algorithm == "lw-deterministic" else "bandwidth"
    assert outcomes["reference"][0] == expected, outcomes["reference"]


def test_kernel_falls_back_for_unkerneled_algorithms():
    graph = forest_union_graph(30, alpha=3, seed=2)
    results = {
        engine: Session().run(
            RunSpec(graph=graph, algorithm="randomized", alpha=3, engine=engine)
        )
        for engine in ("batched", "kernel")
    }
    assert result_bytes(results["kernel"]) == result_bytes(results["batched"])
    # The fallback is recorded, never disguised as a kernel execution.
    assert results["kernel"].engine_used == "batched"
    assert results["batched"].engine_used == "batched"


def test_engine_used_records_the_executing_tier():
    graph = grid_graph(5, 5)
    for engine in ENGINES:
        result = Session().run(
            RunSpec(graph=graph, algorithm="deterministic", alpha=2, engine=engine)
        )
        assert result.engine_used == engine


def test_kernel_runs_fault_plans():
    # The capability gap this file used to pin (kernel rejects faults) is
    # closed: a faulted kernel run is byte-identical to the reference.
    graph = grid_graph(5, 5)
    for faults in ("lossy10", "crash15", "latency2", "churn", "chaos"):
        results = {}
        for engine in ENGINES:
            spec = RunSpec(
                graph=graph, algorithm="deterministic", alpha=2,
                engine=engine, faults=faults, seed=3,
            )
            results[engine] = Session().run(spec)
        _assert_byte_identical(results, f"faults={faults}")
        assert results["kernel"].engine_used == "kernel"


def test_every_kerneled_algorithm_runs_every_fault_model_on_kernel():
    """The closed capability matrix: 6 kerneled algorithms x the full fault
    catalogue execute on the kernel tier itself (no fallback), byte-identical
    to the reference engine."""
    from repro.faults import FAULT_MODELS

    graph = preferential_attachment_graph(36, attachment=3, seed=4)
    for algorithm in sorted(KERNELED):
        for faults in sorted(FAULT_MODELS):
            spec = dict(algorithm=algorithm, alpha=3, seed=7, faults=faults)
            kernel = Session().run(RunSpec(graph=graph, engine="kernel", **spec))
            reference = Session().run(RunSpec(graph=graph, engine="reference", **spec))
            label = f"{algorithm}/{faults}"
            assert kernel.engine_used == "kernel", label
            assert result_bytes(kernel) == result_bytes(reference), label


def test_csr_rejects_non_kernel_engines_and_unkerneled_algorithms():
    csr = large_scale.large_grid(4, 4)
    with pytest.raises(EngineCapabilityError, match="engine='kernel'"):
        Session().run(RunSpec(graph=csr, algorithm="deterministic", engine="batched"))
    with pytest.raises(EngineCapabilityError, match="no kernel"):
        Session().run(RunSpec(graph=csr, algorithm="randomized", engine="kernel"))
    # The remaining unsupported cell of the capability matrix: an unkerneled
    # algorithm with faults on a CSR run names its exact coordinates.
    with pytest.raises(
        EngineCapabilityError,
        match=r"algorithm 'randomized' on engine='kernel' with faults",
    ):
        Session().run(
            RunSpec(
                graph=csr, algorithm="randomized", engine="kernel",
                faults="lossy10",
            )
        )


def test_csr_runs_fault_plans_byte_identical():
    """Kernel-on-CSRGraph under a fault model == reference-on-networkx under
    the identical materialised plan (FaultSpec sampling sees the same
    node/edge order on both representations)."""
    csr = large_scale.large_preferential_attachment(50, attachment=3, seed=6)
    for algorithm in ("deterministic", "forest", "lw-randomized"):
        for faults in ("crash-recover", "lossy10", "chaos"):
            kernel_result = Session().run(
                RunSpec(
                    graph=csr, algorithm=algorithm, alpha=csr.alpha,
                    engine="kernel", faults=faults, seed=2,
                )
            )
            reference_result = Session().run(
                RunSpec(
                    graph=csr.to_networkx(), algorithm=algorithm, alpha=csr.alpha,
                    engine="reference", faults=faults, seed=2,
                )
            )
            label = f"{algorithm}/{faults}"
            assert kernel_result.engine_used == "kernel", label
            assert result_bytes(kernel_result) == result_bytes(reference_result), label


def test_latencies_past_a_byte_match_the_reference():
    """The session hands out delays as ``uint8`` only when its largest
    latency is below 256; both widths deliver in the reference engine's
    order."""
    from repro.faults import FaultSpec
    from repro.faults.session import FaultSession

    csr = large_scale.large_preferential_attachment(40, attachment=3, seed=6)
    for latency_max, dtype in ((2, np.uint8), (300, np.int64)):
        faults = FaultSpec(latency_max=latency_max, drop_probability=0.1, seed=5)
        plan = faults.materialize(csr)
        assert FaultSession.for_csr(plan, csr).delay_dtype is dtype
        for algorithm in ("deterministic", "lw-randomized"):
            spec = dict(algorithm=algorithm, alpha=csr.alpha, faults=faults, seed=2)
            kernel = Session().run(RunSpec(graph=csr, engine="kernel", **spec))
            reference = Session().run(
                RunSpec(graph=csr.to_networkx(), engine="reference", **spec)
            )
            label = f"{algorithm}/latency_max={latency_max}"
            assert kernel.engine_used == "kernel", label
            assert kernel.metrics.total_delayed_messages > 0, label
            assert result_bytes(kernel) == result_bytes(reference), label


# --------------------------------------------------------------------------- #
# Exhaustive grid (pytest -m slow; nightly.yml kernel-parity job)
# --------------------------------------------------------------------------- #


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(KERNELED))
@pytest.mark.parametrize("family_key", sorted(FAMILIES))
@pytest.mark.parametrize("size", [12, 60, 120])
@pytest.mark.parametrize("seed", [0, 1, 2022])
def test_kernel_byte_identical_exhaustive(family_key, algorithm, size, seed):
    for weighted in KERNELED[algorithm]:
        graph, alpha = _build(family_key, size=size, seed=seed, weighted=weighted)
        results = _run_grid_point(graph, alpha, algorithm, seed=seed)
        _assert_byte_identical(
            results,
            f"{algorithm}/{family_key}/n={size}/seed={seed}/weighted={weighted}",
        )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 2022])
@pytest.mark.parametrize(
    "builder",
    [
        lambda seed: large_scale.large_preferential_attachment(300, attachment=4, seed=seed),
        lambda seed: large_scale.large_grid(12, 18),
        lambda seed: large_scale.large_random_geometric(250, 0.1, seed=seed),
        lambda seed: large_scale.random_integer_weights(
            large_scale.large_preferential_attachment(250, attachment=3, seed=seed),
            1, 60, seed=seed + 1,
        ),
    ],
)
def test_csr_direct_path_exhaustive(builder, seed):
    csr = builder(seed)
    for algorithm in ("deterministic", "weighted", "lw-deterministic"):
        kernel_result = Session().run(
            RunSpec(graph=csr, algorithm=algorithm, alpha=csr.alpha, engine="kernel", seed=seed)
        )
        reference_result = Session().run(
            RunSpec(
                graph=csr.to_networkx(), algorithm=algorithm, alpha=csr.alpha,
                engine="reference", seed=seed,
            )
        )
        assert result_bytes(kernel_result) == result_bytes(reference_result), (
            f"{csr.name}/{algorithm}/seed={seed}"
        )
