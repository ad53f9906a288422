"""Byte-parity and behavior gates for the sharded execution tier.

The sharded engine hash-partitions a graph across worker processes and
exchanges only boundary messages; its entire contract is **byte identity**
with the single-process kernel tier -- same ``result_bytes`` (outputs,
rounds, full ``RunMetrics`` trace) for every kerneled algorithm -- and
**shard-count independence**: 1, 2, 4 and 7 shards (including more shards
than nodes) all produce those same bytes.

Tier-1 runs a fast subset (two families, all six kerneled algorithms, the
shard-count sweep on two representative algorithms, plus the error paths:
capability skips, non-convergence parity, and a SIGKILLed worker that must
surface as a clean error rather than a hang).  The exhaustive grid --
every family x algorithm x weighting x shard count -- is ``-m slow`` and
runs in ``nightly.yml``.
"""

from __future__ import annotations

import os
import signal

import networkx as nx
import pytest

from repro.congest.errors import EngineCapabilityError, NonConvergenceError
from repro.graphs import large_scale
from repro.graphs.generators import (
    forest_union_graph,
    grid_graph,
    preferential_attachment_graph,
    random_tree,
)
from repro.graphs.weights import assign_random_weights
from repro.run import RunSpec, Session
from repro.run.result import result_bytes

SHARD_COUNTS = (1, 2, 4, 7)

#: (builder, alpha) -- the same seeded families the kernel parity grid uses.
FAMILIES = {
    "tree": (lambda size, seed: random_tree(size, seed=seed), 1),
    "grid": (lambda size, seed: grid_graph(5, max(2, size // 5)), 2),
    "forest-union": (lambda size, seed: forest_union_graph(size, alpha=3, seed=seed), 3),
    "ba": (lambda size, seed: preferential_attachment_graph(size, attachment=3, seed=seed), 3),
}

FAST_FAMILIES = ("tree", "ba")

#: Kerneled algorithms and the weightings they accept (mirrors the kernel
#: parity grid; the sharded tier distributes exactly these programs).
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
    return graph, alpha


def _run(graph, algorithm, alpha, seed, engine, shards=None, **overrides):
    spec = RunSpec(
        graph=graph,
        algorithm=algorithm,
        alpha=alpha,
        seed=seed,
        engine=engine,
        shards=shards,
        **overrides,
    )
    return Session().run(spec)


def _assert_sharded_matches_kernel(graph, algorithm, alpha, seed, shard_counts, label):
    kernel = _run(graph, algorithm, alpha, seed, "kernel")
    expected = result_bytes(kernel)
    assert kernel.engine_used == "kernel"
    for shards in shard_counts:
        sharded = _run(graph, algorithm, alpha, seed, "sharded", shards=shards)
        assert sharded.engine_used == "sharded", label
        assert result_bytes(sharded) == expected, (
            f"{label}: shards={shards} diverges from the kernel engine"
        )


# --------------------------------------------------------------------------- #
# Fast grid (tier-1)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm", sorted(KERNELED))
@pytest.mark.parametrize("family_key", FAST_FAMILIES)
def test_sharded_byte_identical_fast(family_key, algorithm):
    for weighted in KERNELED[algorithm]:
        graph, alpha = _build(family_key, size=40, seed=13, weighted=weighted)
        _assert_sharded_matches_kernel(
            graph, algorithm, alpha, 13, (2,),
            f"{algorithm}/{family_key}/weighted={weighted}",
        )


@pytest.mark.parametrize("algorithm", ("forest", "lw-randomized"))
def test_shard_count_independence(algorithm):
    """1, 2, 4 and 7 shards produce one byte stream (7 > several shard loads)."""
    graph, alpha = _build("ba", size=40, seed=13, weighted=False)
    _assert_sharded_matches_kernel(
        graph, algorithm, alpha, 13, SHARD_COUNTS, f"{algorithm}/shard-sweep"
    )


def test_more_shards_than_nodes():
    """Empty shards are legal: shards=7 on a 3-node path still agrees."""
    _assert_sharded_matches_kernel(
        nx.path_graph(3), "deterministic", 1, 5, (7,), "path-3/shards=7"
    )


def test_sharded_on_edge_case_graphs():
    corner_graphs = [
        nx.empty_graph(0),
        nx.empty_graph(1),
        nx.star_graph(9),
        nx.disjoint_union(nx.path_graph(3), nx.empty_graph(2)),
    ]
    for index, graph in enumerate(corner_graphs):
        _assert_sharded_matches_kernel(
            graph, "deterministic", 1, index, (3,), f"corner-{index}"
        )


def test_csr_direct_sharded_byte_identical():
    """CSRGraph specs run shard-partitioned without ever building a network."""
    csr = large_scale.large_preferential_attachment(300, attachment=3, seed=7)
    for algorithm in ("forest", "deterministic"):
        _assert_sharded_matches_kernel(
            csr, algorithm, None, 3, (1, 4), f"csr/{algorithm}"
        )


# --------------------------------------------------------------------------- #
# Error paths
# --------------------------------------------------------------------------- #


def test_nonconvergence_parity():
    """A too-small round limit raises the same NonConvergenceError shape."""
    graph, alpha = _build("ba", size=40, seed=13, weighted=False)
    errors = {}
    for engine in ("kernel", "sharded"):
        with pytest.raises(NonConvergenceError) as excinfo:
            _run(graph, "deterministic", alpha, 13, engine, max_rounds=1)
        errors[engine] = excinfo.value
    assert errors["sharded"].rounds == errors["kernel"].rounds
    assert str(errors["sharded"]) == str(errors["kernel"])


def test_faulted_cells_raise_structured_capability_error():
    graph, alpha = _build("tree", size=20, seed=3, weighted=False)
    with pytest.raises(EngineCapabilityError) as excinfo:
        _run(graph, "deterministic", alpha, 0, "sharded", faults="crash15")
    assert excinfo.value.cell == ("deterministic", "sharded", "crash15")

    csr = large_scale.large_preferential_attachment(50, attachment=3, seed=1)
    with pytest.raises(EngineCapabilityError) as excinfo:
        _run(csr, "forest", None, 0, "sharded", faults="crash15")
    assert excinfo.value.cell == ("forest", "sharded", "crash15")

    # Direct simulator users have no spec: the cell names the algorithm
    # instance and a generic fault label.
    from repro.congest.network import Network
    from repro.congest.simulator import Simulator
    from repro.core.unweighted import UnweightedMDSAlgorithm
    from repro.faults import AdversarialEngine

    simulator = Simulator(engine=AdversarialEngine(None, inner="sharded"))
    with pytest.raises(EngineCapabilityError) as excinfo:
        simulator.run(Network(graph, alpha=alpha), UnweightedMDSAlgorithm())
    assert excinfo.value.cell == ("dory-ghaffari-ilchi-unweighted", "sharded", "faulted")


def test_unkerneled_algorithm_raises_capability_error():
    graph, alpha = _build("tree", size=20, seed=3, weighted=False)
    with pytest.raises(EngineCapabilityError) as excinfo:
        _run(graph, "general", alpha, 0, "sharded")
    assert excinfo.value.engine == "sharded"
    assert excinfo.value.fault_model is None


def test_shards_requires_sharded_engine():
    graph = nx.path_graph(4)
    with pytest.raises(ValueError, match="shards must be >= 1"):
        RunSpec(graph=graph, algorithm="deterministic", engine="sharded", shards=0)
    with pytest.raises(ValueError, match="shards requires engine='sharded'"):
        RunSpec(graph=graph, algorithm="deterministic", engine="kernel", shards=2)
    # Engine left to the session default: the session rejects the knob too,
    # because an implicit default must never silently become multi-process.
    spec = RunSpec(graph=graph, algorithm="deterministic", shards=2)
    with pytest.raises(ValueError, match="shards requires"):
        Session().run(spec)


def test_worker_crash_surfaces_as_clean_error(monkeypatch):
    """A SIGKILLed worker breaks the barrier; the run errors, never hangs."""
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("crash injection relies on fork inheriting the patch")
    from repro.congest import kernels
    from repro.congest.kernels.grid import grid_from_csr
    from repro.congest.sharded import engine as sharded_engine
    from repro.congest.sharded.shmem import TransportError
    from repro.core.trees import ForestMDSAlgorithm

    def _crash_program(grid, config, algorithm, seed, n_global):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(
        kernels.KERNELS,
        "repro.core.trees.ForestMDSAlgorithm",
        _crash_program,
    )
    csr = large_scale.large_preferential_attachment(60, attachment=3, seed=2)
    grid = grid_from_csr(csr)
    with pytest.raises(TransportError, match="died mid-run|transport broke"):
        sharded_engine.run_sharded_program(
            grid,
            {"n": csr.n, "max_degree": csr.max_degree, "alpha": 3},
            ForestMDSAlgorithm(),
            budget=32,
            limit=50,
            strict=True,
            seed=0,
            shards=2,
            start_method="fork",
            barrier_timeout=10.0,
        )


# --------------------------------------------------------------------------- #
# Exhaustive grid (nightly, -m slow)
# --------------------------------------------------------------------------- #


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(KERNELED))
@pytest.mark.parametrize("family_key", sorted(FAMILIES))
def test_sharded_full_grid(family_key, algorithm):
    for weighted in KERNELED[algorithm]:
        for seed in (3, 13):
            graph, alpha = _build(family_key, size=60, seed=seed, weighted=weighted)
            _assert_sharded_matches_kernel(
                graph, algorithm, alpha, seed, SHARD_COUNTS,
                f"{algorithm}/{family_key}/weighted={weighted}/seed={seed}",
            )
