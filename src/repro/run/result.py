"""The result type shared by every execution path.

:func:`package_result` (and :func:`package_result_csr` for streamed CSR
graphs) is the one place a raw simulator
:class:`~repro.congest.simulator.RunResult` is turned into a verified,
user-facing :class:`DominatingSetResult`, under an explicit validation
policy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Optional, Set

import networkx as nx

from repro.congest.metrics import RunMetrics
from repro.congest.simulator import RunResult
from repro.graphs.validation import dominating_set_weight, is_dominating_set

__all__ = ["DominatingSetResult", "package_result", "package_result_csr", "result_bytes"]


@dataclass
class DominatingSetResult:
    """The outcome of running one dominating-set algorithm on one graph.

    ``is_valid`` is ``True``/``False`` when the output was checked against
    the graph (the default policy), and ``None`` when the run was executed
    with ``validate="skip"`` -- unknown, not valid.

    ``outputs`` is the per-node ``{node: {field: value}}`` mapping.  On the
    kernel and sharded tiers it is a lazy
    :class:`~repro.congest.kernels.grid.NodeOutputs` over the program's
    columns: the dicts are built on first read, so runs whose consumers
    only read the set and the weight never build them.
    """

    algorithm: str
    dominating_set: Set[Hashable]
    weight: int
    rounds: int
    is_valid: Optional[bool]
    metrics: RunMetrics
    outputs: Mapping[Hashable, Any] = field(repr=False, default_factory=dict)
    guarantee: Optional[float] = None

    def __len__(self) -> int:
        return len(self.dominating_set)

    @property
    def engine_used(self) -> Optional[str]:
        """The engine that actually executed the run.

        ``"kernel"`` only when a true array kernel ran; a kernel request
        that fell back to the batched engine reports ``"batched"``, so a
        benchmark can no longer mistake a fallback run for a kernel run.
        """
        return self.metrics.engine_used


def package_result(
    graph: nx.Graph,
    result: RunResult,
    guarantee: Optional[float] = None,
    validate: bool = True,
) -> DominatingSetResult:
    """Package a simulator run into a :class:`DominatingSetResult`.

    ``validate=False`` skips the independent dominating-set re-check (an
    ``O(n + m)`` pass) and records ``is_valid=None``; the weight is always
    computed -- it is cheap and every consumer reads it.
    """
    selected = result.selected_nodes()
    return DominatingSetResult(
        algorithm=result.algorithm_name,
        dominating_set=selected,
        weight=dominating_set_weight(graph, selected),
        rounds=result.rounds,
        is_valid=is_dominating_set(graph, selected) if validate else None,
        metrics=result.metrics,
        outputs=result.outputs,
        guarantee=guarantee,
    )


def package_result_csr(
    csr_graph,
    result: RunResult,
    guarantee: Optional[float] = None,
    validate: bool = True,
) -> DominatingSetResult:
    """:func:`package_result` for CSR-backed kernel runs.

    Weight and the optional domination re-check run as array reductions
    over the CSR layout (:mod:`repro.graphs.large_scale`) instead of graph
    traversals, on the run's ``in_ds`` mask when its outputs are columns,
    so packaging stays cheap at 10^5 nodes and builds no per-node dicts.
    """
    import numpy as np

    from repro.graphs.large_scale import csr_is_dominating_set

    selected = result.selected_nodes()
    mask = result.selected_mask()
    if mask is None:
        mask = np.zeros(csr_graph.n, dtype=bool)
        mask[np.fromiter(selected, dtype=np.int64, count=len(selected))] = True
    weight = int(csr_graph.weight_array()[mask].sum())
    return DominatingSetResult(
        algorithm=result.algorithm_name,
        dominating_set=selected,
        weight=weight,
        rounds=result.rounds,
        is_valid=csr_is_dominating_set(csr_graph, mask) if validate else None,
        metrics=result.metrics,
        outputs=result.outputs,
        guarantee=guarantee,
    )


def result_bytes(result: DominatingSetResult) -> bytes:
    """A canonical byte form of everything a result observably carries.

    Two executions are "byte-identical" exactly when their ``result_bytes``
    agree; this is the comparator behind every new-vs-legacy parity gate
    (``python -m repro.run.smoke``, ``tests/run/test_parity_grid.py``, the
    E13 benchmark).  The set is serialised in sorted-repr order so iteration
    order can never mask or fake a difference.

    ``RunMetrics.engine_used`` is normalised away: it names the engine that
    ran, which by design differs between the executions this comparator is
    meant to prove equivalent.  Read it off ``result.engine_used`` directly
    when the identity of the executing engine is the thing under test.
    """
    from dataclasses import replace

    outputs = result.outputs
    if not isinstance(outputs, dict):
        from repro.congest.kernels.grid import NodeOutputs

        if isinstance(outputs, NodeOutputs):
            outputs = outputs.as_dict()
    return pickle.dumps(
        (
            result.algorithm,
            sorted(map(repr, result.dominating_set)),
            result.weight,
            result.rounds,
            result.is_valid,
            replace(result.metrics, engine_used=None),
            outputs,
            result.guarantee,
        )
    )
