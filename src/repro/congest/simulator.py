"""The synchronous round executor.

The :class:`Simulator` owns the *model* parameters -- the CONGEST bandwidth
budget, the round limit, strictness -- and delegates the actual round loop to
a pluggable :class:`~repro.congest.engine.Engine`.  Four tiers ship with the
repository: the ``"reference"`` engine (the per-message oracle loop), the
``"batched"`` engine (a NumPy-vectorized fast path over CSR-style adjacency
arrays), the ``"kernel"`` engine (node-loop-free array programs) and the
``"sharded"`` engine (kernel programs partitioned across worker processes).
They are observationally identical; see :mod:`repro.congest.engine` and
``tests/congest/test_engine_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional

import networkx as nx

from repro.congest.algorithm import SynchronousAlgorithm
from repro.congest.engine import EngineSpec, get_engine
from repro.congest.message import word_size_bits
from repro.congest.metrics import RunMetrics
from repro.congest.network import Network

__all__ = ["Simulator", "RunResult", "run_algorithm", "resolve_budget_and_limit"]


def resolve_budget_and_limit(
    algorithm: SynchronousAlgorithm, network, bandwidth_words: int, max_rounds: int
):
    """Return ``(budget_bits, round_limit)`` for one execution.

    The one definition of the CONGEST budget formula and the round-limit
    min-merge, shared by :meth:`Simulator.run` and the network-free CSR
    kernel path -- ``network`` only needs ``n`` (and whatever the
    algorithm's ``max_rounds`` reads), so a ``CSRGraph`` qualifies.
    """
    budget = 0
    if algorithm.congest:
        budget = bandwidth_words * word_size_bits(max(2, network.n))
    limit = algorithm.max_rounds(network)
    if limit is None:
        limit = max_rounds
    return budget, min(limit, max_rounds)

#: Default multiple of ``log2(n)`` allowed per message.  The model allows any
#: fixed constant; 16 words comfortably fits the handful of scalar fields the
#: implemented algorithms exchange while still scaling as ``O(log n)``.
DEFAULT_BANDWIDTH_WORDS = 16

#: Default hard cap on rounds, as a safety net against non-terminating bugs.
DEFAULT_MAX_ROUNDS = 100_000


@dataclass
class RunResult:
    """Outputs plus metrics of one simulated execution."""

    algorithm_name: str
    outputs: Mapping[Hashable, Any]
    metrics: RunMetrics

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    def selected_mask(self):
        """The ``in_ds`` flags as a boolean array in node order, or ``None``.

        Only columnar outputs (the kernel and sharded tiers'
        :class:`~repro.congest.kernels.grid.NodeOutputs`) carry one; reading
        it builds no per-node dicts.
        """
        outputs = self.outputs
        if isinstance(outputs, dict):
            return None
        from repro.congest.kernels.grid import NodeOutputs

        if isinstance(outputs, NodeOutputs) and "in_ds" in outputs.columns:
            return outputs.flags("in_ds")
        return None

    def selected_nodes(self) -> set:
        """Return the nodes that joined the computed set.

        The dominating set algorithms in this repository output a mapping
        with an ``"in_ds"`` flag per node; plain truthy outputs are also
        accepted so simple algorithms can return booleans directly.
        Columnar outputs are read from their ``in_ds`` column
        (:meth:`selected_mask`) without building the per-node dicts.
        """
        mask = self.selected_mask()
        if mask is not None:
            import numpy as np

            return set(
                map(self.outputs.node_order.__getitem__, np.flatnonzero(mask).tolist())
            )
        selected = set()
        for node, value in self.outputs.items():
            if isinstance(value, dict):
                if value.get("in_ds"):
                    selected.add(node)
            elif value:
                selected.add(node)
        return selected


class Simulator:
    """Executes a :class:`SynchronousAlgorithm` on a :class:`Network`.

    Parameters
    ----------
    bandwidth_words:
        Per-message budget in units of ``ceil(log2(n + 1))`` bits.  Only
        enforced for algorithms with ``congest = True``.
    max_rounds:
        Hard limit on the number of rounds; exceeded limits raise
        :class:`NonConvergenceError`.  Algorithms may lower this via
        :meth:`SynchronousAlgorithm.max_rounds`.
    strict:
        When ``True`` (default) a bandwidth violation raises immediately;
        when ``False`` it is only recorded in the metrics (useful for
        exploratory runs).
    engine:
        Round-execution strategy: ``"reference"`` (per-message oracle loop),
        ``"batched"`` (vectorized fast path), ``"kernel"`` (array programs,
        batched fallback), ``"sharded"`` (partitioned kernel programs), an
        :class:`~repro.congest.engine.Engine` instance, or ``None`` for the
        process-wide default (initially ``"reference"``).  ``None`` is
        resolved at each :meth:`run`, so a later
        :func:`~repro.congest.engine.set_default_engine` affects already
        constructed simulators.
    """

    def __init__(
        self,
        bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        strict: bool = True,
        engine: EngineSpec = None,
    ):
        self.bandwidth_words = bandwidth_words
        self.max_rounds = max_rounds
        self.strict = strict
        get_engine(engine)  # fail fast on unknown engine names
        self.engine_spec = engine

    @property
    def engine(self):
        """The engine the next :meth:`run` will use."""
        return get_engine(self.engine_spec)

    def run(self, network: Network, algorithm: SynchronousAlgorithm) -> RunResult:
        """Run ``algorithm`` on ``network`` until all nodes finish."""
        network.reset()
        budget, limit = resolve_budget_and_limit(
            algorithm, network, self.bandwidth_words, self.max_rounds
        )

        outputs, metrics = self.engine.execute(
            network, algorithm, budget=budget, limit=limit, strict=self.strict
        )
        return RunResult(algorithm_name=algorithm.name, outputs=outputs, metrics=metrics)


def run_algorithm(
    graph: nx.Graph,
    algorithm: SynchronousAlgorithm,
    alpha: Optional[int] = None,
    config: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    knows_max_degree: bool = True,
    bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    strict: bool = True,
    engine: EngineSpec = None,
) -> RunResult:
    """Convenience wrapper: build a :class:`Network` and run ``algorithm`` on it.

    ``engine`` selects the round executor (``"reference"``, ``"batched"``,
    ``"kernel"`` or ``"sharded"``); see :class:`Simulator`.
    """
    network = Network(
        graph,
        alpha=alpha,
        config=config,
        seed=seed,
        knows_max_degree=knows_max_degree,
    )
    simulator = Simulator(
        bandwidth_words=bandwidth_words,
        max_rounds=max_rounds,
        strict=strict,
        engine=engine,
    )
    return simulator.run(network, algorithm)
