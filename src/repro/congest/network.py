"""Communication network wrapping an input graph."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from repro.congest.node import NodeContext
from repro.graphs.weights import node_weight

__all__ = ["Network", "NetworkLayout", "shared_config"]


def shared_config(
    n: int,
    max_degree: int,
    alpha: Optional[int],
    config: Optional[Mapping[str, Any]],
    knows_max_degree: bool,
) -> Mapping[str, Any]:
    """Assemble the read-only globally-known config mapping.

    The one definition of the n / ``max_degree`` / ``alpha`` / extras
    precedence, shared by :class:`Network` construction, :meth:`Network.rebind`
    and the network-free CSR kernel path (:meth:`repro.run.session.Session`),
    so the three can never drift apart.
    """
    shared: Dict[str, Any] = {"n": n}
    if knows_max_degree:
        shared["max_degree"] = max_degree
    if alpha is not None:
        shared["alpha"] = alpha
    if config:
        shared.update(config)
    return MappingProxyType(shared)


class NetworkLayout:
    """Flattened, engine-agnostic adjacency state of one :class:`Network`.

    Everything in here is a pure function of the network's (static) topology:
    the global node order, index lookups, per-node neighbor index lists, the
    neighbor lists re-sorted by global node order (the batched engine's inbox
    insertion order), and -- lazily, because they need NumPy -- the degree
    vector and a CSR over directed edges (used by the fault runtime).

    Engines used to rebuild all of this at the top of every execution; the
    layout is computed once per :class:`Network` (see :meth:`Network.layout`)
    and shared across runs, which is what makes a compiled
    :class:`repro.run.Session` cheap to re-execute.
    """

    __slots__ = (
        "node_order",
        "index_of",
        "contexts",
        "neighbor_indices",
        "sorted_neighbor_ids",
        "kernel_grid",
        "_degrees",
        "_csr",
    )

    def __init__(self, network: "Network"):
        self.node_order: List[Hashable] = list(network.node_ids())
        self.index_of: Dict[Hashable, int] = {
            node_id: index for index, node_id in enumerate(self.node_order)
        }
        self.contexts: List[NodeContext] = [
            network.context(node_id) for node_id in self.node_order
        ]
        index_of = self.index_of
        #: Neighbor indices in each context's own neighbor order (the order
        #: the reference engine's per-delivery loops iterate in).
        self.neighbor_indices: List[List[int]] = [
            [index_of[u] for u in context.neighbors] for context in self.contexts
        ]
        #: Neighbor ids sorted by global node order: the reference engine
        #: inserts deliveries while looping over senders in node order, so a
        #: receiver scanning its neighbors in this order rebuilds the
        #: identical inbox key sequence.
        node_order = self.node_order
        self.sorted_neighbor_ids: List[List[Hashable]] = [
            [node_order[j] for j in sorted(indices)] for indices in self.neighbor_indices
        ]
        #: Cached :class:`repro.congest.kernels.grid.KernelGrid` (set by
        #: ``grid_from_network`` on first kernel-engine execution).
        self.kernel_grid = None
        self._degrees = None
        self._csr = None

    @property
    def degrees(self):
        """Per-node degree vector as an ``int64`` NumPy array (lazy)."""
        if self._degrees is None:
            import numpy as np

            self._degrees = np.fromiter(
                (len(context.neighbors) for context in self.contexts),
                dtype=np.int64,
                count=len(self.contexts),
            )
        return self._degrees

    def csr(self) -> Tuple[Any, Any, Dict[Tuple[int, int], int]]:
        """CSR over directed edges, neighbor lists sorted by global order.

        Returns ``(indptr, indices, edge_pos)`` where ``edge_pos`` maps a
        directed ``(sender index, receiver index)`` pair to its position in
        ``indices``.  Built lazily (NumPy) and cached; the fault runtime
        compiles its per-edge arrays against this layout.
        """
        if self._csr is None:
            import numpy as np

            n = len(self.node_order)
            indptr = np.zeros(n + 1, dtype=np.int64)
            indices_list: List[int] = []
            edge_pos: Dict[Tuple[int, int], int] = {}
            for i, neighbor_indices in enumerate(self.neighbor_indices):
                for j in sorted(neighbor_indices):
                    edge_pos[(i, j)] = len(indices_list)
                    indices_list.append(j)
                indptr[i + 1] = len(indices_list)
            self._csr = (indptr, np.asarray(indices_list, dtype=np.int64), edge_pos)
        return self._csr


class Network:
    """The communication network of the CONGEST model.

    The network is identical to the input graph (Section 2 of the paper):
    every graph node is a processor and every edge a bidirectional link.

    Parameters
    ----------
    graph:
        The input graph.  Node weights are read from the ``"weight"``
        attribute (defaulting to 1).
    alpha:
        The arboricity upper bound that is assumed to be global knowledge.
        ``None`` models the "unknown alpha" setting of Remark 4.5.
    config:
        Additional globally known parameters (e.g. ``epsilon``); merged into
        each node's read-only ``config`` mapping together with ``n``,
        ``max_degree`` and ``alpha``.
    seed:
        Seed from which every node derives its private random stream.
    knows_max_degree:
        Set to ``False`` to model the "unknown Delta" setting of Remark 4.4;
        the ``max_degree`` entry is then omitted from the node config.
    """

    def __init__(
        self,
        graph: nx.Graph,
        alpha: Optional[int] = None,
        config: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        knows_max_degree: bool = True,
    ):
        if graph.is_directed() or graph.is_multigraph():
            raise TypeError("the CONGEST network requires a simple undirected graph")
        self.graph = graph
        self.seed = seed
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        degrees = dict(graph.degree())
        self.max_degree = max(degrees.values(), default=0)
        self.alpha = alpha

        self.config: Mapping[str, Any] = shared_config(
            self.n, self.max_degree, alpha, config, knows_max_degree
        )

        self.nodes: Dict[Hashable, NodeContext] = {}
        for node in graph.nodes():
            self.nodes[node] = NodeContext(
                node_id=node,
                weight=node_weight(graph, node),
                neighbors=tuple(graph.neighbors(node)),
                config=self.config,
                seed=seed,
            )
        self._layout: Optional[NetworkLayout] = None

    def layout(self) -> NetworkLayout:
        """The flattened adjacency layout, computed once and cached.

        The topology of a network is immutable (contexts capture their
        neighbor tuples at construction), so the layout never needs
        invalidation; engines and the fault runtime share it across runs.
        """
        if self._layout is None:
            self._layout = NetworkLayout(self)
        return self._layout

    def rebind(
        self,
        alpha: Optional[int],
        config: Optional[Mapping[str, Any]] = None,
        knows_max_degree: bool = True,
    ) -> None:
        """Swap the globally known parameters without rebuilding the network.

        Rebuilds the shared read-only config mapping exactly as the
        constructor would for the same arguments and points every node
        context at it.  Used by :class:`repro.run.Session` to reuse one
        compiled network across runs that differ in ``alpha`` /
        ``knows_max_degree`` / extra config entries.
        """
        self.alpha = alpha
        self.config = shared_config(
            self.n, self.max_degree, alpha, config, knows_max_degree
        )
        for node in self.nodes.values():
            node.config = self.config

    def node_ids(self) -> Iterable[Hashable]:
        """Iterate over the node identifiers in a deterministic order."""
        return self.graph.nodes()

    def context(self, node_id: Hashable) -> NodeContext:
        """Return the :class:`NodeContext` of ``node_id``."""
        return self.nodes[node_id]

    def are_neighbors(self, u: Hashable, v: Hashable) -> bool:
        """Return ``True`` iff ``u`` and ``v`` share an edge."""
        return self.graph.has_edge(u, v)

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear all per-node state so another algorithm can run on the network.

        With ``seed`` given, additionally rewind every node's private random
        stream to its start for that seed, making the network
        indistinguishable from a freshly constructed ``Network(graph,
        seed=seed, ...)``.  Without it the current streams are kept (the
        historical behavior, relied on by callers that reset between phases
        of one logical execution).
        """
        if seed is not None:
            self.seed = seed
        for node in self.nodes.values():
            node.state.clear()
            node._finished = False
            node._wake = 0
            if seed is not None:
                node.reseed(seed)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(n={self.n}, m={self.m}, max_degree={self.max_degree}, alpha={self.alpha})"
