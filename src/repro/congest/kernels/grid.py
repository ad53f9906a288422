"""The flattened graph view the algorithm kernels execute against.

A :class:`KernelGrid` is pure topology plus node weights: the CSR arrays,
the degree vector, and -- lazily, because only some paths need them -- the
``repr``-order machinery that reproduces the algorithms' deterministic
tie-breaks, the directed-edge index and the :class:`Fold` layout of the
order-exact neighborhood sum.  It deliberately knows nothing
about a run's configuration (``alpha``, ``max_degree`` knowledge, budgets),
so one grid is shared by every execution on the same graph:

* built from a :class:`~repro.congest.network.Network`, it is cached on the
  network's :class:`~repro.congest.network.NetworkLayout` (the same object
  the batched engine and the fault runtime compile against);
* built from a :class:`~repro.graphs.large_scale.CSRGraph`, it wraps the
  streamed arrays directly -- no per-node Python objects are ever created,
  which is what lets ``engine="kernel"`` execute 10^5-node instances.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Hashable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.congest.kernels.csr import slice_positions

__all__ = [
    "FOLD_SLOTS",
    "Fold",
    "KernelGrid",
    "grid_from_network",
    "grid_from_csr",
    "output_dicts",
]

#: Neighbor slots the fold adds as contiguous array prefixes; a row's
#: entries past this many go to the in-order scatter tail.
FOLD_SLOTS = 32


class Fold(NamedTuple):
    """The closed-neighborhood sum's layout: rows by descending degree.

    Slot ``k`` of the first ``counts[k]`` sorted rows is their ``k``-th
    neighbor, so each of the first :data:`FOLD_SLOTS` slots is one contiguous
    prefix add.  ``senders`` holds those head neighbors slot-major
    (``head`` entries), then every row's neighbors past the last slot in
    row-major order, with their sorted-row positions in ``tail_rows``.
    """

    order: np.ndarray
    counts: List[int]
    head: int
    senders: np.ndarray
    tail_rows: np.ndarray


def _build_fold(indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray) -> Fold:
    # Index arrays stay ``intp``: NumPy casts any other index dtype to it on
    # every gather, which costs more than the narrower array saves.
    order = np.argsort(-degrees, kind="stable")
    sorted_degrees = degrees[order]
    starts = indptr[:-1][order]
    # Degrees descend along ``order``, so the rows with degree > k (slot k
    # occupied) are a prefix; the counts are non-increasing.
    counts = np.searchsorted(-sorted_degrees, -np.arange(FOLD_SLOTS), side="left")
    counts = [int(count) for count in counts if count]
    head = [indices[starts[:count] + slot] for slot, count in enumerate(counts)]
    long_rows = int(np.searchsorted(-sorted_degrees, -FOLD_SLOTS, side="left"))
    tail_lengths = sorted_degrees[:long_rows] - FOLD_SLOTS
    tail_rows = np.repeat(np.arange(long_rows), tail_lengths)
    tail = indices[slice_positions(starts[:long_rows] + FOLD_SLOTS, tail_lengths)]
    return Fold(
        order,
        counts,
        sum(counts),
        np.concatenate(head + [tail]).astype(np.intp, copy=False),
        tail_rows,
    )


class KernelGrid:
    """CSR topology + weights, with lazily built kernel machinery.

    ``indices`` must be sorted ascending within each node's slice (global
    node order -- the reference engine's inbox insertion order); both
    construction paths guarantee this.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "degrees",
        "weights",
        "node_order",
        "_first_neighbor",
        "_reprs",
        "_repr_rank",
        "_edge_src",
        "_edge_keys",
        "_fold",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        node_order: Sequence[Hashable],
        first_neighbor: Optional[Callable[[int], Hashable]] = None,
    ):
        self.n = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)
        self.weights = weights
        self.node_order = node_order
        self._first_neighbor = first_neighbor
        self._reprs: Optional[np.ndarray] = None
        self._repr_rank: Optional[np.ndarray] = None
        self._edge_src: Optional[np.ndarray] = None
        self._edge_keys: Optional[np.ndarray] = None
        self._fold: Optional[Fold] = None

    # -- tie-break machinery (lazy; only tie-breaking code paths pay) ------

    @property
    def reprs(self) -> np.ndarray:
        """``repr`` of every node id as a NumPy unicode array.

        NumPy's ``<U`` comparison is Python's ``str`` comparison, so
        elementwise tests on this array reproduce the algorithms'
        ``repr(u) < repr(v)`` tie-breaks exactly.
        """
        if self._reprs is None:
            self._reprs = np.array([repr(node) for node in self.node_order])
        return self._reprs

    @property
    def repr_rank(self) -> np.ndarray:
        """Rank of every node in ``sorted(nodes, key=repr)`` order.

        The stable sort breaks equal ``repr`` strings by node index, which
        matches ``sorted(inbox.items(), key=lambda item: repr(item[0]))``
        on an inbox whose insertion order is global node order.
        """
        if self._repr_rank is None:
            rank = np.empty(self.n, dtype=np.int64)
            rank[np.argsort(self.reprs, kind="stable")] = np.arange(self.n)
            self._repr_rank = rank
        return self._repr_rank

    # -- directed-edge index (lazy; built on first use) ---------------------

    @property
    def edge_src(self) -> np.ndarray:
        """Row (source node) of every directed edge, aligned with ``indices``."""
        if self._edge_src is None:
            self._edge_src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return self._edge_src

    @property
    def edge_keys(self) -> np.ndarray:
        """``src * n + dst`` of every directed edge, strictly increasing.

        Sorted rows make the keys ascending over the CSR edge order, so the
        position of ``src -> dst`` is a single ``searchsorted``.  (A
        shard-local grid's rows follow *global* order instead; the sharded
        runtime keeps its own permuted index.)
        """
        if self._edge_keys is None:
            self._edge_keys = self.edge_src * self.n + self.indices
        return self._edge_keys

    @property
    def fold(self) -> Fold:
        """The :class:`Fold` layout of the ordered neighborhood sum.

        Built from ``indptr``/``indices`` alone, never from :attr:`edge_src`,
        so fault-free runs that only sum keep the per-edge row column unbuilt.
        """
        if self._fold is None:
            self._fold = _build_fold(self.indptr, self.indices, self.degrees)
        return self._fold

    # -- error-path helpers ------------------------------------------------

    def first_neighbor_id(self, index: int) -> Hashable:
        """The receiver the reference engine names first in a violation.

        For network-backed grids this is the node's first *context* neighbor
        (original adjacency order); CSR-backed grids use the first CSR
        neighbor.  Only consulted when raising :class:`BandwidthViolation`.
        """
        if self._first_neighbor is not None:
            return self._first_neighbor(index)
        return self.node_order[int(self.indices[self.indptr[index]])]


def grid_from_network(network: Any) -> KernelGrid:
    """Build (or fetch the cached) grid for a compiled :class:`Network`."""
    layout = network.layout()
    grid = layout.kernel_grid
    if grid is None:
        indptr, indices, _ = layout.csr()
        contexts = layout.contexts
        weights = np.fromiter(
            (context.weight for context in contexts),
            dtype=np.int64,
            count=len(contexts),
        )
        grid = KernelGrid(
            indptr,
            indices,
            weights,
            layout.node_order,
            first_neighbor=lambda index: contexts[index].neighbors[0],
        )
        layout.kernel_grid = grid
    return grid


def grid_from_csr(csr_graph: Any) -> KernelGrid:
    """Build (or fetch the cached) grid for a streamed ``CSRGraph``."""
    grid = getattr(csr_graph, "_kernel_grid", None)
    if grid is None:
        weights = csr_graph.weight_array()
        grid = KernelGrid(
            csr_graph.indptr,
            csr_graph.indices,
            weights,
            # CSR node ids are positional, so range *is* the node order.
            range(csr_graph.n),
        )
        csr_graph._kernel_grid = grid
    return grid


def output_dicts(
    node_order: Sequence[Hashable], columns: "dict", count: Optional[int] = None
) -> "dict":
    """Zip per-node column lists into the reference ``outputs`` mapping.

    ``columns`` maps field name to a plain Python list (one entry per node,
    already converted to native scalars); the result is
    ``{node_id: {field: value, ...}, ...}`` in node order, matching what
    ``algorithm.output`` would have produced node by node.  ``count`` keeps
    only the first ``count`` nodes: a sharded worker ships its own rows and
    must not pay the per-node dict cost of its halo (on large hash
    partitions the halo is most of the local grid).
    """
    names = list(columns)
    value_rows = zip(*(columns[name] for name in names))
    pairs = zip(node_order, value_rows)
    if count is not None:
        pairs = islice(pairs, count)
    return {node: dict(zip(names, row)) for node, row in pairs}
