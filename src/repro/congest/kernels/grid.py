"""The flattened graph view the algorithm kernels execute against.

A :class:`KernelGrid` is pure topology plus node weights: the CSR arrays,
the degree vector, and -- lazily, because only some paths need them -- the
``repr``-order machinery that reproduces the algorithms' deterministic
tie-breaks (every node's rank and the rank order itself) and the
directed-edge index.  The order-exact neighborhood sum needs no layout of
its own: it gathers the summed rows' CSR slices.  It deliberately knows nothing
about a run's configuration (``alpha``, ``max_degree`` knowledge, budgets),
so one grid is shared by every execution on the same graph:

* built from a :class:`~repro.congest.network.Network`, it is cached on the
  network's :class:`~repro.congest.network.NetworkLayout` (the same object
  the batched engine and the fault runtime compile against);
* built from a :class:`~repro.graphs.large_scale.CSRGraph`, it wraps the
  streamed arrays directly -- no per-node Python objects are ever created,
  which is what lets ``engine="kernel"`` execute 10^5-node instances.

Programs hand their results back the same way: :func:`output_dicts` wraps
the output columns in a :class:`NodeOutputs`, which reads as the reference
per-node dicts but builds them only when something reads them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "KernelGrid",
    "NodeOutputs",
    "grid_from_network",
    "grid_from_csr",
    "output_dicts",
]

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
        "_node_by_rank",
        "_edge_src",
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
        self._node_by_rank: Optional[np.ndarray] = None
        self._edge_src: Optional[np.ndarray] = None

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
    def node_by_rank(self) -> np.ndarray:
        """Node indices in ``sorted(nodes, key=repr)`` order.

        The stable sort breaks equal ``repr`` strings by node index, which
        matches ``sorted(inbox.items(), key=lambda item: repr(item[0]))``
        on an inbox whose insertion order is global node order.
        """
        if self._node_by_rank is None:
            self._node_by_rank = np.argsort(self.reprs, kind="stable")
        return self._node_by_rank

    @property
    def repr_rank(self) -> np.ndarray:
        """Rank of every node in :attr:`node_by_rank` (its inverse)."""
        if self._repr_rank is None:
            rank = np.empty(self.n, dtype=np.int64)
            rank[self.node_by_rank] = np.arange(self.n)
            self._repr_rank = rank
        return self._repr_rank

    # -- directed-edge index (lazy; built on first use) ---------------------

    @property
    def edge_src(self) -> np.ndarray:
        """Row (source node) of every directed edge, aligned with ``indices``."""
        if self._edge_src is None:
            self._edge_src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return self._edge_src

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


@lru_cache(maxsize=64)
def _row_maker(names: Tuple[str, ...]) -> Callable[..., dict]:
    """A function building one row dict from ``len(names)`` positional values.

    Its body is a dict display with ``names`` as constant keys, which builds
    a row faster than ``dict(zip(names, row))``; every row it builds shares
    one key object per field, so pickling a mapping of rows (with its memo)
    gives the same bytes either way.  One maker is compiled per name tuple.
    """
    params = [f"v{index}" for index in range(len(names))]
    display = ", ".join(f"{name!r}: {param}" for name, param in zip(names, params))
    return eval(f"lambda {', '.join(params)}: {{{display}}}")


def _stored(column: Any, count: int) -> Any:
    """``column`` as kept: arrays become read-only views of ``count`` rows."""
    if isinstance(column, tuple):
        return tuple(_stored(part, count) for part in column)
    if not isinstance(column, np.ndarray):
        return column
    view = column[:count]
    view.flags.writeable = False
    return view


def _column_values(column: Any, count: int) -> Iterable:
    """One column's per-node values as native Python scalars."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    if isinstance(column, tuple):
        values, known = column
        values = values.tolist()
        for index in np.flatnonzero(~known).tolist():
            values[index] = None
        return values
    return repeat(column, count)


class NodeOutputs(Mapping):
    """A program's per-node outputs as node-ordered columns, read as dicts.

    ``columns`` maps field name to one of: a NumPy array (one entry per
    node), an ``(array, known)`` pair whose value is ``None`` where ``known``
    is false, or a scalar shared by every node.  Arrays are stored as
    read-only views of the first ``count`` rows.

    As a :class:`~collections.abc.Mapping` it is exactly the reference
    ``{node_id: {field: value, ...}}`` outputs -- same node order, same
    field order, native scalars -- built on first read and cached, so a
    run whose consumers read only the columns never builds the dicts.
    Pickling ships the node order and the columns, never the dicts.
    """

    __slots__ = ("node_order", "count", "columns", "_dicts")

    def __init__(
        self, node_order: Sequence[Hashable], columns: Dict[str, Any],
        count: Optional[int] = None,
    ):
        count = len(node_order) if count is None else count
        self.node_order = node_order
        self.count = count
        self.columns = {name: _stored(column, count) for name, column in columns.items()}
        self._dicts: Optional[dict] = None

    def as_dict(self) -> dict:
        """The ``{node_id: {field: value}}`` dict (built once, then cached)."""
        if self._dicts is None:
            rows = map(
                _row_maker(tuple(self.columns)),
                *(_column_values(c, self.count) for c in self.columns.values()),
            )
            self._dicts = dict(zip(self.node_order, rows))
        return self._dicts

    def flags(self, name: str) -> np.ndarray:
        """Array column ``name`` as a (read-only) boolean array over the rows."""
        return self.columns[name].astype(bool, copy=False)

    def __getitem__(self, node: Hashable) -> dict:
        return self.as_dict()[node]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.as_dict())

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeOutputs):
            other = other.as_dict()
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.as_dict() == other

    def __repr__(self) -> str:
        return f"NodeOutputs({self.count} nodes, fields={list(self.columns)})"

    def __reduce__(self):
        node_order = self.node_order
        if len(node_order) != self.count:
            node_order = node_order[: self.count]
        return NodeOutputs, (node_order, self.columns, self.count)


def output_dicts(
    node_order: Sequence[Hashable], columns: Dict[str, Any], count: Optional[int] = None
) -> NodeOutputs:
    """A program's ``outputs``: a lazy :class:`NodeOutputs` over ``columns``.

    ``columns`` maps field name to a NumPy array, an ``(array, known)`` pair
    or a constant (see :class:`NodeOutputs`); reading the result as a
    mapping gives ``{node_id: {field: value, ...}, ...}`` in node order,
    matching what ``algorithm.output`` would have produced node by node.
    ``count`` keeps only the first ``count`` nodes: a sharded worker ships
    its own rows, not its halo (on large hash partitions the halo is most
    of the local grid).
    """
    return NodeOutputs(node_order, columns, count)
