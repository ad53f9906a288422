"""Node partitioning and per-shard local CSR construction.

Ownership is a pure hash of the *global node index* (splitmix64 modulo the
shard count), so a partition is deterministic in ``(n, shards)`` and needs
no coordination.  Each shard's local universe is

* its **own** nodes (ascending global index), whose CSR rows are complete --
  every global neighbor appears, renumbered to a local id, with the row's
  global-ascending neighbor order preserved; followed by
* its **halo** nodes (ascending global index): foreign neighbors of own
  nodes.  Halo rows are empty (degree 0) -- halo state is written only by
  the round's incoming message lanes.

Keeping rows in global neighbor order (rather than sorted local ids) is
what lets the worker's pull-based inbox assembly replay the reference
engine's per-receiver insertion order exactly; the price is that local
``(src, dst) -> edge position`` lookups need an argsort permutation, which
:class:`~repro.congest.sharded.halo.ShardedRun` builds once.

The boundary tables are precomputed here, in the coordinator, per directed
shard pair ``(a, b)``:

* **node lanes** -- own nodes of ``a`` with at least one neighbor owned by
  ``b``, ascending global.  The mirror on ``b`` (halo nodes owned by ``a``,
  ascending global) is positionally identical, so a lane is just packed
  parallel arrays with no per-message framing.
* **edge lanes** -- the directed cross edges ``u in a -> v in b`` in
  canonical ``(u_global, v_global)`` order, with the receiver-side mirror
  carrying the local receiver id and the sender's halo and global ids.

Every global directed edge lands in exactly one shard's local rows, and
every cross edge in exactly one out-lane and its mirror -- the round-trip
property the hypothesis suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["GlobalIds", "ShardPlan", "ShardSpec", "build_partition", "shard_owner"]


def shard_owner(n: int, shards: int) -> np.ndarray:
    """Owner shard of every global node index: ``splitmix64(i) % shards``.

    splitmix64 is the standard 64-bit finalizer -- cheap, stateless, and
    well-mixed, so shard loads are balanced without any graph knowledge.
    ``shards == 1`` short-circuits to zeros (the identity partition).
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return np.zeros(n, dtype=np.int64)
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(shards)).astype(np.int64)


class GlobalIds:
    """A ``node_order`` over global *positional* ids, backed by an array.

    Wraps the concatenated own+halo global-index array so local grids on
    CSR-backed runs never materialise a Python list per node; ``__getitem__``
    and iteration yield plain Python ints (``repr`` of a NumPy scalar would
    poison the tie-break machinery).
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray):
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [int(value) for value in self._ids[index]]
        return int(self._ids[index])

    def __iter__(self):
        return iter(self._ids.tolist())


@dataclass
class ShardSpec:
    """Everything one worker needs about its shard (picklable, array-backed)."""

    index: int
    n_global: int
    own: np.ndarray  # global indices of owned nodes, ascending
    halo: np.ndarray  # global indices of halo nodes, ascending
    indptr: np.ndarray  # local CSR over own rows + empty halo rows
    indices: np.ndarray  # local ids, global-ascending within each row
    weights: np.ndarray
    labels: Sequence  # global node ids/labels for own + halo, local order
    firsts: Optional[List] = None  # first-neighbor labels per own node (network grids)
    # Directed boundary tables, keyed by peer shard:
    out_nodes: Dict[int, np.ndarray] = field(default_factory=dict)  # local own ids
    in_nodes: Dict[int, np.ndarray] = field(default_factory=dict)  # local halo ids
    out_edge_keys: Dict[int, np.ndarray] = field(default_factory=dict)  # sorted src*ln+dst
    in_recv: Dict[int, np.ndarray] = field(default_factory=dict)  # local own recv ids
    in_send: Dict[int, np.ndarray] = field(default_factory=dict)  # local halo sender ids
    in_send_global: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def own_count(self) -> int:
        return int(self.own.size)

    @property
    def local_n(self) -> int:
        return int(self.own.size + self.halo.size)


@dataclass
class ShardPlan:
    """A full partition: ownership vector, shard specs, and lane sizing."""

    shards: int
    owner: np.ndarray
    specs: List[ShardSpec]
    node_counts: np.ndarray  # [a, b] = node-lane width of directed pair a -> b
    edge_counts: np.ndarray  # [a, b] = edge-lane width of directed pair a -> b

    @property
    def boundary_nodes(self) -> int:
        return int(self.node_counts.sum())

    @property
    def boundary_edges(self) -> int:
        return int(self.edge_counts.sum())


def build_partition(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    shards: int,
    *,
    node_labels: Optional[Sequence] = None,
    first_neighbor: Optional[Any] = None,
) -> ShardPlan:
    """Partition a global CSR graph into ``shards`` worker-local shards.

    ``node_labels`` is the global ``node_order`` (omit for positional CSR
    graphs, where labels *are* the global indices); ``first_neighbor`` is
    the optional label callback network-backed grids use for bandwidth
    violations -- it is evaluated here, in the coordinator, because the
    callback closes over per-node contexts and cannot cross the process
    boundary.
    """
    n = len(indptr) - 1
    owner = shard_owner(n, shards)
    degrees = np.diff(indptr).astype(np.int64)
    node_counts = np.zeros((shards, shards), dtype=np.int64)
    edge_counts = np.zeros((shards, shards), dtype=np.int64)
    specs: List[ShardSpec] = []
    positional = node_labels is None

    per_shard = []
    for k in range(shards):
        own = np.flatnonzero(owner == k)
        take = _row_positions(indptr, own)
        nbr = indices[take].astype(np.int64)
        nbr_owner = owner[nbr]
        own_deg = degrees[own]
        row_of_edge = np.repeat(np.arange(own.size, dtype=np.int64), own_deg)
        foreign = nbr_owner != k
        halo = np.unique(nbr[foreign])
        own_n = own.size
        local = np.empty(nbr.size, dtype=np.int64)
        local[~foreign] = np.searchsorted(own, nbr[~foreign])
        local[foreign] = own_n + np.searchsorted(halo, nbr[foreign])
        indptr_own = np.zeros(own_n + 1, dtype=np.int64)
        np.cumsum(own_deg, out=indptr_own[1:])
        indptr_local = np.concatenate(
            [indptr_own, np.full(halo.size, indptr_own[-1], dtype=np.int64)]
        )
        weights_local = np.concatenate([weights[own], weights[halo]])
        if positional:
            labels: Sequence = GlobalIds(np.concatenate([own, halo]))
            firsts = None
        else:
            labels = [node_labels[int(g)] for g in own] + [
                node_labels[int(g)] for g in halo
            ]
            firsts = None
            if first_neighbor is not None:
                firsts = [
                    first_neighbor(int(g)) if degrees[g] else None for g in own
                ]
        spec = ShardSpec(
            index=k,
            n_global=n,
            own=own,
            halo=halo,
            indptr=indptr_local,
            indices=local,
            weights=weights_local,
            labels=labels,
            firsts=firsts,
        )
        per_shard.append((spec, nbr, nbr_owner, row_of_edge, local))
        specs.append(spec)

    for k, (spec, nbr, nbr_owner, row_of_edge, local) in enumerate(per_shard):
        own = spec.own
        own_n = own.size
        local_n = spec.local_n
        halo = spec.halo
        halo_owner = owner[halo] if halo.size else np.empty(0, dtype=np.int64)
        for s in range(shards):
            if s == k:
                continue
            # Incoming node lane from s: halo nodes owned by s (ascending
            # global) -- positionally identical to s's out_nodes[k].
            in_nodes = own_n + np.flatnonzero(halo_owner == s)
            if in_nodes.size:
                spec.in_nodes[s] = in_nodes.astype(np.int64)
            # Outgoing node lane to s: own nodes with a neighbor owned by s.
            mask = nbr_owner == s
            if mask.any():
                out_rows = np.unique(row_of_edge[mask])
                spec.out_nodes[s] = out_rows
                node_counts[k, s] = out_rows.size
                # Outgoing edge lane to s: cross edges in row-major order,
                # which *is* (u_global, v_global) order -- rows ascend by
                # global owner id and, within a row, foreign locals ascend
                # with the global neighbor id.
                spec.out_edge_keys[s] = row_of_edge[mask] * local_n + local[mask]
                edge_counts[k, s] = int(mask.sum())
                # Receiver-side mirror of the *reverse* lane s -> k: cross
                # edges (u in s) -> (v = own row), reordered to s's
                # canonical (u_global, v_global) emission order.
                u_glob = nbr[mask]
                v_loc = row_of_edge[mask]
                order = np.lexsort((own[v_loc], u_glob))
                spec.in_recv[s] = v_loc[order]
                spec.in_send[s] = (own_n + np.searchsorted(halo, u_glob))[order]
                spec.in_send_global[s] = u_glob[order]

    return ShardPlan(
        shards=shards,
        owner=owner,
        specs=specs,
        node_counts=node_counts,
        edge_counts=edge_counts,
    )


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat positions of the CSR slices of ``rows``, concatenated in order.

    The classic vectorized ragged-gather: seed a ones vector, plant each
    row's jump at its slice boundary, and cumulative-sum.
    """
    starts = indptr[rows].astype(np.int64)
    lengths = (indptr[rows + 1].astype(np.int64)) - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    offsets = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.ones(total, dtype=np.int64)
    out[offsets] = starts
    out[offsets[1:]] -= starts[:-1] + lengths[:-1] - 1
    return np.cumsum(out)
