"""Per-worker runtime of the sharded tier: the kernel driver over lanes.

:class:`ShardedRun` is the object the kernel *programs*
(:class:`~repro.congest.kernels.primal_dual.PrimalDualProgram` and friends)
talk to inside a worker.  It is a
:class:`~repro.congest.kernels.faults.FaultedRun` under
:class:`~repro.congest.kernels.faults.NullHooks` on the shard-local grid, so
``broadcast`` and ``unicast`` -- the strict-budget first-offender checks,
the fault-free accounting and the broadcast batch -- are the kernel
driver's own.  What stays here is the transport: the driver's three seams
write the round's outgoing state into the parity-buffered shared-memory
lanes instead of a mailbox, and :meth:`ShardedRun.assemble` *pulls* the next
round's inbox out of this shard's own emissions plus the peers' lanes.

Byte-identity discipline
------------------------

* **Ordering.**  ``FaultedRun`` hands every program an inbox in arrival
  order per receiver: in a fault-free round, ascending global sender (how
  receivers interleave is free).  Local rows keep the global-ascending neighbor order (see
  :mod:`~repro.congest.sharded.partition`), so once the halo senders are
  filled in from the lanes, ``_Broadcast.columns`` over the local grid
  yields broadcast and neighborhood entries in exactly that order; unicast
  batches are rebuilt with one lexsort on ``(receiver, global sender)``.
* **Accounting.**  Each worker accounts exactly the messages its *own*
  nodes emit, with the driver's formulas; the coordinator sums
  ``messages``/``bits`` and maxes ``max_message_bits``, reproducing
  ``RoundMetrics`` field by field.
* **Violations.**  Strict-budget violations are not raised as
  :class:`~repro.congest.errors.BandwidthViolation` in the worker (its
  custom ``__init__`` does not survive pickling) but shipped as structured
  candidates; the coordinator picks the candidate with the smallest global
  sender index, which is precisely the node ``np.argmax`` finds first on
  the unsharded grid.
* **Snapshots.**  Payload columns are sampled at emission time in the
  single-process driver, so a worker copies its own rows when they are
  emitted -- the program mutates them before assembly runs.  The halo rows
  travel in the lanes and are never copied.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.congest.kernels.csr import row_positions
from repro.congest.kernels.faults import FaultedRun, Inbox, NullHooks, _Broadcast
from repro.congest.metrics import RoundMetrics
from repro.congest.sharded.shmem import (
    ETYPE_BROADCAST,
    ETYPE_NEIGHBORHOOD,
    ETYPE_NONE,
    ETYPE_UNICAST,
    HDR_ETYPE,
    HDR_KIND,
    HDR_SEL_KIND,
    LaneViews,
)

__all__ = ["ShardedRun", "ShardViolation"]

#: Bytes per boundary-node lane slot (int64 + float64 + sent flag).
_NODE_SLOT_BYTES = 17


class ShardViolation(Exception):
    """A strict-budget violation candidate, as a picklable payload.

    ``payload`` carries ``sender_global`` (the global node index, the
    coordinator's tie-break key), the sender/receiver labels, the reported
    bits, and the round index.
    """

    def __init__(self, payload: Dict[str, Any]):
        super().__init__(payload.get("sender"))
        self.payload = payload


class ShardedRun(FaultedRun):
    """The kernel driver's emission over one shard's local grid and lanes."""

    def __init__(self, grid, spec, views: LaneViews, *, budget, strict):
        super().__init__(grid, NullHooks(), budget=budget, strict=strict, metrics=None)
        self.spec = spec
        self.views = views
        self.shard = spec.index
        self.halo_bytes = 0
        # Local rows keep *global*-ascending neighbor order (halo locals
        # sort after own), so edge_positions searches the global ids.
        self._global = np.concatenate([spec.own, spec.halo])
        self._global_indices = self._global[grid.indices]
        # Peer shards this shard exchanges with (symmetric: undirected
        # cross edges induce both lane directions).
        self._peers = sorted(spec.in_recv)
        # Owner peer of every halo local id.
        self._halo_peer = np.full(grid.n, -1, dtype=np.int64)
        for peer, ids in spec.in_nodes.items():
            self._halo_peer[ids] = peer
        # Own emissions into own nodes, per parity: ``(etype, kind,
        # sel_kind, batch, pairs)``.  ``batch`` is the own senders'
        # _Broadcast (broadcast / neighborhood); ``pairs`` the ``(src, dst)``
        # unicasts or selected neighborhood edges.
        self._own_out: list = [None, None]

    def edge_positions(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Local CSR edge positions of the directed edges ``src -> dst``."""
        return row_positions(self.grid.indptr, self._global_indices, src, self._global[dst])

    def begin_round(self, round_index: int) -> None:
        """Reset this round's stats and clear the outgoing parity buffer."""
        parity = (round_index + 1) % 2
        self._own_out[parity] = None
        self.views.header(parity, self.shard)[HDR_ETYPE] = ETYPE_NONE
        self.round_metrics = RoundMetrics(round_index=round_index)
        self.halo_bytes = 0

    # -- the driver's seams ------------------------------------------------

    def _violation(self, sender, receiver, bits, round_index):
        sender = int(sender)
        raise ShardViolation(
            {
                "type": "violation",
                "sender_global": int(self.spec.own[sender]),
                "sender": self.grid.node_order[sender],
                "receiver": receiver,
                "bits": int(bits),
                "round": round_index,
            }
        )

    def _post_broadcast(self, round_index, sent, kind, values, fvalues):
        """Copy the own rows for own receivers; the halo reads the lanes."""
        own_n = self.spec.own_count
        parity = (round_index + 1) % 2
        own_batch = _Broadcast(
            sent[:own_n].copy(),
            kind,
            None if values is None else values[:own_n].copy(),
            None if fvalues is None else fvalues[:own_n].copy(),
        )
        self._own_out[parity] = (ETYPE_BROADCAST, kind, 0, own_batch, None)
        self._publish(parity, ETYPE_BROADCAST, kind)
        self._fill_node_lanes(parity, sent, values, fvalues)

    def _push(self, arrival, batch):
        """A unicast batch: keep the entries into own nodes, flag the rest.

        Unicasts carry a constant flag, so the batch's one ``kind`` is all
        there is to ship besides the local edges.
        """
        parity = arrival % 2
        send, recv = batch.send, batch.receivers(self.grid)
        own_target = recv < self.spec.own_count
        kind = int(batch.kind)
        pairs = (send[own_target], recv[own_target])
        self._own_out[parity] = (ETYPE_UNICAST, kind, 0, None, pairs)
        self._publish(parity, ETYPE_UNICAST, kind)
        self._flag_cross_edges(parity, send[~own_target], recv[~own_target])

    # -- emission ----------------------------------------------------------

    def unicast_neighborhood(
        self, round_index, senders, fvalues, kind, sel_src, sel_dst, sel_kind,
        *, bits, sel_bits,
    ):
        """:meth:`FaultedRun.unicast_neighborhood`, published as lanes.

        Every boundary sender's ``fval`` goes out on the node lanes; the
        selected cross edges are flagged on the edge lanes.
        """
        degrees = self.grid.degrees
        effective = senders & (degrees > 0)
        if not effective.any():
            return
        self._check_neighborhood(round_index, effective, sel_src, sel_dst, bits, sel_bits)
        plain = int(degrees[effective].sum()) - sel_src.size
        if plain:
            self._account_kept(plain, bits)
        if sel_src.size:
            self._account_kept(sel_src.size, sel_bits)
        own_n = self.spec.own_count
        parity = (round_index + 1) % 2
        own_sel = sel_dst < own_n
        own_batch = _Broadcast(effective[:own_n].copy(), kind, None, fvalues[:own_n].copy())
        self._own_out[parity] = (
            ETYPE_NEIGHBORHOOD, kind, sel_kind, own_batch,
            (sel_src[own_sel], sel_dst[own_sel]),
        )
        self._publish(parity, ETYPE_NEIGHBORHOOD, kind, sel_kind)
        self._fill_node_lanes(parity, effective, None, fvalues)
        self._flag_cross_edges(parity, sel_src[~own_sel], sel_dst[~own_sel])

    # -- lane publishing ---------------------------------------------------

    def _publish(self, parity, etype, kind, sel_kind=0):
        header = self.views.header(parity, self.shard)
        header[HDR_KIND] = kind
        header[HDR_SEL_KIND] = sel_kind
        header[HDR_ETYPE] = etype

    def _fill_node_lanes(self, parity, sent, values, fvalues):
        """Write the boundary senders' flags and payloads to every peer."""
        for peer, nodes in self.spec.out_nodes.items():
            ival, fval, lane_sent = self.views.node_lane(parity, self.shard, peer)
            lane_sent[:] = sent[nodes]
            ival[:] = 1 if values is None else values[nodes]
            fval[:] = 0.0 if fvalues is None else fvalues[nodes]
            self.halo_bytes += nodes.size * _NODE_SLOT_BYTES

    def _flag_cross_edges(self, parity, src, dst):
        """Clear the outgoing edge lanes, then flag each pair ``src -> dst``."""
        for peer in self.spec.out_edge_keys:
            self.views.edge_lane(parity, self.shard, peer)[:] = 0
        local_n = np.int64(self.grid.n)
        peer_of = self._halo_peer[dst]
        for peer in np.unique(peer_of).tolist():
            mask = peer_of == peer
            keys = src[mask] * local_n + dst[mask]
            slots = np.searchsorted(self.spec.out_edge_keys[peer], keys)
            self.views.edge_lane(parity, self.shard, peer)[slots] = 1
            self.halo_bytes += int(mask.sum())

    # -- inbox assembly ----------------------------------------------------

    def assemble(self, round_index: int, acting: np.ndarray) -> Optional[Inbox]:
        """Pull this round's inbox from own emissions + the peers' lanes."""
        parity = round_index % 2
        views = self.views
        own = self._own_out[parity]
        etype, kind, sel_kind = (ETYPE_NONE, 0, 0) if own is None else own[:3]
        live_peers = []
        for peer in self._peers:
            header = views.header(parity, peer)
            peer_etype = int(header[HDR_ETYPE])
            if peer_etype == ETYPE_NONE:
                continue
            if etype == ETYPE_NONE:
                etype = peer_etype
                kind = int(header[HDR_KIND])
                sel_kind = int(header[HDR_SEL_KIND])
            elif peer_etype != etype or int(header[HDR_KIND]) != kind:
                raise RuntimeError(
                    f"shard {peer} emitted (etype={peer_etype}) while this round "
                    f"is (etype={etype}, kind={kind}) -- programs emit one "
                    "batch per round, so headers must agree"
                )
            live_peers.append(peer)
        if etype == ETYPE_NONE:
            return None
        if etype == ETYPE_UNICAST:
            return self._assemble_unicast(parity, own, live_peers, kind, acting)
        return self._assemble_batch(parity, own, live_peers, etype, kind, sel_kind, acting)

    def _assemble_batch(self, parity, own, live_peers, etype, kind, sel_kind, acting):
        """Broadcast / neighborhood: the kernel's batch over the local grid.

        The lanes fill in the halo senders' flags and payloads; a
        neighborhood batch then upgrades each selecting sender's entry into
        its chosen receiver to ``sel_kind``.
        """
        grid, spec = self.grid, self.spec
        own_n = spec.own_count
        neighborhood = etype == ETYPE_NEIGHBORHOOD
        sent = np.zeros(grid.n, dtype=bool)
        ival = np.ones(grid.n, dtype=np.int64)
        fval = np.zeros(grid.n, dtype=np.float64)
        # The receiver each selecting sender chose (one per sender), or -1.
        chosen = np.full(grid.n, -1, dtype=np.int64) if neighborhood else None
        if own is not None:
            batch = own[3]
            sent[:own_n] = batch.sent
            if batch.ival is not None:
                ival[:own_n] = batch.ival
            if batch.fval is not None:
                fval[:own_n] = batch.fval
            if neighborhood:
                chosen[own[4][0]] = own[4][1]
        for peer in live_peers:
            lane = self.views.node_lane(parity, peer, self.shard)
            if lane is not None:
                ids = spec.in_nodes[peer]
                ival[ids], fval[ids], sent[ids] = lane
            flags = self.views.edge_lane(parity, peer, self.shard) if neighborhood else None
            if flags is not None:
                flagged = np.flatnonzero(flags)
                chosen[spec.in_send[peer][flagged]] = spec.in_recv[peer][flagged]
        recv, send, kinds, ival, fval = _Broadcast(sent, kind, ival, fval).columns(
            grid, acting
        )
        if not recv.size:
            return None
        if neighborhood:
            kinds[chosen[send] == recv] = sel_kind
        return Inbox(grid.n, recv, send, kinds, ival, fval)

    def _assemble_unicast(self, parity, own, live_peers, kind, acting):
        """Merge own and peer unicasts in (receiver, global sender) order."""
        spec = self.spec
        recv_parts, send_parts, global_parts = [], [], []
        if own is not None:
            send_own, recv_own = own[4]
            recv_parts.append(recv_own)
            send_parts.append(send_own)
            global_parts.append(spec.own[send_own])
        for peer in live_peers:
            lane = self.views.edge_lane(parity, peer, self.shard)
            if lane is None:
                continue
            flagged = np.flatnonzero(lane)
            recv_parts.append(spec.in_recv[peer][flagged])
            send_parts.append(spec.in_send[peer][flagged])
            global_parts.append(spec.in_send_global[peer][flagged])
        if not recv_parts:
            return None
        recv = np.concatenate(recv_parts)
        keep = acting[recv]
        recv = recv[keep]
        send = np.concatenate(send_parts)[keep]
        send_global = np.concatenate(global_parts)[keep]
        if not recv.size:
            return None
        # Own local ids ascend with global ids, so (recv, global sender) is
        # exactly the single-process (receiver, ascending-sender) order.
        order = np.lexsort((send_global, recv))
        size = recv.size
        return Inbox(
            self.grid.n,
            recv[order],
            send[order],
            np.full(size, kind, dtype=np.int64),
            np.ones(size, dtype=np.int64),
            np.zeros(size, dtype=np.float64),
        )
