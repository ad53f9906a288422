"""Per-worker emission/assembly runtime for the sharded tier.

:class:`ShardedRun` is the object the kernel *programs*
(:class:`~repro.congest.kernels.primal_dual.PrimalDualProgram` and friends)
talk to inside a worker -- the sharded counterpart of
:class:`~repro.congest.kernels.faults.FaultedRun`.  It exposes the same
emission surface (``broadcast`` / ``unicast`` / ``unicast_neighborhood`` /
``edge_positions``) over the shard-local grid, but instead of a mailbox it
writes the round's outgoing state into the parity-buffered shared-memory
lanes, and instead of ``_collect`` it *pulls* the next round's inbox out of
its own CSR rows plus the peers' lanes.

Byte-identity discipline
------------------------

* **Ordering.**  ``FaultedRun`` hands every program an inbox grouped by
  receiver and, per receiver, ordered by ascending global sender.  Local
  rows keep the global-ascending neighbor order (see
  :mod:`~repro.congest.sharded.partition`), so scanning own rows in row
  order replays that order exactly for broadcast and neighborhood batches;
  unicast batches are rebuilt with one lexsort on ``(receiver, global
  sender)``.  ``ordered_float_sum`` and every fold downstream then see the
  reference insertion order.
* **Accounting.**  Each worker accounts exactly the messages its *own*
  nodes emit, with the single-process formulas; the coordinator sums
  ``messages``/``bits`` and maxes ``max_message_bits``, reproducing
  ``RoundMetrics`` field by field.
* **Violations.**  Strict-budget violations are not raised as
  :class:`~repro.congest.errors.BandwidthViolation` in the worker (its
  custom ``__init__`` does not survive pickling) but shipped as structured
  candidates; the coordinator picks the candidate with the smallest global
  sender index, which is precisely the node ``np.argmax`` finds first on
  the unsharded grid.
* **Snapshots.**  Payload columns are sampled at emission time in the
  single-process driver (``values[src]``), so the own-node columns are
  copied when emitted -- the program mutates them before assembly runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.congest.kernels.faults import Inbox
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


class ShardedRun:
    """Emission + inbox assembly over one shard's local grid and lanes."""

    def __init__(self, grid, spec, views: LaneViews, *, budget, strict):
        self.grid = grid
        self.spec = spec
        self.views = views
        self.budget = budget
        self.strict = strict
        self.shard = spec.index
        self.round_metrics: Optional[RoundMetrics] = None
        self.halo_bytes = 0
        local_n = grid.n
        self.edge_src = grid.edge_src
        # Local rows keep *global*-ascending neighbor order, so (src, dst)
        # keys are not sorted (halo locals sort after own); one argsort
        # permutation makes edge_positions a searchsorted again.
        keys = self.edge_src * local_n + grid.indices
        self._key_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_order]
        # Peer shards this shard exchanges with (symmetric: undirected
        # cross edges induce both lane directions).
        self._peers = sorted(spec.in_recv)
        # Owner peer of every halo local id.
        self._halo_peer = np.full(local_n, -1, dtype=np.int64)
        for peer, ids in spec.in_nodes.items():
            self._halo_peer[ids] = peer
        # Own-emission snapshots, per parity (the receiver-side half of the
        # lane protocol for messages that never cross a shard boundary).
        self._own_out: list = [None, None]

    # -- shared helpers ----------------------------------------------------

    def edge_positions(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Local CSR edge positions of the directed edges ``src -> dst``."""
        return self._key_order[
            np.searchsorted(self._sorted_keys, src * np.int64(self.grid.n) + dst)
        ]

    def begin_round(self, round_index: int) -> None:
        """Reset this round's stats and clear the outgoing parity buffer."""
        parity = (round_index + 1) % 2
        self._own_out[parity] = None
        header = self.views.header(parity, self.shard)
        header[HDR_ETYPE] = ETYPE_NONE
        self.round_metrics = RoundMetrics(round_index=round_index)
        self.halo_bytes = 0

    def _violation(self, sender_local, receiver, bits, round_index):
        grid = self.grid
        sender_local = int(sender_local)
        raise ShardViolation(
            {
                "type": "violation",
                "sender_global": int(self.spec.own[sender_local]),
                "sender": grid.node_order[sender_local],
                "receiver": receiver,
                "bits": int(bits),
                "round": round_index,
            }
        )

    # -- emission ----------------------------------------------------------

    def broadcast(self, round_index, senders, kind, *, bits, values=None, fvalues=None):
        grid = self.grid
        degrees = grid.degrees
        effective = senders & (degrees > 0)
        if not effective.any():
            return
        scalar_bits = np.isscalar(bits) or np.ndim(bits) == 0
        if self.strict and self.budget:
            if scalar_bits:
                if int(bits) > self.budget:
                    first = int(np.argmax(effective))
                    self._violation(
                        first, grid.first_neighbor_id(first), int(bits), round_index
                    )
            else:
                oversized = effective & (bits > self.budget)
                if oversized.any():
                    first = int(np.argmax(oversized))
                    self._violation(
                        first, grid.first_neighbor_id(first), int(bits[first]),
                        round_index,
                    )
        kept = int(degrees[effective].sum())
        rm = self.round_metrics
        rm.messages += kept
        if scalar_bits:
            rm.bits += int(bits) * kept
            if int(bits) > rm.max_message_bits:
                rm.max_message_bits = int(bits)
        else:
            rm.bits += int(bits[effective] @ degrees[effective])
            largest = int(bits[effective].max())
            if largest > rm.max_message_bits:
                rm.max_message_bits = largest
        own_n = self.spec.own_count
        parity = (round_index + 1) % 2
        self._own_out[parity] = (
            ETYPE_BROADCAST,
            int(kind),
            0,
            effective[:own_n].copy(),
            None if values is None else values[:own_n].copy(),
            None if fvalues is None else fvalues[:own_n].copy(),
            None,
        )
        header = self.views.header(parity, self.shard)
        header[HDR_KIND] = int(kind)
        header[HDR_ETYPE] = ETYPE_BROADCAST
        for peer, nodes in self.spec.out_nodes.items():
            ival, fval, sent = self.views.node_lane(parity, self.shard, peer)
            sent[:] = effective[nodes]
            ival[:] = 1 if values is None else values[nodes]
            fval[:] = 0.0 if fvalues is None else fvalues[nodes]
            self.halo_bytes += nodes.size * _NODE_SLOT_BYTES

    def unicast(self, round_index, senders_idx, targets_idx, kind, *, bits):
        if not senders_idx.size:
            return
        grid = self.grid
        if self.strict and self.budget and int(bits) > self.budget:
            self._violation(
                senders_idx[0],
                grid.node_order[int(targets_idx[0])],
                int(bits),
                round_index,
            )
        rm = self.round_metrics
        size = int(senders_idx.size)
        rm.messages += size
        rm.bits += int(bits) * size
        if int(bits) > rm.max_message_bits:
            rm.max_message_bits = int(bits)
        own_n = self.spec.own_count
        parity = (round_index + 1) % 2
        own_mask = targets_idx < own_n
        self._own_out[parity] = (
            ETYPE_UNICAST,
            int(kind),
            0,
            senders_idx[own_mask].copy(),
            targets_idx[own_mask].copy(),
            None,
            None,
        )
        header = self.views.header(parity, self.shard)
        header[HDR_KIND] = int(kind)
        header[HDR_ETYPE] = ETYPE_UNICAST
        self._zero_edge_lanes(parity)
        cross = ~own_mask
        if cross.any():
            self._flag_cross_edges(parity, senders_idx[cross], targets_idx[cross])

    def unicast_neighborhood(
        self, round_index, senders, fvalues, kind, sel_src, sel_dst, sel_kind,
        *, bits, sel_bits,
    ):
        grid = self.grid
        degrees = grid.degrees
        effective = senders & (degrees > 0)
        if not effective.any():
            return
        if self.strict and self.budget and max(int(bits), int(sel_bits)) > self.budget:
            if int(bits) > self.budget:
                first = int(np.argmax(effective))
                receiver = grid.first_neighbor_id(first)
                reported = int(bits)
                slot = int(np.searchsorted(sel_src, first))
                if (
                    slot < sel_src.size
                    and int(sel_src[slot]) == first
                    and grid.node_order[int(sel_dst[slot])] == receiver
                ):
                    reported = int(sel_bits)
                self._violation(first, receiver, reported, round_index)
            if sel_src.size:
                self._violation(
                    sel_src[0],
                    grid.node_order[int(sel_dst[0])],
                    int(sel_bits),
                    round_index,
                )
            # No local selecting sender: this shard's deliveries all fit,
            # exactly like the unsharded emission falling through.
        total = int(degrees[effective].sum())
        sel_count = int(sel_src.size)
        rm = self.round_metrics
        rm.messages += total
        rm.bits += int(bits) * total + (int(sel_bits) - int(bits)) * sel_count
        if sel_count == total:
            largest = int(sel_bits)
        elif sel_count:
            largest = max(int(bits), int(sel_bits))
        else:
            largest = int(bits)
        if largest > rm.max_message_bits:
            rm.max_message_bits = largest
        own_n = self.spec.own_count
        parity = (round_index + 1) % 2
        own_sel = sel_dst < own_n
        self._own_out[parity] = (
            ETYPE_NEIGHBORHOOD,
            int(kind),
            int(sel_kind),
            effective[:own_n].copy(),
            fvalues[:own_n].copy(),
            sel_src[own_sel].copy(),
            sel_dst[own_sel].copy(),
        )
        header = self.views.header(parity, self.shard)
        header[HDR_KIND] = int(kind)
        header[HDR_SEL_KIND] = int(sel_kind)
        header[HDR_ETYPE] = ETYPE_NEIGHBORHOOD
        for peer, nodes in self.spec.out_nodes.items():
            ival, fval, sent = self.views.node_lane(parity, self.shard, peer)
            sent[:] = effective[nodes]
            ival[:] = 1
            fval[:] = fvalues[nodes]
            self.halo_bytes += nodes.size * _NODE_SLOT_BYTES
        self._zero_edge_lanes(parity)
        cross = ~own_sel
        if cross.any():
            self._flag_cross_edges(parity, sel_src[cross], sel_dst[cross])

    def _zero_edge_lanes(self, parity: int) -> None:
        for peer in self.spec.out_edge_keys:
            lane = self.views.edge_lane(parity, self.shard, peer)
            lane[:] = 0

    def _flag_cross_edges(self, parity, src, dst):
        """Set the edge-lane flag of each cross pair ``src -> dst``."""
        local_n = np.int64(self.grid.n)
        peer_of = self._halo_peer[dst]
        for peer in np.unique(peer_of).tolist():
            mask = peer_of == peer
            keys = src[mask] * local_n + dst[mask]
            slots = np.searchsorted(self.spec.out_edge_keys[peer], keys)
            lane = self.views.edge_lane(parity, self.shard, peer)
            lane[slots] = 1
            self.halo_bytes += int(mask.sum())

    # -- inbox assembly ----------------------------------------------------

    def assemble(self, round_index: int, acting: np.ndarray) -> Optional[Inbox]:
        """Pull this round's inbox from own rows + the peers' lanes."""
        parity = round_index % 2
        views = self.views
        own = self._own_out[parity]
        etype = ETYPE_NONE if own is None else own[0]
        kind = 0 if own is None else own[1]
        sel_kind = 0 if own is None else own[2]
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
        return self._assemble_rowscan(
            parity, own, live_peers, etype, kind, sel_kind, acting
        )

    def _assemble_rowscan(self, parity, own, live_peers, etype, kind, sel_kind, acting):
        """Broadcast / neighborhood: scan own rows for senders that emitted.

        Row-scan order is (receiver ascending, per receiver ascending global
        sender) -- byte-for-byte the order ``FaultedRun`` delivers both
        batch shapes in.
        """
        grid = self.grid
        spec = self.spec
        local_n = grid.n
        own_n = spec.own_count
        sent = np.zeros(local_n, dtype=bool)
        ival = np.ones(local_n, dtype=np.int64)
        fval = np.zeros(local_n, dtype=np.float64)
        if own is not None:
            sent[:own_n] = own[3]
            if etype == ETYPE_BROADCAST:
                if own[4] is not None:
                    ival[:own_n] = own[4]
                if own[5] is not None:
                    fval[:own_n] = own[5]
            else:
                fval[:own_n] = own[4]
        for peer in live_peers:
            lane = self.views.node_lane(parity, peer, self.shard)
            if lane is None:
                continue
            lane_ival, lane_fval, lane_sent = lane
            ids = spec.in_nodes[peer]
            sent[ids] = lane_sent.astype(bool)
            ival[ids] = lane_ival
            fval[ids] = lane_fval
        entries = np.flatnonzero(sent[grid.indices])
        if not entries.size:
            return None
        recv = self.edge_src[entries]
        send = grid.indices[entries]
        kind_arr = np.full(entries.size, kind, dtype=np.int64)
        if etype == ETYPE_NEIGHBORHOOD:
            positions = []
            if own is not None and own[5] is not None and own[5].size:
                # Own selected pair (u -> v): the entry lives at the
                # receiver-side slot (v -> u) of the row scan.
                positions.append(self.edge_positions(own[6], own[5]))
            for peer in live_peers:
                lane = self.views.edge_lane(parity, peer, self.shard)
                if lane is None:
                    continue
                flagged = np.flatnonzero(lane)
                if flagged.size:
                    positions.append(spec.in_edge_pos[peer][flagged])
            if positions:
                slots = np.searchsorted(entries, np.concatenate(positions))
                kind_arr[slots] = sel_kind
            out_ival = np.ones(entries.size, dtype=np.int64)
            out_fval = fval[send]
        else:
            out_ival = ival[send]
            out_fval = fval[send]
        return self._finish(recv, send, kind_arr, out_ival, out_fval, acting)

    def _assemble_unicast(self, parity, own, live_peers, kind, acting):
        spec = self.spec
        recv_parts, send_parts, global_parts = [], [], []
        if own is not None and own[3].size:
            recv_parts.append(own[4])
            send_parts.append(own[3])
            global_parts.append(spec.own[own[3]])
        for peer in live_peers:
            lane = self.views.edge_lane(parity, peer, self.shard)
            if lane is None:
                continue
            flagged = np.flatnonzero(lane)
            if flagged.size:
                recv_parts.append(spec.in_recv[peer][flagged])
                send_parts.append(spec.in_send[peer][flagged])
                global_parts.append(spec.in_send_global[peer][flagged])
        if not recv_parts:
            return None
        recv = np.concatenate(recv_parts)
        send = np.concatenate(send_parts)
        send_global = np.concatenate(global_parts)
        # Own local ids ascend with global ids, so (recv, global sender) is
        # exactly the single-process (receiver, ascending-sender) order.
        order = np.lexsort((send_global, recv))
        recv, send = recv[order], send[order]
        size = recv.size
        return self._finish(
            recv,
            send,
            np.full(size, kind, dtype=np.int64),
            np.ones(size, dtype=np.int64),
            np.zeros(size, dtype=np.float64),
            acting,
        )

    def _finish(self, recv, send, kind_arr, ival, fval, acting):
        to_acting = acting[recv]
        if not to_acting.all():
            recv, send = recv[to_acting], send[to_acting]
            kind_arr = kind_arr[to_acting]
            ival, fval = ival[to_acting], fval[to_acting]
        if not recv.size:
            return None
        return Inbox(self.grid.n, recv, send, kind_arr, ival, fval)
