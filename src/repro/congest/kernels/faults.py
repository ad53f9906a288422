"""The round loop every kernel program runs under, faulted or not.

Each kerneled algorithm is one *program*: an explicit round loop whose
per-round work is whole-graph array code over the
:class:`~repro.congest.kernels.grid.KernelGrid`.  :class:`FaultedRun` drives
it.  The driver mirrors ``Engine._execute_hooked`` (the reference/batched
hook loop) exactly, but node sets are boolean masks and message traffic
lives in a columnar mailbox instead of per-node dicts:

* :class:`FaultedRun` owns the loop, the mailbox, and the emission helpers
  (broadcast / single-target unicast / the interleaved neighborhood send of
  the unknown-parameters algorithm), including bandwidth accounting and the
  strict-budget violation with the same ``(sender, receiver, bits)`` naming
  as the per-node engines.  Three seams keep the delivery side replaceable:
  ``_violation`` raises a budget violation, ``_post_broadcast`` takes a
  fault-free broadcast batch and ``_push`` takes entry columns.  The sharded
  worker (:class:`~repro.congest.sharded.halo.ShardedRun`) overrides them to
  write shared-memory lanes, so both tiers run the same emission and budget
  rule.
* Fault decisions come from :meth:`repro.faults.session.FaultSession.edge_fates`
  and the session's crash masks -- the same compiled schedule the per-node
  engines consume, so a fixed ``(plan, graph, seed)`` reproduces the exact
  byte-level execution across all three tiers.
* :class:`NullHooks` is the no-fault stand-in every plain run uses.  With
  no edge fates a broadcast is never expanded into per-edge entries: it is
  delivered as a :class:`NeighborhoodInbox` (the sender mask plus the
  payload columns).  Its receipt operators (``any_truthy``/``count_truthy``)
  read only the truthy senders' rows, and its ordered sum runs over the
  grid's cached :class:`~repro.congest.kernels.grid.Fold`: one payload
  gather, one contiguous add per neighbor slot, one in-order scatter-add for
  the high-degree rows' remaining entries.  So a plain run never pays for
  per-edge entries.

Message payloads are encoded as a per-entry ``kind`` code plus one integer
and one float column; every payload any kerneled algorithm sends fits this
shape (``{"weight": w, "closed_degree": d}`` uses both columns).  Inbox
semantics replicate the reference engine's dict assembly: per ``(receiver,
sender)`` pair the *first* arrival fixes the position and the *last* fixes
the value, and per-receiver entries are ordered by arrival position -- the
order the primal-dual float sums observe.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.congest.errors import BandwidthViolation, NonConvergenceError
from repro.congest.kernels.csr import ordered_row_sum, slice_positions
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.obs.trace import stamp_round

__all__ = [
    "KIND_DEGREE",
    "KIND_WEIGHT",
    "KIND_WEIGHT_CD",
    "KIND_X",
    "KIND_X_SELECTED",
    "KIND_JOINED_S",
    "KIND_SELECTED",
    "KIND_JOINED",
    "KIND_UNCOVERED",
    "KIND_SPAN",
    "KIND_NOMINATE",
    "KIND_DOMINATED",
    "NullHooks",
    "Inbox",
    "NeighborhoodInbox",
    "FaultedRun",
    "run_program",
]

# Payload kind codes.  One code per distinct payload shape an algorithm
# emits; the integer/float columns carry the field values.
KIND_DEGREE = 0  # {"degree": ival}
KIND_WEIGHT = 1  # {"weight": ival}
KIND_WEIGHT_CD = 2  # {"weight": ival, "closed_degree": int(fval)}
KIND_X = 3  # {"x": fval}
KIND_X_SELECTED = 4  # {"x": fval, "selected": True}
KIND_JOINED_S = 5  # {"joined_s": True}
KIND_SELECTED = 6  # {"selected": True}
KIND_JOINED = 7  # {"joined": True}
KIND_UNCOVERED = 8  # {"uncovered": bool(ival)}
KIND_SPAN = 9  # {"span": ival}
KIND_NOMINATE = 10  # {"nominate": True}
KIND_DOMINATED = 11  # {"dominated": bool(ival)}


class NullHooks:
    """The empty hook set: no faults, every edge delivers next round.

    Programs run under this object when no fault plan is attached; the
    driver then behaves exactly like the reference engine's plain round loop
    (``stop_at_limit`` off, ``NonConvergenceError`` without the pending-node
    list, no per-round fault metrics), and broadcasts stay unexpanded.
    """

    stop_at_limit = False
    report_pending_nodes = False
    faulty_nodes: Tuple = ()
    crashed_now = None
    permanently_crashed = None

    def begin_round(self, round_index: int) -> None:
        pass

    def edge_fates(self, round_index: int):
        return None, None

    def crashed_count(self) -> int:
        return 0

    def live_edge_count(self) -> Optional[int]:
        return None


class Inbox:
    """One round's delivered messages, columnar and sorted by receiver.

    ``recv``/``send`` are node indices, ``kind`` the payload code, ``ival``/
    ``fval`` the payload columns.  Entries are grouped by receiver and, per
    receiver, ordered by original arrival position -- the reference inbox's
    insertion order.
    """

    __slots__ = ("n", "recv", "send", "kind", "ival", "fval")

    def __init__(self, n, recv, send, kind, ival, fval):
        self.n = n
        self.recv = recv
        self.send = send
        self.kind = kind
        self.ival = ival
        self.fval = fval

    def any_truthy(self, kind_code: int) -> np.ndarray:
        """Per-node: any entry of ``kind_code`` with a truthy value."""
        return self.count_truthy(kind_code) > 0

    def count_truthy(self, kind_code: int) -> np.ndarray:
        """Per-node count of truthy entries of ``kind_code``."""
        mask = (self.kind == kind_code) & (self.ival != 0)
        return np.bincount(self.recv[mask], minlength=self.n)

    def ordered_float_sum(self, kind_codes, base: np.ndarray) -> np.ndarray:
        """``base[v] + fval`` summed over matching entries in inbox order.

        Replays the reference engine's left-to-right float accumulation.
        Entries of other kinds contribute ``payload.get("x", 0.0) == 0.0``
        in the reference loop, which leaves every sum unchanged, so they are
        left out.
        """
        entries = np.isin(self.kind, kind_codes)
        return ordered_row_sum(self.recv[entries], self.fval[entries], base)

    def received_edges(self, kind_code: int, run) -> np.ndarray:
        """Per directed edge ``v -> u`` of ``run.grid``: did ``v`` receive a
        ``kind_code`` entry from ``u``?"""
        received = np.zeros(len(run.grid.indices), dtype=bool)
        hit = self.kind == kind_code
        if hit.any():
            received[run.edge_positions(self.recv[hit], self.send[hit])] = True
        return received


class _Broadcast(NamedTuple):
    """An unexpanded fault-free broadcast in the mailbox.

    ``sent`` is the mask of senders with at least one neighbor; ``ival`` and
    ``fval`` are per-node copies of the payload columns taken at send time
    (``None``: a constant truthy flag / zero float).
    """

    sent: np.ndarray
    kind: int
    ival: Optional[np.ndarray]
    fval: Optional[np.ndarray]

    def columns(self, grid, receiving=None):
        """The batch as ``(recv, send, kind, ival, fval)`` in inbox order.

        The grid is symmetric with ascending rows, so receiver ``v``'s row
        lists exactly the senders whose broadcast reaches ``v``, in the
        order the reference inbox inserts them.  ``receiving`` keeps only
        the entries into those nodes.
        """
        on_edge = self.sent[grid.indices]
        if receiving is not None:
            on_edge &= receiving[grid.edge_src]
        entries = np.flatnonzero(on_edge)
        send = grid.indices[entries]
        size = entries.size
        return (
            grid.edge_src[entries],
            send,
            np.full(size, self.kind, np.int64),
            np.ones(size, np.int64) if self.ival is None else self.ival[send],
            np.zeros(size, np.float64) if self.fval is None else self.fval[send],
        )


class NeighborhoodInbox:
    """A fault-free broadcast delivered whole: every ``acting`` node
    received the payload from each neighbor in ``batch.sent``.

    Same interface as :class:`Inbox`.  The operators work from the sender
    mask and the grid (the truthy senders' rows, the :class:`Fold`), masked
    by ``acting``; the entry columns are expanded on first read, for code
    that reads them.
    """

    __slots__ = ("grid", "batch", "acting", "_expanded")

    def __init__(self, grid, batch: _Broadcast, acting: np.ndarray):
        self.grid = grid
        self.batch = batch
        self.acting = acting
        self._expanded: Optional[Inbox] = None

    def expanded(self) -> Inbox:
        """The same entries as an :class:`Inbox` (built once)."""
        if self._expanded is None:
            columns = self.batch.columns(self.grid, self.acting)
            self._expanded = Inbox(self.grid.n, *columns)
        return self._expanded

    recv = property(lambda self: self.expanded().recv)
    send = property(lambda self: self.expanded().send)
    kind = property(lambda self: self.expanded().kind)
    ival = property(lambda self: self.expanded().ival)
    fval = property(lambda self: self.expanded().fval)

    def _receipts(self, kind_code: int) -> Optional[np.ndarray]:
        """Receivers of every truthy ``kind_code`` entry, acting or not.

        Read from the sender side: a broadcast reaches the nodes in its
        sender's row, so the truthy senders' rows list every receipt, at a
        cost of ``O(n + sum of their degrees)``.  ``None``: another kind.
        """
        grid, batch = self.grid, self.batch
        if batch.kind != kind_code:
            return None
        truthy = batch.sent if batch.ival is None else batch.sent & (batch.ival != 0)
        rows = np.flatnonzero(truthy)
        return grid.indices[slice_positions(grid.indptr[rows], grid.degrees[rows])]

    def any_truthy(self, kind_code: int) -> np.ndarray:
        """Per-node: any entry of ``kind_code`` with a truthy value."""
        hit = np.zeros(self.grid.n, dtype=bool)
        receipts = self._receipts(kind_code)
        if receipts is not None:
            hit[receipts] = True
            hit &= self.acting
        return hit

    def count_truthy(self, kind_code: int) -> np.ndarray:
        """Per-node count of truthy entries of ``kind_code``."""
        receipts = self._receipts(kind_code)
        if receipts is None:
            return np.zeros(self.grid.n, dtype=np.int64)
        counts = np.bincount(receipts, minlength=self.grid.n)
        counts[~self.acting] = 0
        return counts

    def ordered_float_sum(self, kind_codes, base: np.ndarray) -> np.ndarray:
        """:meth:`Inbox.ordered_float_sum` over the grid's :class:`Fold`.

        Rows sorted by descending degree make neighbor slot ``k`` of every
        row that has one a contiguous prefix, so slots ``0, 1, ...`` are
        whole-array adds, then one in-order ``np.add.at`` adds each row's
        entries past the last slot.  Every row's additions therefore run
        left to right over its inbox, bit for bit the reference fold.
        Non-senders are left out (``where=`` / filtered), not added as 0.0.
        """
        grid, batch = self.grid, self.batch
        out = np.array(base, dtype=np.float64)
        if batch.kind not in kind_codes:
            return out
        fold = grid.fold
        acc = out[fold.order]
        if batch.fval is None:
            payload = np.zeros(len(fold.senders))
        else:
            payload = batch.fval[fold.senders]
        sent = None
        if not (batch.sent | (grid.degrees == 0)).all():
            sent = batch.sent[fold.senders]
        start = 0
        # Python float addition overflows to inf (and inf + -inf gives NaN)
        # silently; so does this.
        with np.errstate(over="ignore", invalid="ignore"):
            for count in fold.counts:
                stop = start + count
                head = acc[:count]
                where = True if sent is None else sent[start:stop]
                np.add(head, payload[start:stop], out=head, where=where)
                start = stop
            tail_rows, tail = fold.tail_rows, payload[fold.head:]
            if sent is not None:
                kept = sent[fold.head:]
                tail_rows, tail = tail_rows[kept], tail[kept]
            np.add.at(acc, tail_rows, tail)
        summed = np.empty_like(out)
        summed[fold.order] = acc
        np.copyto(out, summed, where=self.acting)
        return out

    def received_edges(self, kind_code: int, run) -> np.ndarray:
        """:meth:`Inbox.received_edges` without expanding the entries."""
        grid, batch = self.grid, self.batch
        if batch.kind != kind_code:
            return np.zeros(len(grid.indices), dtype=bool)
        received = batch.sent[grid.indices]
        if not self.acting.all():
            received &= self.acting[grid.edge_src]
        return received


class FaultedRun:
    """Round-loop driver for kernel programs, under fault hooks or none.

    Owns the mailbox and all emission/accounting; a *program* object supplies
    the per-round state transition (``finished`` mask, ``step``, ``outputs``).
    """

    def __init__(self, grid, hooks, *, budget, strict, metrics):
        self.grid = grid
        self.hooks = hooks
        self.budget = budget
        self.strict = strict
        self.metrics = metrics
        self.round_metrics: Optional[RoundMetrics] = None
        self._mail: dict = {}
        self._fates_round = -1
        self._fates: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None)
        # Stable transpose permutation: edge positions ordered by receiver,
        # per receiver by ascending sender -- exactly the order the inbox
        # sort would produce, computed once instead of every round.
        self._recv_order: Optional[np.ndarray] = None

    # -- edge helpers ------------------------------------------------------

    def edge_positions(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """CSR edge positions of the directed edges ``src -> dst``."""
        return np.searchsorted(self.grid.edge_keys, src * self.grid.n + dst)

    def _edge_fates(self, round_index: int):
        if self._fates_round != round_index:
            self._fates = self.hooks.edge_fates(round_index)
            self._fates_round = round_index
        return self._fates

    # -- mailbox -----------------------------------------------------------

    def _push(self, arrival, recv, send, kind, ival, fval, by_recv=False):
        """Queue entry columns for delivery in round ``arrival``."""
        if recv.size:
            self._mail.setdefault(arrival, []).append(
                (recv, send, kind, ival, fval, by_recv)
            )

    def _post_broadcast(self, round_index, sent, kind, values, fvalues):
        """Queue a fault-free broadcast unexpanded for the next round.

        ``values``/``fvalues`` are the program's live columns, which it
        mutates before delivery, so the batch keeps copies.
        """
        self._mail.setdefault(round_index + 1, []).append(
            _Broadcast(
                sent,
                kind,
                None if values is None else values.copy(),
                None if fvalues is None else fvalues.copy(),
            )
        )

    def _collect(self, round_index, crashed_now, acting):
        """Assemble this round's inbox; returns ``(inbox | None, dropped)``."""
        batches = self._mail.pop(round_index, None)
        if not batches:
            return None, 0
        whole = len(batches) == 1 and isinstance(batches[0], _Broadcast)
        if whole and (crashed_now is None or not crashed_now.any()):
            return NeighborhoodInbox(self.grid, batches[0], acting), 0
        # Crashes, latency or a mixed round: expand to (receiver-sorted)
        # entry columns.
        batches = [
            batch.columns(self.grid) + (True,) if isinstance(batch, _Broadcast) else batch
            for batch in batches
        ]
        multi = len(batches) > 1
        if multi:
            recv = np.concatenate([batch[0] for batch in batches])
            send = np.concatenate([batch[1] for batch in batches])
            kind = np.concatenate([batch[2] for batch in batches])
            ival = np.concatenate([batch[3] for batch in batches])
            fval = np.concatenate([batch[4] for batch in batches])
            by_recv = False
        else:
            recv, send, kind, ival, fval, by_recv = batches[0]
        dropped = 0
        if crashed_now is not None:
            hit = crashed_now[recv]
            crashed_entries = int(hit.sum())
            if crashed_entries:
                dropped = crashed_entries
                keep = ~hit
                recv, send = recv[keep], send[keep]
                kind, ival, fval = kind[keep], ival[keep], fval[keep]
        if multi and recv.size:
            # Reference inbox dict semantics per (receiver, sender): the
            # first arrival fixes the entry's position, the last fixes its
            # value; a single batch has unique pairs, so only multi-batch
            # rounds (latency) pay for the dedupe.  Concatenation index is
            # arrival position and strictly increasing, so one stable sort
            # on the fused (receiver, sender) key is exactly the
            # (recv, send, position) lexsort.
            n_nodes = np.int64(self.grid.n)
            key = recv.astype(np.int64) * n_nodes + send
            order = np.argsort(key, kind="stable")
            key_sorted = key[order]
            new_pair = np.r_[True, key_sorted[1:] != key_sorted[:-1]]
            starts = np.flatnonzero(new_pair)
            lasts = order[np.r_[starts[1:], key_sorted.size] - 1]
            first_pos = order[starts]
            group_key = key_sorted[starts]
            group_recv = group_key // n_nodes
            final = np.lexsort((first_pos, group_recv))
            recv = group_recv[final]
            send = (group_key - group_recv * n_nodes)[final]
            kind, ival, fval = kind[lasts][final], ival[lasts][final], fval[lasts][final]
        elif recv.size and not by_recv:
            order = np.argsort(recv, kind="stable")
            recv, send = recv[order], send[order]
            kind, ival, fval = kind[order], ival[order], fval[order]
        if recv.size:
            to_acting = acting[recv]
            if not to_acting.all():
                recv, send = recv[to_acting], send[to_acting]
                kind = kind[to_acting]
                ival, fval = ival[to_acting], fval[to_acting]
        if not recv.size:
            return None, dropped
        return Inbox(self.grid.n, recv, send, kind, ival, fval), dropped

    # -- emission ----------------------------------------------------------

    def _violation(self, sender, receiver, bits, round_index):
        """Raise the strict-budget error naming grid node ``sender`` first."""
        raise BandwidthViolation(
            self.grid.node_order[int(sender)],
            receiver,
            int(bits),
            self.budget,
            round_index=round_index,
        )

    def _check_neighborhood(self, round_index, effective, sel_src, sel_dst, bits, sel_bits):
        """The strict budget rule of :meth:`unicast_neighborhood`."""
        if not (self.strict and self.budget and max(int(bits), int(sel_bits)) > self.budget):
            return
        grid = self.grid
        if int(bits) > self.budget:
            # Every delivery violates; the per-node engines name the first
            # sender's first neighbor, whose payload carries the selected
            # flag when that neighbor is the chosen dominator.
            first = int(np.argmax(effective))
            receiver = grid.first_neighbor_id(first)
            reported = bits
            slot = int(np.searchsorted(sel_src, first))
            if (
                slot < sel_src.size
                and int(sel_src[slot]) == first
                and grid.node_order[int(sel_dst[slot])] == receiver
            ):
                reported = sel_bits
            self._violation(first, receiver, reported, round_index)
        if sel_src.size:
            self._violation(
                sel_src[0], grid.node_order[int(sel_dst[0])], sel_bits, round_index
            )

    def _account_kept(self, kept_count, bits):
        """Per-delivery accounting for ``kept_count`` messages of one size."""
        rm = self.round_metrics
        rm.messages += kept_count
        rm.bits += int(bits) * kept_count
        if int(bits) > rm.max_message_bits:
            rm.max_message_bits = int(bits)

    def _account_per_sender(self, counts, bits):
        """Accounting for ``counts[v]`` messages of ``bits[v]`` bits per node."""
        rm = self.round_metrics
        rm.messages += int(counts.sum())
        rm.bits += int(bits @ counts)
        largest = int(bits[counts > 0].max())
        if largest > rm.max_message_bits:
            rm.max_message_bits = largest

    def _deliver(self, round_index, kept_edges, recv, send, kind, ival, fval,
                 by_recv=False):
        """Bucket kept directed edges by arrival round and push batches."""
        rm = self.round_metrics
        keep, delays = self._fates
        del keep
        if delays is None:
            self._push(round_index + 1, recv, send, kind, ival, fval, by_recv)
            return
        kept_delays = delays[kept_edges]
        delayed = int((kept_delays > 0).sum())
        rm.delayed_messages += delayed
        if not delayed:
            self._push(round_index + 1, recv, send, kind, ival, fval, by_recv)
            return
        # One stable sort groups the batch by delay; each group is then a
        # contiguous slice in the original order, so a receiver-sorted batch
        # stays receiver-sorted within every group.
        order = np.argsort(kept_delays, kind="stable")
        recv, send = recv[order], send[order]
        kind, ival, fval = kind[order], ival[order], fval[order]
        grouped = kept_delays[order]
        present = np.flatnonzero(np.bincount(grouped))
        bounds = np.searchsorted(grouped, present, side="left")
        ends = np.r_[bounds[1:], grouped.size]
        for delay, lo, hi in zip(present.tolist(), bounds.tolist(), ends.tolist()):
            self._push(
                round_index + 1 + delay,
                recv[lo:hi],
                send[lo:hi],
                kind[lo:hi],
                ival[lo:hi],
                fval[lo:hi],
                by_recv,
            )

    def broadcast(self, round_index, senders, kind, *, bits, values=None, fvalues=None):
        """Broadcast one payload kind from every sender in ``senders``.

        ``bits`` is a scalar or a per-node array; ``values``/``fvalues`` are
        per-node payload columns sampled at emission time (``None`` means a
        constant truthy flag / zero float).
        """
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
                        first, grid.first_neighbor_id(first), bits, round_index
                    )
            else:
                oversized = effective & (bits > self.budget)
                if oversized.any():
                    first = int(np.argmax(oversized))
                    self._violation(
                        first, grid.first_neighbor_id(first), bits[first], round_index
                    )
        keep, delays = self._edge_fates(round_index)
        if keep is None and delays is None:
            # Nothing can fail: account from degree sums and leave the batch
            # unexpanded, with the payload columns copied at send time.
            if scalar_bits:
                self._account_kept(int(degrees[effective].sum()), bits)
            else:
                self._account_per_sender(np.where(effective, degrees, 0), bits)
            self._post_broadcast(round_index, effective, kind, values, fvalues)
            return
        mask = np.repeat(effective, degrees)
        emitted = int(mask.sum())
        if keep is not None:
            mask &= keep
        if self._recv_order is None:
            self._recv_order = np.argsort(grid.indices, kind="stable")
        # Filtering the transpose permutation yields the kept edges already
        # in inbox order (by receiver, per receiver by ascending sender), so
        # the collect step never has to sort a broadcast batch.
        kept = self._recv_order[mask[self._recv_order]]
        self.round_metrics.dropped_messages += int(emitted - kept.size)
        if not kept.size:
            return
        src = grid.edge_src[kept]
        if scalar_bits:
            self._account_kept(int(kept.size), bits)
        else:
            self._account_per_sender(np.bincount(src, minlength=grid.n), bits)
        size = kept.size
        ival = np.ones(size, np.int64) if values is None else values[src]
        fval = np.zeros(size, np.float64) if fvalues is None else fvalues[src]
        self._deliver(
            round_index,
            kept,
            grid.indices[kept],
            src,
            np.full(size, kind, np.int64),
            ival,
            fval,
            by_recv=True,
        )

    def unicast(self, round_index, senders_idx, targets_idx, kind, *, bits):
        """One single-target flag message per sender (``senders_idx`` ascending)."""
        if not senders_idx.size:
            return
        grid = self.grid
        if self.strict and self.budget and int(bits) > self.budget:
            self._violation(
                senders_idx[0], grid.node_order[int(targets_idx[0])], bits, round_index
            )
        keep, delays = self._edge_fates(round_index)
        kept_edges, src, dst = None, senders_idx, targets_idx
        if keep is not None or delays is not None:
            kept_edges = self.edge_positions(senders_idx, targets_idx)
            if keep is not None:
                mask = keep[kept_edges]
                kept_edges, src, dst = kept_edges[mask], src[mask], dst[mask]
        self.round_metrics.dropped_messages += int(senders_idx.size - src.size)
        if not src.size:
            return
        self._account_kept(int(src.size), bits)
        size = src.size
        self._deliver(
            round_index,
            kept_edges,
            dst,
            src,
            np.full(size, kind, np.int64),
            np.ones(size, np.int64),
            np.zeros(size, np.float64),
        )

    def unicast_neighborhood(
        self,
        round_index,
        senders,
        fvalues,
        kind,
        sel_src,
        sel_dst,
        sel_kind,
        *,
        bits,
        sel_bits,
    ):
        """Per-neighbor payloads with one upgraded entry per selecting sender.

        Every node in ``senders`` sends ``{kind, fval}`` to each neighbor;
        senders listed in ``sel_src`` (ascending) send ``sel_kind`` (and pay
        ``sel_bits``) on the edge to ``sel_dst`` instead.  This is the
        unknown-parameters A-round: the ``x`` value goes everywhere, with
        ``selected: True`` piggybacked on the chosen dominator's copy.
        """
        grid = self.grid
        degrees = grid.degrees
        effective = senders & (degrees > 0)
        if not effective.any():
            return
        self._check_neighborhood(round_index, effective, sel_src, sel_dst, bits, sel_bits)
        edges = np.flatnonzero(np.repeat(effective, degrees))
        kind_all = np.full(edges.size, kind, np.int64)
        bits_all = np.full(edges.size, int(bits), np.int64)
        if sel_src.size:
            sel_edges = self.edge_positions(sel_src, sel_dst)
            slots = np.searchsorted(edges, sel_edges)
            kind_all[slots] = sel_kind
            bits_all[slots] = int(sel_bits)
        keep, _ = self._edge_fates(round_index)
        if keep is None:
            kept, kept_kind, kept_bits = edges, kind_all, bits_all
        else:
            mask = keep[edges]
            kept, kept_kind, kept_bits = edges[mask], kind_all[mask], bits_all[mask]
        rm = self.round_metrics
        rm.dropped_messages += int(edges.size - kept.size)
        if not kept.size:
            return
        rm.messages += int(kept.size)
        rm.bits += int(kept_bits.sum())
        largest = int(kept_bits.max())
        if largest > rm.max_message_bits:
            rm.max_message_bits = largest
        src = grid.edge_src[kept]
        self._deliver(
            round_index,
            kept,
            grid.indices[kept],
            src,
            kept_kind,
            np.ones(kept.size, np.int64),
            fvalues[src],
        )

    # -- the round loop ----------------------------------------------------

    def run(self, program, limit):
        """Drive ``program`` to completion; returns its outputs."""
        grid, hooks, metrics = self.grid, self.hooks, self.metrics
        metrics.faulty_nodes = hooks.faulty_nodes
        round_index = 0
        while True:
            pending = ~program.finished
            hooks.begin_round(round_index)
            permanently_crashed = hooks.permanently_crashed
            runnable = (
                pending
                if permanently_crashed is None
                else pending & ~permanently_crashed
            )
            live = int(runnable.sum())
            if not live:
                break
            if round_index >= limit:
                if hooks.stop_at_limit:
                    metrics.stalled_nodes = live
                    break
                if hooks.report_pending_nodes:
                    raise NonConvergenceError(
                        rounds=round_index,
                        pending=live,
                        pending_nodes=[
                            grid.node_order[int(i)] for i in np.flatnonzero(runnable)
                        ],
                    )
                raise NonConvergenceError(rounds=round_index, pending=live)
            stamp_round()
            crashed_now = hooks.crashed_now
            acting = runnable if crashed_now is None else runnable & ~crashed_now
            inbox, arrival_dropped = self._collect(round_index, crashed_now, acting)
            round_metrics = RoundMetrics(
                round_index=round_index, active_nodes=int(acting.sum())
            )
            round_metrics.dropped_messages = arrival_dropped
            round_metrics.crashed_nodes = hooks.crashed_count()
            round_metrics.live_edges = hooks.live_edge_count()
            self.round_metrics = round_metrics
            program.step(round_index, acting, inbox, self)
            metrics.record(round_metrics)
            round_index += 1
        return program.outputs()


def run_program(
    program, grid, config, algorithm, *, budget, limit, strict, seed=None, hooks=None
):
    """Build ``program`` on ``grid`` and drive it to completion.

    ``program`` is a :data:`~repro.congest.kernels.KERNELS` entry, built as
    ``program(grid, config, algorithm, seed, grid.n)``; ``hooks`` is a
    compiled :class:`~repro.faults.session.FaultSession` or ``None`` for a
    plain run.  Returns ``(outputs, RunMetrics)``.
    """
    state = program(grid, config, algorithm, seed, grid.n)
    metrics = RunMetrics(bandwidth_budget_bits=budget)
    driver = FaultedRun(
        grid, hooks if hooks is not None else NullHooks(), budget=budget,
        strict=strict, metrics=metrics,
    )
    outputs = driver.run(state, limit)
    return outputs, metrics
