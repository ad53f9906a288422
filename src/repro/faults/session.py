"""The compiled fault runtime: applies a :class:`FaultPlan` inside a round loop.

A :class:`FaultSession` is created per execution (by
:class:`repro.faults.engine.AdversarialEngine`) and handed to the inner
engine as its ``hooks`` object.  It owns everything both engines need:

* the **compiled plan** -- CSR adjacency over directed edges (neighbor lists
  sorted by global node order), per-edge omission probabilities and latency
  bounds, and crash and churn schedules keyed by round.  Each round's
  schedule is a few index arrays (recover/crash node groups, insert/remove
  edge groups) applied as scatters; plans are compiled from their arrays,
  with a per-event loop only to name an invalid node or edge in the error;
* the **per-round randomness** -- one uniform array per directed edge per
  round, drawn from ``numpy``'s seeded generator.  Decisions are a pure
  function of ``(plan seed, round, directed edge)``, never of iteration
  order, which is what makes the reference engine's per-delivery path and
  the batched engine's mask-based path agree bit for bit;
* the **in-flight mailbox** -- messages buffered by arrival round, in
  ``(send round, sender order)`` sequence, so inbox insertion order (which
  algorithms observe through float accumulation) is engine-independent.

The delivery entry points mirror the engines: :meth:`route` decides the
fate of a single delivery (the reference engine's per-message loop),
:meth:`broadcast` decides a whole broadcast at once with NumPy masks over
the sender's CSR slice (the batched engine's vectorized loop), and
:meth:`edge_fates` exposes the full per-round edge decision arrays in one
call (the kernel tier's round driver,
:mod:`repro.congest.kernels.faults`).  All read the same per-round uniform
arrays, so an execution is byte-identical whichever engine runs it --
``tests/faults/`` enforces this.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.congest.network import Network
from repro.faults.plan import FaultPlan, PlanColumns

__all__ = ["FaultSession"]

#: Mask keeping plan seeds inside numpy's SeedSequence domain.
_SEED_MASK = (1 << 63) - 1


class FaultSession:
    """Round-loop hooks implementing a :class:`FaultPlan` for one execution.

    ``report_pending_nodes`` tells the kernel driver that a hooked run's
    :class:`~repro.congest.errors.NonConvergenceError` carries the pending
    node list, matching ``Engine._execute_hooked``.

    The session implements the engine hook protocol documented in
    :mod:`repro.congest.engine`: ``begin_round`` / ``runnable`` / ``acting``
    for crash handling, ``route`` / ``broadcast`` / ``collect`` for the
    delivery path, and the metric accessors ``crashed_count`` /
    ``live_edge_count`` / ``faulty_nodes`` / ``stop_at_limit``.
    """

    #: Hooked runs report the pending node list in NonConvergenceError
    #: (matching ``Engine._execute_hooked``); the kernel driver keys on this.
    report_pending_nodes = True

    def __init__(self, plan: FaultPlan, network: Network):
        # CSR over directed edges (neighbor lists sorted by global node
        # order, the batched engine's canonical order) comes from the
        # network's cached layout: compiled once per network and shared by
        # every fault session executed on it.
        layout = network.layout()
        indptr, indices, edge_pos = layout.csr()
        self._compile(
            plan,
            network,
            layout.node_order,
            layout.index_of,
            indptr,
            indices,
            edge_pos,
            network.m,
        )

    @classmethod
    def for_csr(cls, plan: FaultPlan, csr_graph) -> "FaultSession":
        """Compile ``plan`` directly against a CSR graph for the kernel tier.

        CSR node ids *are* their indices, so ``range(n)`` and an O(1)
        identity index stand in for the layout's, and a columnar plan
        (:meth:`FaultPlan.from_columns`, what materialising on a CSR graph
        builds) compiles from its arrays without creating a Python object
        per event.  Edge positions come from a binary search within each
        CSR row; nothing is cached on the graph.  The resulting session
        makes exactly the decisions :meth:`route`/:meth:`broadcast` would
        make on the equivalent ``Network`` (same CSR edge positions, same
        seeded uniforms), which is what keeps kernel runs on ``CSRGraph``
        inputs byte-identical to reference runs on ``to_networkx()``.
        """
        session = cls.__new__(cls)
        n = int(csr_graph.n)
        session._compile(
            plan,
            None,
            range(n),
            _IdentityIndex(n),
            csr_graph.indptr,
            csr_graph.indices,
            None,
            len(csr_graph.indices) // 2,
        )
        return session

    def _compile(
        self,
        plan: FaultPlan,
        network: Optional[Network],
        node_order: Sequence[Hashable],
        index_of: Any,
        indptr,
        indices,
        edge_pos: Optional[Dict[Tuple[int, int], int]],
        undirected_edges: int,
    ) -> None:
        import numpy as np

        self._np = np
        self.plan = plan
        self.network = network
        self.stop_at_limit = (not plan.is_empty()) and plan.on_round_limit == "stop"
        self.faulty_nodes: Tuple[Hashable, ...] = plan.faulty_nodes()
        self._report_topology = not plan.is_empty()

        self.node_order = node_order
        n = len(node_order)
        self._index_of = index_of
        self._indptr, self._indices = indptr, indices
        edge_count = len(self._indices)
        self._edge_keys = _EdgeKeys(np, indptr, indices, n)
        # The scalar paths' (src, dst) -> position map: the network layout's
        # cached dict, or the same binary search on a CSR graph.
        self._edge_pos = edge_pos if edge_pos is not None else self._edge_keys

        # Per-edge omission probability and latency bounds (defaults plus
        # per-link overrides; a link override applies to both directions).
        drop_p = np.full(edge_count, float(plan.drop_probability))
        lat_low = np.full(edge_count, int(plan.latency_low), dtype=np.int64)
        lat_high = np.full(edge_count, int(plan.latency_high), dtype=np.int64)
        self._apply_link_overrides(plan, drop_p, lat_low, lat_high)
        self._drop_p = drop_p
        self._lat_low = lat_low
        # Float spans: the products are the same, without a cast per round.
        self._lat_span = (lat_high - lat_low + 1).astype(np.float64)
        self._has_drops = bool((drop_p > 0.0).any()) if edge_count else False
        self._has_latency = bool((lat_high > 0).any()) if edge_count else False
        # :meth:`edge_fates` returns delays as uint8 while every delay fits
        # (latency bounds are unbounded above).
        self.delay_dtype = (
            np.uint8 if edge_count == 0 or int(lat_high.max()) < 256 else np.int64
        )
        self._lat_low_delays = lat_low.astype(self.delay_dtype)

        # Link aliveness (churn) over directed edges, plus the undirected
        # live-edge counter reported in the per-round metrics.
        self._alive = np.ones(edge_count, dtype=bool)
        self._live_undirected = undirected_edges
        columns = self._plan_columns(plan)
        self._churn_events = self._compile_churn(plan, columns)

        # Crash windows compiled to per-round down/up toggles.
        self._crashed_now = np.zeros(n, dtype=bool)
        self._permanently_crashed = np.zeros(n, dtype=bool)
        self._crash_events = self._compile_crashes(columns)

        # In-flight messages: arrival round -> [(receiver index, sender id,
        # payload)], appended in (send round, sender order) sequence.
        self._arrivals: Dict[int, List[Tuple[int, Hashable, Any]]] = {}

        self._round = -1
        self._seed = (int(plan.seed)) & _SEED_MASK
        self._uniform_round = -1
        self._drop_u = None
        self._lat_u = None

    # ------------------------------------------------------------------ #
    # Compilation helpers
    # ------------------------------------------------------------------ #

    def _plan_columns(self, plan: FaultPlan) -> PlanColumns:
        """The plan's crashes and churn as columns of node *indices*.

        A columnar plan's node ids are CSR indices, so on a CSR session its
        columns are used as they are; everywhere else the tuple form is
        resolved through the node index.  Unknown nodes raise here.
        """
        np = self._np
        n = len(self.node_order)
        columns = plan.columns if self.network is None else None
        if columns is not None:
            for end in (columns.churn_u, columns.churn_v):
                if ((end < 0) | (end >= n)).any():
                    self._raise_churn_error(plan)
            node = columns.crash_node
            unknown = (node < 0) | (node >= n)
            if unknown.any():
                node = int(node[np.flatnonzero(unknown)[0]])
                raise ValueError(f"crash fault names unknown node {node!r}")
            return columns

        index_of = self._index_of
        crashes, churn = plan.crashes, plan.churn
        try:
            churn_u, churn_v = (
                np.fromiter((index_of[getattr(e, end)] for e in churn), np.int64, len(churn))
                for end in ("u", "v")
            )
        except KeyError:
            self._raise_churn_error(plan)
        try:
            crash_node = np.fromiter(
                (index_of[crash.node] for crash in crashes), np.int64, len(crashes)
            )
        except KeyError as missing:
            raise ValueError(
                f"crash fault names unknown node {missing.args[0]!r}"
            ) from None
        return PlanColumns(
            crash_node,
            np.fromiter((crash.start for crash in crashes), np.int64, len(crashes)),
            np.fromiter(
                (-1 if crash.recover is None else crash.recover for crash in crashes),
                np.int64,
                len(crashes),
            ),
            np.fromiter((e.round_index for e in churn), np.int64, len(churn)),
            churn_u,
            churn_v,
            np.fromiter((e.action == "insert" for e in churn), bool, len(churn)),
        )

    def _raise_churn_error(self, plan: FaultPlan) -> None:
        """Raise the precise error for the first churn event that is invalid."""
        for event in plan.churn:
            self._directed_pair(event.u, event.v, "churn event")
        raise AssertionError("no invalid churn event found")  # pragma: no cover

    def _compile_churn(self, plan: FaultPlan, columns: PlanColumns):
        """Per-round ``(insert_uv, insert_vu, remove_uv, remove_vu)`` positions.

        Within one round the inserts apply before the removes, so an edge
        both re-inserted (end of its downtime) and freshly removed in one
        round ends up removed.  Every duplicate inside one group sets the
        same value, so each group keeps
        one entry per undirected edge -- its ``u -> v`` and ``v -> u``
        positions for ``u < v``, whichever way round the plan named it --
        and applies as one scatter per direction with an exact live-edge
        count.
        """
        np = self._np
        u, v = columns.churn_u, columns.churn_v
        n = np.int64(len(self.node_order))
        edges, edge_of = np.unique(
            np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True
        )
        positions = self._edge_keys.positions(edges // n, edges % n)
        if positions is None:
            self._raise_churn_error(plan)
        uv, vu = positions
        # Dense (round, edge) keys: both factors stay below the event count.
        rounds, round_of = np.unique(columns.churn_round, return_inverse=True)
        span = np.int64(max(len(edges), 1))
        pair = round_of * span + edge_of
        insert = columns.churn_insert
        groups = []
        for mask in (insert, ~insert):
            keys = np.sort(pair[mask])
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
            edge = keys % span
            groups.append(_by_round(np, rounds[keys // span], uv[edge], vu[edge]))
        inserts, removes = groups
        none = (np.empty(0, dtype=np.int64),) * 2
        return {
            round_index: inserts.get(round_index, none) + removes.get(round_index, none)
            for round_index in sorted(inserts.keys() | removes.keys())
        }

    def _compile_crashes(self, columns: PlanColumns):
        """Per-round ``(up, down, permanently_down)`` node-index arrays.

        Recoveries apply before crashes within a round: one window may end
        exactly where a node's next window starts (back-to-back windows),
        and the down toggle must win regardless of the order the plan
        listed them in.
        """
        np = self._np
        node, recover = columns.crash_node, columns.crash_recover
        recovers = recover != -1
        ups = _by_round(np, recover[recovers], node[recovers])
        downs = _by_round(np, columns.crash_start, node, ~recovers)
        none = np.empty(0, dtype=np.int64)
        events = {}
        for round_index in sorted(ups.keys() | downs.keys()):
            (up,) = ups.get(round_index, (none,))
            down, permanent = downs.get(round_index, (none, none.astype(bool)))
            events[round_index] = (up, down, down[permanent])
        return events

    def _apply_link_overrides(self, plan, drop_p, lat_low, lat_high) -> None:
        """Scatter per-link drop/latency overrides into the edge columns.

        Large plans (a latency or chaos regime touches most links) resolve
        every edge position in a few array operations.  Unknown labels,
        edges outside the graph and duplicate overrides of one link (where
        the later entry must win, in plan order) take the scalar loop,
        which also raises the precise per-link errors.
        """
        links = plan.links
        if not links:
            return
        np = self._np
        index_of = self._index_of
        count = len(links)
        try:
            u_idx = np.fromiter((index_of[link.u] for link in links), np.int64, count)
            v_idx = np.fromiter((index_of[link.v] for link in links), np.int64, count)
        except KeyError:
            self._apply_link_overrides_slow(plan, drop_p, lat_low, lat_high)
            return
        pos = self._edge_keys.positions(u_idx, v_idx)
        if pos is None or np.unique(np.concatenate(pos)).size != 2 * count:
            self._apply_link_overrides_slow(plan, drop_p, lat_low, lat_high)
            return
        pos_uv, pos_vu = pos
        dp = np.fromiter((link.drop_probability for link in links), np.float64, count)
        ll = np.fromiter((link.latency_low for link in links), np.int64, count)
        lh = np.fromiter((link.latency_high for link in links), np.int64, count)
        for pos in (pos_uv, pos_vu):
            drop_p[pos] = dp
            lat_low[pos] = ll
            lat_high[pos] = lh

    def _apply_link_overrides_slow(self, plan, drop_p, lat_low, lat_high) -> None:
        for link in plan.links:
            for e in self._directed_pair(link.u, link.v, "link fault"):
                drop_p[e] = link.drop_probability
                lat_low[e] = link.latency_low
                lat_high[e] = link.latency_high

    def _directed_pair(self, u: Hashable, v: Hashable, what: str) -> Tuple[int, int]:
        index_of = self._index_of
        if u not in index_of or v not in index_of:
            raise ValueError(f"{what} names unknown node in edge ({u!r}, {v!r})")
        key_uv = (index_of[u], index_of[v])
        key_vu = (index_of[v], index_of[u])
        if key_uv not in self._edge_pos:
            raise ValueError(
                f"{what} names edge ({u!r}, {v!r}) which is not in the input graph; "
                "faults apply to the static footprint only"
            )
        return self._edge_pos[key_uv], self._edge_pos[key_vu]

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #

    def begin_round(self, round_index: int) -> None:
        """Apply the crash/churn toggles scheduled for ``round_index``."""
        self._round = round_index
        crash = self._crash_events.get(round_index)
        if crash is not None:
            up, down, permanent = crash
            self._crashed_now[up] = False
            self._crashed_now[down] = True
            self._permanently_crashed[permanent] = True
        churn = self._churn_events.get(round_index)
        if churn is not None:
            alive = self._alive
            insert_uv, insert_vu, remove_uv, remove_vu = churn
            self._live_undirected += int(insert_uv.size - alive[insert_uv].sum())
            alive[insert_uv] = True
            alive[insert_vu] = True
            self._live_undirected -= int(alive[remove_uv].sum())
            alive[remove_uv] = False
            alive[remove_vu] = False

    def runnable(self, index: int) -> bool:
        """False iff the node is permanently crashed (it will never act again)."""
        return not self._permanently_crashed[index]

    def acting(self, index: int) -> bool:
        """False iff the node is crashed in the current round."""
        return not self._crashed_now[index]

    @property
    def crashed_now(self):
        """Boolean mask (n,) of nodes crashed in the current round.  Read-only."""
        return self._crashed_now

    @property
    def permanently_crashed(self):
        """Boolean mask (n,) of nodes that will never act again.  Read-only."""
        return self._permanently_crashed

    def crashed_count(self) -> int:
        return int(self._crashed_now.sum())

    def live_edge_count(self) -> Optional[int]:
        """Current topology size, or ``None`` when the plan is empty."""
        return self._live_undirected if self._report_topology else None

    # ------------------------------------------------------------------ #
    # Per-round randomness
    # ------------------------------------------------------------------ #

    def _ensure_uniforms(self) -> None:
        if self._uniform_round == self._round:
            return
        rng = self._np.random.default_rng((self._seed, self._round))
        edge_count = len(self._indices)
        if self._has_drops:
            self._drop_u = rng.random(edge_count)
        if self._has_latency:
            self._lat_u = rng.random(edge_count)
        self._uniform_round = self._round

    # ------------------------------------------------------------------ #
    # Delivery: scalar path (reference engine, unicast everywhere)
    # ------------------------------------------------------------------ #

    def route(
        self, round_index: int, sender_index: int, receiver_index: int, payload: Any
    ) -> Optional[int]:
        """Decide one delivery's fate; buffer it unless dropped.

        Returns ``None`` when the message is dropped at send time (dead link
        or omission draw), else the number of *extra* rounds of latency
        (``0`` = normal next-round delivery).
        """
        e = self._edge_pos[(sender_index, receiver_index)]
        if not self._alive[e]:
            return None
        if self._has_drops:
            self._ensure_uniforms()
            if self._drop_u[e] < self._drop_p[e]:
                return None
        delay = 0
        if self._has_latency:
            self._ensure_uniforms()
            delay = int(self._lat_low[e]) + int(self._lat_u[e] * self._lat_span[e])
        self._arrivals.setdefault(round_index + 1 + delay, []).append(
            (receiver_index, self.node_order[sender_index], payload)
        )
        return delay

    # ------------------------------------------------------------------ #
    # Delivery: vectorized path (batched engine broadcasts)
    # ------------------------------------------------------------------ #

    def broadcast(
        self, round_index: int, sender_index: int, payload: Any
    ) -> Tuple[int, int, int]:
        """Decide a whole broadcast's fate with masks over the CSR slice.

        Returns ``(kept, dropped, delayed)`` delivery counts; every kept
        delivery (delayed or not) is buffered for its arrival round.
        """
        np = self._np
        lo = int(self._indptr[sender_index])
        hi = int(self._indptr[sender_index + 1])
        if lo == hi:
            return 0, 0, 0
        keep = self._alive[lo:hi]
        if self._has_drops:
            self._ensure_uniforms()
            keep = keep & (self._drop_u[lo:hi] >= self._drop_p[lo:hi])
        kept_local = np.nonzero(keep)[0]
        kept = int(kept_local.size)
        dropped = (hi - lo) - kept
        if not kept:
            return 0, dropped, 0

        sender_id = self.node_order[sender_index]
        receivers = self._indices[lo:hi]
        if not self._has_latency:
            bucket = self._arrivals.setdefault(round_index + 1, [])
            for p in kept_local:
                bucket.append((int(receivers[p]), sender_id, payload))
            return kept, dropped, 0

        self._ensure_uniforms()
        delays = (self._lat_u[lo:hi] * self._lat_span[lo:hi]).astype(np.int64) + (
            self._lat_low[lo:hi]
        )
        kept_delays = delays[kept_local]
        delayed = int((kept_delays > 0).sum())
        for delay in np.unique(kept_delays):
            bucket = self._arrivals.setdefault(round_index + 1 + int(delay), [])
            for p in kept_local[kept_delays == delay]:
                bucket.append((int(receivers[p]), sender_id, payload))
        return kept, dropped, delayed

    # ------------------------------------------------------------------ #
    # Delivery: whole-round path (kernel round driver)
    # ------------------------------------------------------------------ #

    def edge_fates(self, round_index: int) -> Tuple[Any, Optional[Any]]:
        """All per-edge decisions for sends in ``round_index``, in one call.

        Returns ``(keep, delays)`` over the directed-edge array: ``keep[e]``
        is ``True`` iff a message sent over edge ``e`` this round survives
        (link alive and the omission draw passes), and ``delays`` is either
        ``None`` (no latency anywhere in the plan) or the per-edge extra
        latency in rounds, in :attr:`delay_dtype`.  The arrays are
        views/derivations of the same seeded per-round uniforms
        :meth:`route` and :meth:`broadcast` read, so a driver that applies
        them in CSR edge order reproduces the reference engine's decisions
        bit for bit.  Callers must not mutate the returned arrays.
        """
        self._round = round_index
        keep = self._alive
        delays = None
        if self._has_drops:
            self._ensure_uniforms()
            keep = keep & (self._drop_u >= self._drop_p)
        if self._has_latency:
            self._ensure_uniforms()
            delays = (self._lat_u * self._lat_span).astype(self.delay_dtype)
            delays += self._lat_low_delays
        return keep, delays

    # ------------------------------------------------------------------ #
    # Inbox assembly
    # ------------------------------------------------------------------ #

    def collect(self, round_index: int) -> Tuple[Dict[Hashable, Dict[Hashable, Any]], int]:
        """Deliver the messages arriving at ``round_index``.

        Returns ``(inboxes, dropped)`` where ``inboxes`` maps receiver id to
        its inbox dict (insertion-ordered by send round, then sender order)
        and ``dropped`` counts arrivals lost because the receiver is crashed
        this round.
        """
        entries = self._arrivals.pop(round_index, None)
        if not entries:
            return {}, 0
        inboxes: Dict[Hashable, Dict[Hashable, Any]] = {}
        crashed_now = self._crashed_now
        node_order = self.node_order
        dropped = 0
        for receiver_index, sender_id, payload in entries:
            if crashed_now[receiver_index]:
                dropped += 1
                continue
            receiver_id = node_order[receiver_index]
            inbox = inboxes.get(receiver_id)
            if inbox is None:
                inboxes[receiver_id] = {sender_id: payload}
            else:
                inbox[sender_id] = payload
        return inboxes, dropped


def _by_round(np, rounds, *columns) -> Dict[int, Tuple[Any, ...]]:
    """``{round: slices of columns}`` grouping each column's entries by round."""
    if not rounds.size:
        return {}
    order = np.argsort(rounds, kind="stable")
    rounds = rounds[order]
    columns = [column[order] for column in columns]
    starts = np.flatnonzero(np.r_[True, rounds[1:] != rounds[:-1]])
    ends = np.r_[starts[1:], rounds.size]
    return {
        int(rounds[lo]): tuple(column[lo:hi] for column in columns)
        for lo, hi in zip(starts.tolist(), ends.tolist())
    }


class _IdentityIndex:
    """``{i: i for i in range(n)}`` without the dict.

    A key resolves exactly as in that dict: an integer's hash is itself, so
    a lookup finds ``i`` iff the key hashes to ``i`` and equals it (``3``,
    ``np.int64(3)``, ``3.0``, ``True`` for 1); anything else is missing.
    """

    def __init__(self, n: int):
        self._n = n

    def __contains__(self, key: Hashable) -> bool:
        index = hash(key)
        return 0 <= index < self._n and index == key

    def __getitem__(self, key: Hashable) -> int:
        if key in self:
            return hash(key)
        raise KeyError(key)


class _EdgeKeys:
    """Directed-edge positions by a binary search within each CSR row.

    Nothing per edge is stored beside the CSR arrays; the mapping protocol
    (``keys[(src, dst)]``, ``(src, dst) in keys``) serves the scalar paths
    of a session on a CSR graph.
    """

    def __init__(self, np, indptr, indices, n: int):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        # The binary search needs every neighbor list strictly ascending:
        # ``rising[p]`` holds if ``p`` starts a row or exceeds ``p - 1``.
        rising = np.ones(indices.size + 1, dtype=bool)
        rising[1:-1] = indices[1:] > indices[:-1]
        rising[indptr] = True
        if not bool(rising.all()):
            raise ValueError("fault plans need CSR neighbor lists sorted ascending")
        self._np, self._indptr, self._indices, self._n = np, indptr, indices, n

    def position(self, u_idx, v_idx):
        """Positions of the directed edges ``u -> v``, or ``None`` if one is absent."""
        from repro.congest.kernels.csr import row_positions

        np, indptr, indices = self._np, self._indptr, self._indices
        u, v = np.asarray(u_idx, dtype=np.int64), np.asarray(v_idx, dtype=np.int64)
        inside = bool(((u >= 0) & (u < self._n)).all())
        if not inside or not bool((indptr[u + 1] > indptr[u]).all()):
            return None
        at = row_positions(indptr, indices, u, v)
        # A missing value's lower bound is its row's end or another edge.
        if bool((at == indptr[u + 1]).any()) or bool((indices[at] != v).any()):
            return None
        return at

    def positions(self, u_idx, v_idx):
        """``(u -> v, v -> u)`` position arrays, or ``None`` if an edge is absent."""
        forward, backward = self.position(u_idx, v_idx), self.position(v_idx, u_idx)
        return None if forward is None or backward is None else (forward, backward)

    def __getitem__(self, pair: Tuple[int, int]) -> int:
        at = self.position([pair[0]], [pair[1]])
        if at is None:
            raise KeyError(pair)
        return int(at[0])

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return self.position([pair[0]], [pair[1]]) is not None
