"""Pluggable round-execution engines for the CONGEST simulator.

The :class:`~repro.congest.simulator.Simulator` decides *what* to run (the
algorithm, the bandwidth budget, the round limit); an :class:`Engine` decides
*how* the synchronous rounds are executed.  Four tiers are provided; this
module holds the two per-node ones:

* :class:`ReferenceEngine` -- the straightforward per-node, per-message loop.
  It is the correctness oracle: every semantic question ("in which order are
  inbox entries inserted?", "when exactly does a bandwidth violation raise?")
  is answered by this code.
* :class:`BatchedEngine` -- a vectorized fast path.  It reads the network's
  cached CSR-style adjacency layout, aggregates per-round message/bit metrics
  with NumPy reductions, and builds each node's inbox lazily (only for nodes
  that are still active).  Broadcasts -- the dominant message pattern of the
  paper's algorithms -- cost one bit estimate per *sender* instead of one per
  *delivery*.  A node that promised to sleep
  (:meth:`~repro.congest.node.NodeContext.sleep_until`) is not called while
  its inbox is empty.

The two engines are observationally identical: same outputs, same round
counts, same per-round metrics, same exceptions.  This is not accidental but
load-bearing -- several algorithms accumulate floating point packing values
from their inbox, so even the *insertion order* of inbox entries must match
(float addition is not associative).  The batched engine therefore keeps a
copy of every adjacency list sorted by global node order, which is exactly
the order in which the reference engine's sender loop inserts deliveries.
``tests/congest/test_engine_parity.py`` enforces the equivalence on a grid of
algorithms and graph families.

The third tier lives in :mod:`repro.congest.kernels`: the ``"kernel"``
engine executes the paper's hot algorithms as node-loop-free NumPy array
programs over the CSR layout (registered lazily here so this module stays
importable without NumPy).  Algorithms without a kernel fall back to the
batched engine (the fallback is recorded in ``RunMetrics.engine_used``);
fault hooks run through the same vectorized round driver as plain kernel
runs, :mod:`repro.congest.kernels.faults`.  The fourth,
:mod:`repro.congest.sharded` (``"sharded"``), partitions the kernel programs
across worker processes, fault-free only.

Every round loop -- both plain loops here, the shared hooked loop, the
kernel driver and the sharded coordinator -- calls
:func:`repro.obs.trace.stamp_round` once per executed round, where it
creates that round's :class:`~repro.congest.metrics.RoundMetrics`; a traced
run reads those stamps as its round start times.

Engine selection
----------------

Every entry point (``Simulator``, ``run_algorithm``, ``RunSpec``/``Session``)
accepts ``engine="reference" | "batched" | "kernel" | "sharded"``, an
:class:`Engine` instance, or ``None`` meaning "use the process-wide default"
(see :func:`set_default_engine`; the initial default is the reference
engine).
The benchmark harness switches its default to the batched engine, which is
what makes the E9-scale instances tractable.

Round hooks (fault injection)
-----------------------------

:meth:`Engine.execute` takes an optional ``hooks`` object implementing the
round-hook protocol, which lets an adversary intervene in the round loop
without either engine knowing anything about fault semantics.  The only
implementation ships in :mod:`repro.faults` (``FaultSession``, installed by
``AdversarialEngine``); the protocol an engine relies on is:

* ``begin_round(r)`` -- apply state changes scheduled for round ``r``
  (crashes, topology churn) before the round executes;
* ``runnable(i)`` / ``acting(i)`` -- whether node *index* ``i`` (position in
  ``network.node_ids()`` order) can ever act again / acts this round.  Nodes
  that are unfinished but never runnable again do not keep the run alive;
* ``collect(r) -> (inboxes, dropped)`` -- the messages arriving at round
  ``r`` as per-receiver inbox dicts, plus the count lost to crashed
  receivers.  When hooks are present the engine's own delivery buffers are
  bypassed entirely: every send goes through ``route(r, i, j, payload)``
  (single delivery; returns ``None`` = dropped or the extra latency in
  rounds) or ``broadcast(r, i, payload)`` (whole broadcast, vectorized;
  returns ``(kept, dropped, delayed)`` counts);
* ``crashed_count()`` / ``live_edge_count()`` / ``faulty_nodes`` --
  per-round and per-run fault metrics;
* ``stop_at_limit`` -- when true, hitting the round limit truncates the run
  (recording ``RunMetrics.stalled_nodes``) instead of raising
  :class:`NonConvergenceError`; adversaries can legitimately starve an
  algorithm of the messages it needs to finish.

With no-op hooks (an empty fault plan) both engines are byte-identical to
their plain, hook-free paths; ``tests/faults/test_zero_fault_parity.py``
enforces this on the full algorithm x family grid.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, List, Optional, Tuple, Type, Union

from repro.congest.algorithm import SynchronousAlgorithm
from repro.congest.errors import AlgorithmError, BandwidthViolation, NonConvergenceError
from repro.congest.message import Broadcast, Payload, _payload_bits, word_size_bits
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.obs.trace import stamp_round

__all__ = [
    "Engine",
    "ReferenceEngine",
    "BatchedEngine",
    "ENGINES",
    "get_engine",
    "available_engines",
    "universal_engines",
    "get_default_engine",
    "set_default_engine",
]

#: Sentinel distinguishing "no message" from a legitimately falsy payload.
_MISSING = object()


class Engine(abc.ABC):
    """Strategy interface: execute an algorithm's synchronous rounds.

    The simulator calls :meth:`execute` with a network whose per-node state
    has already been reset.  The engine owns the whole lifecycle from
    ``algorithm.setup`` to collecting ``algorithm.output``; it must enforce
    the round ``limit`` (raising :class:`NonConvergenceError`), the bandwidth
    ``budget`` (raising :class:`BandwidthViolation` when ``strict``), and
    reject sends to non-neighbors (:class:`AlgorithmError`).
    """

    #: Registry key and human-readable identifier.
    name: str = "abstract"

    #: Whether the engine executes *every* registered algorithm (with a
    #: fallback where needed).  Partial-capability tiers -- the sharded
    #: engine supports exactly the kerneled algorithms and raises
    #: :class:`EngineCapabilityError` otherwise -- set this ``False`` and
    #: are excluded from :func:`universal_engines`, the set the generic
    #: cross-engine determinism/parity suites quantify over.
    universal: bool = True

    @abc.abstractmethod
    def execute(
        self,
        network: Network,
        algorithm: SynchronousAlgorithm,
        *,
        budget: int,
        limit: int,
        strict: bool,
        hooks: Optional[Any] = None,
    ) -> Tuple[Dict[Hashable, Any], RunMetrics]:
        """Run ``algorithm`` to completion; return ``(outputs, metrics)``.

        ``hooks`` (optional) is a round-hook object -- see the module
        docstring -- through which fault injection intervenes in the loop.
        Call :func:`~repro.obs.trace.stamp_round` once per executed round;
        a traced run's round records take their start times from it.
        """

    # ------------------------------------------------------------------ #
    # Hooked execution (fault injection)
    # ------------------------------------------------------------------ #

    def _execute_hooked(self, network, algorithm, hooks, *, budget, limit, strict):
        """The round loop with hooks applied: one implementation, two engines.

        Shared so the engines cannot drift apart on lifecycle semantics
        (crash filtering, the round-limit policy, metrics bookkeeping, the
        unicast path); the one strategy point that differs per engine is
        :meth:`_hooked_broadcast` (broadcast delivery -- per message on the
        reference engine, mask-based on the batched engine).  Every active
        node is called in every round: sleep promises are not honoured here.
        Under no-op hooks (an empty fault plan) this loop is byte-identical
        to the engine's plain path.
        """
        metrics = RunMetrics(bandwidth_budget_bits=budget)
        metrics.engine_used = self.name
        metrics.faulty_nodes = hooks.faulty_nodes

        layout = network.layout()
        node_order = layout.node_order
        n = len(node_order)
        contexts = layout.contexts
        index_of = layout.index_of
        for context in contexts:
            algorithm.setup(context)
        neighbor_indices: List[List[int]] = layout.neighbor_indices
        word = word_size_bits(max(2, network.n))

        round_index = 0
        while True:
            pending = [i for i in range(n) if not contexts[i]._finished]
            hooks.begin_round(round_index)
            runnable = [i for i in pending if hooks.runnable(i)]
            if not runnable:
                break
            if round_index >= limit:
                if hooks.stop_at_limit:
                    metrics.stalled_nodes = len(runnable)
                    break
                raise NonConvergenceError(
                    rounds=round_index,
                    pending=len(runnable),
                    pending_nodes=[node_order[i] for i in runnable],
                )

            stamp_round()
            inboxes, arrival_dropped = hooks.collect(round_index)
            acting = [i for i in runnable if hooks.acting(i)]
            round_metrics = RoundMetrics(round_index=round_index, active_nodes=len(acting))
            round_metrics.dropped_messages = arrival_dropped
            round_metrics.crashed_nodes = hooks.crashed_count()
            round_metrics.live_edges = hooks.live_edge_count()

            for i in acting:
                context = contexts[i]
                outbox = algorithm.round(
                    context, round_index, inboxes.get(context.node_id) or {}
                )
                if outbox is None:
                    continue
                if isinstance(outbox, Broadcast):
                    if not context.neighbors:
                        continue
                    payload = outbox.payload
                    bits = _payload_bits(payload, word)
                    if budget and bits > budget and strict:
                        raise BandwidthViolation(
                            context.node_id,
                            context.neighbors[0],
                            bits,
                            budget,
                            round_index=round_index,
                        )
                    kept, dropped, delayed = self._hooked_broadcast(
                        hooks, round_index, i, neighbor_indices[i], payload
                    )
                    if kept:
                        round_metrics.messages += kept
                        round_metrics.bits += bits * kept
                        if bits > round_metrics.max_message_bits:
                            round_metrics.max_message_bits = bits
                    round_metrics.dropped_messages += dropped
                    round_metrics.delayed_messages += delayed
                else:
                    sender_id = context.node_id
                    for neighbor, payload in dict(outbox).items():
                        if not network.are_neighbors(sender_id, neighbor):
                            raise AlgorithmError(
                                f"node {sender_id!r} attempted to send to "
                                f"non-neighbor {neighbor!r}"
                            )
                        bits = _payload_bits(payload, word)
                        if budget and bits > budget and strict:
                            raise BandwidthViolation(
                                sender_id, neighbor, bits, budget, round_index=round_index
                            )
                        fate = hooks.route(round_index, i, index_of[neighbor], payload)
                        self._account(round_metrics, fate, bits)

            metrics.record(round_metrics)
            round_index += 1

        outputs = {
            node_id: algorithm.output(context)
            for node_id, context in zip(node_order, contexts)
        }
        return outputs, metrics

    def _hooked_broadcast(self, hooks, round_index, sender_index, neighbor_indices, payload):
        """Deliver one broadcast through the hooks; return (kept, dropped, delayed).

        The base implementation routes per delivery (the reference engine's
        per-message semantics); the batched engine overrides it with the
        session's vectorized mask path.
        """
        kept = dropped = delayed = 0
        for receiver_index in neighbor_indices:
            fate = hooks.route(round_index, sender_index, receiver_index, payload)
            if fate is None:
                dropped += 1
            else:
                kept += 1
                if fate:
                    delayed += 1
        return kept, dropped, delayed

    @staticmethod
    def _account(round_metrics: RoundMetrics, fate: Optional[int], bits: int) -> None:
        """Fold one routed delivery's fate into the round metrics."""
        if fate is None:
            round_metrics.dropped_messages += 1
            return
        round_metrics.messages += 1
        round_metrics.bits += bits
        if bits > round_metrics.max_message_bits:
            round_metrics.max_message_bits = bits
        if fate:
            round_metrics.delayed_messages += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReferenceEngine(Engine):
    """The per-node, per-message Python loop (the correctness oracle).

    This is the seed implementation of ``Simulator.run`` moved behind the
    engine interface, byte-for-byte in behavior: inbox dictionaries for every
    node are materialised eagerly each round and every delivery is accounted
    for individually.
    """

    name = "reference"

    def execute(self, network, algorithm, *, budget, limit, strict, hooks=None):
        if hooks is not None:
            return self._execute_hooked(
                network, algorithm, hooks, budget=budget, limit=limit, strict=strict
            )
        metrics = RunMetrics(bandwidth_budget_bits=budget)
        metrics.engine_used = self.name
        word = word_size_bits(max(2, network.n))

        for node_id in network.node_ids():
            algorithm.setup(network.context(node_id))

        # inboxes[v] maps neighbor -> payload delivered at the start of this round.
        inboxes: Dict[Hashable, Dict[Hashable, Any]] = {
            node_id: {} for node_id in network.node_ids()
        }

        round_index = 0
        while True:
            active = [
                node_id
                for node_id in network.node_ids()
                if not network.context(node_id).finished
            ]
            if not active:
                break
            if round_index >= limit:
                raise NonConvergenceError(rounds=round_index, pending=len(active))

            stamp_round()
            round_metrics = RoundMetrics(round_index=round_index, active_nodes=len(active))
            next_inboxes: Dict[Hashable, Dict[Hashable, Any]] = {
                node_id: {} for node_id in network.node_ids()
            }

            for node_id in active:
                context = network.context(node_id)
                outbox = algorithm.round(context, round_index, inboxes[node_id])
                if outbox is None:
                    continue
                if isinstance(outbox, Broadcast):
                    deliveries = {neighbor: outbox.payload for neighbor in context.neighbors}
                else:
                    deliveries = dict(outbox)
                for neighbor, payload in deliveries.items():
                    if not network.are_neighbors(node_id, neighbor):
                        raise AlgorithmError(
                            f"node {node_id!r} attempted to send to non-neighbor {neighbor!r}"
                        )
                    bits = _payload_bits(payload, word)
                    if budget and bits > budget:
                        if strict:
                            raise BandwidthViolation(
                                node_id, neighbor, bits, budget, round_index=round_index
                            )
                    round_metrics.messages += 1
                    round_metrics.bits += bits
                    round_metrics.max_message_bits = max(round_metrics.max_message_bits, bits)
                    next_inboxes[neighbor][node_id] = payload

            metrics.record(round_metrics)
            inboxes = next_inboxes
            round_index += 1

        outputs = {
            node_id: algorithm.output(network.context(node_id))
            for node_id in network.node_ids()
        }
        return outputs, metrics


class BatchedEngine(Engine):
    """Vectorized fast path over CSR-style adjacency arrays.

    Where the work goes, compared to the reference engine:

    * **Adjacency** is flattened once per run into a degree vector plus
      per-node neighbor lists pre-sorted by global node order (the CSR
      ``indptr``/``indices`` split, kept as Python id lists because inbox
      keys are arbitrary hashables).  ``Network.are_neighbors`` is never
      consulted for broadcasts.
    * **Broadcast accounting** is per sender, not per delivery: the payload
      bits are estimated once, the strict bandwidth check is one scalar
      comparison, and the round's message/bit totals are NumPy reductions
      ``degrees[senders].sum()`` / ``dot(bits, degrees[senders])``.
    * **Inboxes** are built lazily, only for nodes still active, by scanning
      the receiver's order-sorted neighbor list against the previous round's
      send buffers.  This reproduces the reference engine's inbox insertion
      order exactly (senders in global node order), which matters because
      algorithms fold inbox floats in iteration order.
    * **Sleeping nodes** are not called while their inbox is empty: by
      their promise such a call changes nothing.  When no mail is in flight
      and every active node sleeps, the loop jumps to the earliest wake round
      (at most ``limit``), stamping and recording each skipped round, so
      rounds, metrics, traces and errors match the reference engine.

    Explicit per-neighbor outboxes (the rare unicast path) fall back to
    per-delivery accounting identical to the reference engine, so mixed
    rounds stay observationally equivalent, including which delivery raises
    first on a bandwidth violation.
    """

    name = "batched"

    def execute(self, network, algorithm, *, budget, limit, strict, hooks=None):
        if hooks is not None:
            return self._execute_hooked(
                network, algorithm, hooks, budget=budget, limit=limit, strict=strict
            )
        # Imported here, not at module level: the reference engine (and hence
        # the whole package) stays importable without NumPy installed.
        import numpy as np

        metrics = RunMetrics(bandwidth_budget_bits=budget)
        metrics.engine_used = self.name

        # All adjacency state comes from the network's cached layout: built
        # once per network and shared across executions (the compiled-state
        # reuse a repro.run.Session depends on).
        layout = network.layout()
        node_order = layout.node_order
        n = len(node_order)
        contexts = layout.contexts
        for context in contexts:
            algorithm.setup(context)

        degrees = layout.degrees
        # Neighbor ids sorted by global node order: the reference engine
        # inserts deliveries while looping over senders in node order, so a
        # receiver scanning its neighbors in that same order rebuilds the
        # identical inbox key sequence.
        sorted_neighbors: List[List[Hashable]] = layout.sorted_neighbor_ids

        word = word_size_bits(max(2, network.n))

        # Send buffers of the previous round: broadcast payload per sender id,
        # and explicit receiver->payload maps for unicast senders.  When the
        # previous round was sparse, deliveries were already scattered into
        # per-receiver dicts (``prev_scattered``) instead.
        prev_broadcast: Dict[Hashable, Payload] = {}
        prev_unicast: Dict[Hashable, Dict[Hashable, Payload]] = {}
        prev_scattered: Optional[Dict[Hashable, Dict[Hashable, Payload]]] = None
        prev_full_broadcast = False

        # Nodes only ever transition to finished, so the active list can be
        # filtered incrementally instead of rescanning all n nodes per round.
        active = [i for i in range(n) if not contexts[i]._finished]

        round_index = 0
        while True:
            if round_index:
                active = [i for i in active if not contexts[i]._finished]
            if not active:
                break
            if round_index >= limit:
                raise NonConvergenceError(rounds=round_index, pending=len(active))

            any_mail = bool(prev_broadcast) or bool(prev_unicast) or bool(prev_scattered)
            if not any_mail:
                wake = min(min(contexts[i]._wake for i in active), limit)
                if wake > round_index:
                    # Every active node sleeps and nothing is in flight: no
                    # call would change anything until the earliest wake.
                    while round_index < wake:
                        stamp_round()
                        metrics.record(
                            RoundMetrics(round_index=round_index, active_nodes=len(active))
                        )
                        round_index += 1
                    continue

            stamp_round()
            round_metrics = RoundMetrics(round_index=round_index, active_nodes=len(active))

            broadcast_payloads: Dict[Hashable, Payload] = {}
            unicast_payloads: Dict[Hashable, Dict[Hashable, Payload]] = {}
            broadcast_senders: List[int] = []
            broadcast_bits: List[int] = []
            unicast_senders: List[int] = []
            unicast_messages = 0
            unicast_bits = 0
            unicast_max_bits = 0

            for i in active:
                context = contexts[i]
                inbox: Dict[Hashable, Payload]
                if not any_mail:
                    inbox = {}
                elif prev_scattered is not None:
                    inbox = prev_scattered.get(context.node_id) or {}
                elif prev_full_broadcast:
                    # Every node broadcast last round: no membership test.
                    inbox = {u: prev_broadcast[u] for u in sorted_neighbors[i]}
                else:
                    inbox = {}
                    receiver_id = context.node_id
                    for u in sorted_neighbors[i]:
                        payload = prev_broadcast.get(u, _MISSING)
                        if payload is _MISSING and prev_unicast:
                            deliveries = prev_unicast.get(u)
                            if deliveries is not None:
                                payload = deliveries.get(receiver_id, _MISSING)
                        if payload is not _MISSING:
                            inbox[u] = payload
                if not inbox and context._wake > round_index:
                    continue

                outbox = algorithm.round(context, round_index, inbox)
                if outbox is None:
                    continue
                if isinstance(outbox, Broadcast):
                    if not context.neighbors:
                        # No deliveries: the reference engine neither accounts
                        # nor budget-checks a broadcast from an isolated node.
                        continue
                    payload = outbox.payload
                    bits = _payload_bits(payload, word)
                    if budget and bits > budget and strict:
                        # The reference engine raises at the first delivery,
                        # which for a broadcast is the first listed neighbor.
                        raise BandwidthViolation(
                            context.node_id,
                            context.neighbors[0],
                            bits,
                            budget,
                            round_index=round_index,
                        )
                    broadcast_payloads[context.node_id] = payload
                    broadcast_senders.append(i)
                    broadcast_bits.append(bits)
                else:
                    sender_id = context.node_id
                    deliveries: Dict[Hashable, Payload] = {}
                    for neighbor, payload in dict(outbox).items():
                        if not network.are_neighbors(sender_id, neighbor):
                            raise AlgorithmError(
                                f"node {sender_id!r} attempted to send to "
                                f"non-neighbor {neighbor!r}"
                            )
                        bits = _payload_bits(payload, word)
                        if budget and bits > budget and strict:
                            raise BandwidthViolation(
                                sender_id, neighbor, bits, budget, round_index=round_index
                            )
                        unicast_messages += 1
                        unicast_bits += bits
                        if bits > unicast_max_bits:
                            unicast_max_bits = bits
                        deliveries[neighbor] = payload
                    if deliveries:
                        unicast_payloads[sender_id] = deliveries
                        unicast_senders.append(i)

            if broadcast_senders:
                sender_degrees = degrees[broadcast_senders]
                bits_array = np.fromiter(
                    broadcast_bits, dtype=np.int64, count=len(broadcast_bits)
                )
                round_metrics.messages = unicast_messages + int(sender_degrees.sum())
                round_metrics.bits = unicast_bits + int(bits_array @ sender_degrees)
                round_metrics.max_message_bits = max(unicast_max_bits, int(bits_array.max()))
            else:
                round_metrics.messages = unicast_messages
                round_metrics.bits = unicast_bits
                round_metrics.max_message_bits = unicast_max_bits

            metrics.record(round_metrics)

            # Pick the delivery strategy for the next round's inboxes.
            prev_broadcast = broadcast_payloads
            prev_unicast = unicast_payloads
            prev_full_broadcast = len(broadcast_payloads) == n and not unicast_payloads
            prev_scattered = None
            if not prev_full_broadcast and (broadcast_payloads or unicast_payloads):
                # Sparse rounds (few senders relative to the surviving active
                # frontier) are cheaper delivered sender-push style than by
                # scanning every receiver's full neighbor list.
                active_degree_sum = int(degrees[active].sum())
                if 2 * round_metrics.messages < active_degree_sum:
                    prev_scattered = self._scatter(
                        contexts,
                        broadcast_senders,
                        broadcast_payloads,
                        unicast_senders,
                        unicast_payloads,
                    )
            round_index += 1

        outputs = {
            node_id: algorithm.output(context)
            for node_id, context in zip(node_order, contexts)
        }
        return outputs, metrics

    def _hooked_broadcast(self, hooks, round_index, sender_index, neighbor_indices, payload):
        # Fates are decided with NumPy masks over the session's CSR slice --
        # one call per sender, no per-message Python decisions.
        del neighbor_indices
        return hooks.broadcast(round_index, sender_index, payload)

    @staticmethod
    def _scatter(
        contexts: List,
        broadcast_senders: List[int],
        broadcast_payloads: Dict[Hashable, Payload],
        unicast_senders: List[int],
        unicast_payloads: Dict[Hashable, Dict[Hashable, Payload]],
    ) -> Dict[Hashable, Dict[Hashable, Payload]]:
        """Push a sparse round's deliveries into per-receiver inbox dicts.

        Both sender lists are ascending (they were appended while looping
        over the active list in node order); merging them keeps the global
        sender order, so each receiver's inbox keys appear in exactly the
        order the reference engine would have inserted them.
        """
        inboxes: Dict[Hashable, Dict[Hashable, Payload]] = {}
        bi, ui = 0, 0
        nb, nu = len(broadcast_senders), len(unicast_senders)
        while bi < nb or ui < nu:
            if ui >= nu or (bi < nb and broadcast_senders[bi] < unicast_senders[ui]):
                context = contexts[broadcast_senders[bi]]
                bi += 1
                sender_id = context.node_id
                payload = broadcast_payloads[sender_id]
                for receiver in context.neighbors:
                    inbox = inboxes.get(receiver)
                    if inbox is None:
                        inboxes[receiver] = {sender_id: payload}
                    else:
                        inbox[sender_id] = payload
            else:
                context = contexts[unicast_senders[ui]]
                ui += 1
                sender_id = context.node_id
                for receiver, payload in unicast_payloads[sender_id].items():
                    inbox = inboxes.get(receiver)
                    if inbox is None:
                        inboxes[receiver] = {sender_id: payload}
                    else:
                        inbox[sender_id] = payload
        return inboxes


#: Registry of engine names to engine classes.  The third tier -- the
#: ``"kernel"`` engine (node-loop-free NumPy array programs, see
#: :mod:`repro.congest.kernels`) -- registers itself lazily through
#: :func:`_load_entry_point_engines` so this module keeps importing without
#: NumPy installed.
ENGINES: Dict[str, Type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    BatchedEngine.name: BatchedEngine,
}


def _load_entry_point_engines() -> None:
    """Register the engines that live outside this module (idempotent)."""
    if "kernel" not in ENGINES:
        from repro.congest.kernels.engine import KernelEngine

        ENGINES[KernelEngine.name] = KernelEngine
    if "sharded" not in ENGINES:
        from repro.congest.sharded.engine import ShardedEngine

        ENGINES[ShardedEngine.name] = ShardedEngine

#: Specification accepted everywhere an engine can be chosen.
EngineSpec = Union[None, str, Engine, Type[Engine]]

_default_engine_name: str = ReferenceEngine.name


def available_engines() -> Tuple[str, ...]:
    """Return the registered engine names, sorted."""
    _load_entry_point_engines()
    return tuple(sorted(ENGINES))


def universal_engines() -> Tuple[str, ...]:
    """Registered engines that can execute every algorithm, sorted.

    The cross-engine determinism and parity suites quantify over this
    set.  It excludes partial-capability tiers (``Engine.universal`` is
    ``False``), currently the sharded engine, whose own byte-parity gate
    against the kernel tier lives in
    ``tests/congest/test_sharded_parity.py``.
    """
    _load_entry_point_engines()
    return tuple(sorted(name for name, cls in ENGINES.items() if cls.universal))


def get_default_engine() -> str:
    """Return the name of the process-wide default engine."""
    return _default_engine_name


def set_default_engine(name: str) -> str:
    """Set the process-wide default engine; returns the previous default.

    Only affects call sites that pass ``engine=None``.  The benchmark
    harness uses this to run everything on the batched engine.
    """
    global _default_engine_name
    _load_entry_point_engines()
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; available: {available_engines()}")
    previous = _default_engine_name
    _default_engine_name = name
    return previous


def get_engine(engine: EngineSpec = None) -> Engine:
    """Resolve an engine specification to an :class:`Engine` instance.

    Accepts a registered name (``"reference"`` / ``"batched"`` /
    ``"kernel"`` / ``"sharded"``), an :class:`Engine` instance (returned
    as-is), an :class:`Engine` subclass (instantiated), or ``None`` for the
    process-wide default.
    """
    if engine is None:
        engine = _default_engine_name
    if isinstance(engine, Engine):
        return engine
    if isinstance(engine, type) and issubclass(engine, Engine):
        return engine()
    _load_entry_point_engines()
    try:
        return ENGINES[engine]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {engine!r}; available: {available_engines()}"
        ) from None
