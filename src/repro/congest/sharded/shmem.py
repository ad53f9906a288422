"""Shared-memory transport for the sharded tier.

One run allocates two ``multiprocessing.shared_memory`` blocks:

* a **control block** -- one int64 row per shard (live count, status, and
  the round's reduced metrics) plus one coordinator row carrying the
  command word; and
* a **lane block** -- the halo-exchange message lanes, double-buffered by
  round parity.  Per parity: a 4-word header per shard (emission type,
  payload kind, selected kind) and, per directed shard pair, a packed node
  lane (``ival`` int64 / ``fval`` float64 / ``sent`` uint8 over the pair's
  boundary nodes) plus an edge-flag lane (uint8 over the pair's boundary
  edges, canonical ``(u_global, v_global)`` order).

The per-round protocol is two barriers, with the coordinator as an extra
party: at the **publish** barrier every worker's control row and outgoing
lanes for the round are visible; at the **command** barrier the coordinator
has written CONTINUE / FINISH / ABORT.  Double buffering by parity makes a
third barrier unnecessary: a worker executing round ``r`` writes parity
``(r + 1) % 2`` while every reader of parity ``r % 2`` has necessarily
passed the round-``r`` publish barrier.

The coordinator owns the blocks through :class:`SharedMemoryTransport`;
each worker receives a picklable :class:`SharedMemoryEndpoint` and attaches
it to get its barriers, queues and lane views.
"""

from __future__ import annotations

from threading import BrokenBarrierError
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CMD_ABORT",
    "CMD_CONTINUE",
    "CMD_FINISH",
    "CTRL_BITS",
    "CTRL_HALO_BYTES",
    "CTRL_LIVE",
    "CTRL_MAXBITS",
    "CTRL_MESSAGES",
    "CTRL_STATUS",
    "CTRL_WIDTH",
    "ETYPE_BROADCAST",
    "ETYPE_NEIGHBORHOOD",
    "ETYPE_NONE",
    "ETYPE_UNICAST",
    "HDR_ETYPE",
    "HDR_KIND",
    "HDR_SEL_KIND",
    "LaneLayout",
    "LaneViews",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_VIOLATION",
    "SharedMemoryEndpoint",
    "SharedMemoryTransport",
    "TransportError",
]

# Control-row slots (one int64 row per shard).
CTRL_LIVE = 0
CTRL_STATUS = 1
CTRL_MESSAGES = 2
CTRL_BITS = 3
CTRL_MAXBITS = 4
CTRL_HALO_BYTES = 5
CTRL_WIDTH = 8

# Coordinator-row slots (row index == shard count).
_CMD_SLOT = 0

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_VIOLATION = 2

CMD_CONTINUE = 0
CMD_FINISH = 1
CMD_ABORT = 2

# Per-shard, per-parity lane header words.
HDR_ETYPE = 0
HDR_KIND = 1
HDR_SEL_KIND = 2
_HDR_WORDS = 4

ETYPE_NONE = 0
ETYPE_BROADCAST = 1
ETYPE_UNICAST = 2
ETYPE_NEIGHBORHOOD = 3


class TransportError(RuntimeError):
    """A worker died, a barrier broke, or a wait timed out."""


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


class LaneLayout:
    """Byte offsets of every lane in the shared block (computed once).

    ``node_counts[a, b]`` / ``edge_counts[a, b]`` size the directed pair
    ``a -> b``; zero-width pairs get no lane.  Offsets are parity-relative;
    parity ``p`` lives at ``p * parity_stride``.
    """

    def __init__(self, shards: int, node_counts: np.ndarray, edge_counts: np.ndarray):
        self.shards = shards
        self.header_offsets: List[int] = []
        self.node_offsets: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        self.edge_offsets: Dict[Tuple[int, int], int] = {}
        self.node_widths: Dict[Tuple[int, int], int] = {}
        self.edge_widths: Dict[Tuple[int, int], int] = {}
        cursor = 0
        for shard in range(shards):
            self.header_offsets.append(cursor)
            cursor += _HDR_WORDS * 8
        for a in range(shards):
            for b in range(shards):
                count = int(node_counts[a, b])
                if a == b or count == 0:
                    continue
                ival = cursor
                fval = ival + 8 * count
                sent = fval + 8 * count
                cursor = _align8(sent + count)
                self.node_offsets[(a, b)] = (ival, fval, sent)
                self.node_widths[(a, b)] = count
        for a in range(shards):
            for b in range(shards):
                count = int(edge_counts[a, b])
                if a == b or count == 0:
                    continue
                self.edge_offsets[(a, b)] = cursor
                self.edge_widths[(a, b)] = count
                cursor = _align8(cursor + count)
        self.parity_stride = max(8, cursor)
        self.total_bytes = 2 * self.parity_stride

    def ctrl_bytes(self) -> int:
        return (self.shards + 1) * CTRL_WIDTH * 8


class LaneViews:
    """NumPy views over one process's mapping of the lane + control blocks."""

    def __init__(self, layout: LaneLayout, lanes_buf, ctrl_buf):
        self._layout = layout
        self._lanes = lanes_buf
        self.ctrl = np.frombuffer(
            ctrl_buf, dtype=np.int64, count=(layout.shards + 1) * CTRL_WIDTH
        ).reshape(layout.shards + 1, CTRL_WIDTH)

    def header(self, parity: int, shard: int) -> np.ndarray:
        offset = parity * self._layout.parity_stride + self._layout.header_offsets[shard]
        return np.frombuffer(self._lanes, dtype=np.int64, count=_HDR_WORDS, offset=offset)

    def node_lane(
        self, parity: int, a: int, b: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The ``(ival, fval, sent)`` views of pair ``a -> b`` (or ``None``)."""
        spot = self._layout.node_offsets.get((a, b))
        if spot is None:
            return None
        count = self._layout.node_widths[(a, b)]
        base = parity * self._layout.parity_stride
        ival = np.frombuffer(self._lanes, dtype=np.int64, count=count, offset=base + spot[0])
        fval = np.frombuffer(self._lanes, dtype=np.float64, count=count, offset=base + spot[1])
        sent = np.frombuffer(self._lanes, dtype=np.uint8, count=count, offset=base + spot[2])
        return ival, fval, sent

    def edge_lane(self, parity: int, a: int, b: int) -> Optional[np.ndarray]:
        """The edge-flag view of pair ``a -> b`` (or ``None``)."""
        offset = self._layout.edge_offsets.get((a, b))
        if offset is None:
            return None
        count = self._layout.edge_widths[(a, b)]
        return np.frombuffer(
            self._lanes, dtype=np.uint8, count=count,
            offset=parity * self._layout.parity_stride + offset,
        )

    def release(self) -> None:
        """Drop every exported view so the underlying mapping can close."""
        self.ctrl = None
        self._lanes = None


class SharedMemoryEndpoint:
    """The picklable handle a worker process receives.

    Carries the shared-memory names, the layout, both barriers and both
    queues; :meth:`attach` maps the blocks in the worker and returns its
    transport.
    """

    def __init__(self, shard, ctrl_name, lanes_name, layout, barrier_publish,
                 barrier_command, errors, outputs, timeout):
        self.shard = shard
        self.ctrl_name = ctrl_name
        self.lanes_name = lanes_name
        self.layout = layout
        self.barrier_publish = barrier_publish
        self.barrier_command = barrier_command
        self.errors = errors
        self.outputs = outputs
        self.timeout = timeout

    def attach(self) -> "_SharedMemoryWorker":
        from multiprocessing import shared_memory

        ctrl = shared_memory.SharedMemory(name=self.ctrl_name)
        lanes = shared_memory.SharedMemory(name=self.lanes_name)
        # Workers share the coordinator's resource tracker (fork and spawn
        # both hand the tracker fd down), and its cache is a name *set* --
        # the attach-side register is a no-op and the coordinator's unlink
        # deregisters exactly once, so nothing to compensate here.
        return _SharedMemoryWorker(self, ctrl, lanes)


class _SharedMemoryWorker:
    """Worker-side transport: barriers + queues + mapped views.

    ``wait_publish`` enters the publish barrier once the control row and
    out-lanes are written; ``wait_command`` enters the command barrier and
    returns the coordinator's command word; ``put_error`` and
    ``put_outputs`` ship structured records to it; ``abort`` breaks both
    barriers so every party unblocks; ``close`` releases this process's
    mappings and never unlinks.
    """

    def __init__(self, endpoint: SharedMemoryEndpoint, ctrl, lanes):
        self.shard = endpoint.shard
        self._endpoint = endpoint
        self._ctrl = ctrl
        self._lanes = lanes
        self.views = LaneViews(endpoint.layout, lanes.buf, ctrl.buf)

    def wait_publish(self) -> None:
        try:
            self._endpoint.barrier_publish.wait(self._endpoint.timeout)
        except BrokenBarrierError as exc:
            raise TransportError("publish barrier broke") from exc

    def wait_command(self) -> int:
        try:
            self._endpoint.barrier_command.wait(self._endpoint.timeout)
        except BrokenBarrierError as exc:
            raise TransportError("command barrier broke") from exc
        return int(self.views.ctrl[self._endpoint.layout.shards, _CMD_SLOT])

    def put_error(self, payload: Any) -> None:
        self._endpoint.errors.put(payload)

    def put_outputs(self, payload: Any) -> None:
        self._endpoint.outputs.put(payload)

    def abort(self) -> None:
        self._endpoint.barrier_publish.abort()
        self._endpoint.barrier_command.abort()

    def close(self) -> None:
        self.views.release()
        for segment in (self._ctrl, self._lanes):
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views already dropped
                pass


class SharedMemoryTransport:
    """Coordinator-side owner of the run's shared state.

    Allocates the blocks, builds the barriers (``shards + 1`` parties --
    the coordinator participates in both) and the error/output queues, and
    hands each worker a :class:`SharedMemoryEndpoint`.

    Construction is exception-safe: the segments are named files in
    ``/dev/shm`` that outlive the process unless unlinked, so if anything
    after the first allocation raises (the second allocation, a barrier or
    queue the context refuses to build), every segment created so far is
    unlinked before the exception propagates -- a failed constructor leaks
    nothing.
    """

    def __init__(self, ctx, shards: int, node_counts, edge_counts,
                 timeout: float = 120.0):
        from multiprocessing import shared_memory

        self.shards = shards
        self.timeout = timeout
        self.layout = LaneLayout(shards, node_counts, edge_counts)
        self._ctrl = None
        self._lanes = None
        self.views: Optional[LaneViews] = None
        self._unlinked = False
        try:
            self._ctrl = shared_memory.SharedMemory(
                create=True, size=self.layout.ctrl_bytes()
            )
            self._lanes = shared_memory.SharedMemory(
                create=True, size=self.layout.total_bytes
            )
            # Shared memory is zero-filled on creation: every header starts at
            # ETYPE_NONE and every control row at zero, which is exactly the
            # round-0 state the protocol assumes.
            self.barrier_publish = ctx.Barrier(shards + 1)
            self.barrier_command = ctx.Barrier(shards + 1)
            self.errors = ctx.SimpleQueue()
            self.outputs = ctx.SimpleQueue()
            self.views = LaneViews(self.layout, self._lanes.buf, self._ctrl.buf)
        except BaseException:
            self.close()
            raise

    def endpoint(self, shard: int) -> SharedMemoryEndpoint:
        return SharedMemoryEndpoint(
            shard, self._ctrl.name, self._lanes.name, self.layout,
            self.barrier_publish, self.barrier_command,
            self.errors, self.outputs, self.timeout,
        )

    # -- coordinator-side protocol ----------------------------------------

    def wait_publish(self) -> None:
        try:
            self.barrier_publish.wait(self.timeout)
        except BrokenBarrierError as exc:
            raise TransportError("publish barrier broke or timed out") from exc

    def send_command(self, command: int) -> None:
        self.views.ctrl[self.shards, _CMD_SLOT] = command
        try:
            self.barrier_command.wait(self.timeout)
        except BrokenBarrierError as exc:
            raise TransportError("command barrier broke or timed out") from exc

    def abort(self) -> None:
        self.barrier_publish.abort()
        self.barrier_command.abort()

    def drain_errors(self) -> List[Any]:
        drained = []
        while not self.errors.empty():
            drained.append(self.errors.get())
        return drained

    def close(self) -> None:
        """Release mappings and unlink the segments (idempotent).

        Tolerates partially constructed state -- it is the cleanup arm of
        ``__init__`` as well as the normal teardown path, so any segment
        may be ``None``.
        """
        if self.views is not None:
            self.views.release()
        for segment in (self._ctrl, self._lanes):
            if segment is None:
                continue
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views already dropped
                pass
        if not self._unlinked:
            self._unlinked = True
            for segment in (self._ctrl, self._lanes):
                if segment is None:
                    continue
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
