"""Worker process entry point for the sharded tier.

A worker attaches the run's shared-memory transport, builds its shard-local
:class:`~repro.congest.kernels.grid.KernelGrid`, instantiates the *same*
kernel program the single-process engine would run, and then
loops the two-barrier round protocol:

1. publish the control row (pending count, status, and the previous round's
   reduced stats) and enter the **publish** barrier;
2. enter the **command** barrier and read the coordinator's verdict --
   ``CONTINUE`` steps one more round, ``FINISH`` ships the shard's output
   columns,
   ``ABORT`` returns immediately;
3. on ``CONTINUE``: assemble the round's inbox from own rows + peer lanes,
   call ``program.step`` against the :class:`~repro.congest.sharded.halo.ShardedRun`,
   and carry the round's stats into the next publish.

Failures never raise across the process boundary raw: strict-budget
violations and program exceptions become structured payloads on the error
queue *before* the publish barrier (a queue put is a pipe write, so it
happens-before the coordinator's status read), and the coordinator rebuilds
the exact single-process exception.  Transport errors (a broken barrier
means some other party died) exit quietly -- the coordinator reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.congest.kernels.grid import KernelGrid
from repro.congest.sharded.halo import ShardedRun, ShardViolation
from repro.congest.sharded.partition import ShardSpec
from repro.congest.sharded.shmem import (
    CMD_CONTINUE,
    CMD_FINISH,
    CTRL_BITS,
    CTRL_HALO_BYTES,
    CTRL_LIVE,
    CTRL_MAXBITS,
    CTRL_MESSAGES,
    CTRL_STATUS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VIOLATION,
    SharedMemoryEndpoint,
    TransportError,
)
from repro.obs.metrics import peak_rss_kib

__all__ = ["WorkerTask", "worker_main"]


@dataclass
class WorkerTask:
    """Everything one worker process needs (picklable).

    ``program`` is the algorithm's program from
    :data:`repro.congest.kernels.KERNELS`, built against the shard-local
    grid with the global node count.
    """

    endpoint: SharedMemoryEndpoint
    spec: ShardSpec
    program: Callable
    config: Dict[str, Any]
    algorithm: Any
    seed: Optional[int]
    budget: int
    strict: bool
    n_global: int


def _error_payload(exc: BaseException, shard: int, round_index: int) -> Dict[str, Any]:
    return {
        "type": "error",
        "shard": shard,
        "round": round_index,
        "exc_type": type(exc).__name__,
        "message": str(exc),
    }


def worker_main(task: WorkerTask) -> None:
    """Process entry point: attach, loop, and always release the mappings."""
    transport = task.endpoint.attach()
    try:
        _worker_loop(task, transport)
    except TransportError:
        # Some other party died or timed out; the coordinator reports it.
        pass
    except BaseException as exc:  # pragma: no cover - loop failures are caught inside
        try:
            transport.put_error(_error_payload(exc, task.spec.index, -1))
        finally:
            transport.abort()
    finally:
        transport.close()


def _worker_loop(task: WorkerTask, transport) -> None:
    spec = task.spec
    views = transport.views
    own_n = spec.own_count
    first_neighbor = None
    if spec.firsts is not None:
        firsts = spec.firsts
        first_neighbor = lambda index: firsts[index]  # noqa: E731
    grid = KernelGrid(
        spec.indptr, spec.indices, spec.weights, spec.labels,
        first_neighbor=first_neighbor,
    )
    run = ShardedRun(grid, spec, views, budget=task.budget, strict=task.strict)
    pending_error: Optional[Dict[str, Any]] = None
    program = None
    try:
        program = task.program(
            grid, task.config, task.algorithm, task.seed, task.n_global
        )
    except BaseException as exc:
        pending_error = _error_payload(exc, spec.index, 0)

    ctrl = views.ctrl[spec.index]
    stats = (0, 0, 0, 0)
    round_index = 0
    while True:
        if pending_error is not None or program is None:
            live = 0
            status = (
                STATUS_VIOLATION
                if pending_error and pending_error.get("type") == "violation"
                else STATUS_ERROR
            )
        else:
            live = int((~program.finished[:own_n]).sum())
            status = STATUS_OK
        ctrl[CTRL_LIVE] = live
        ctrl[CTRL_STATUS] = status
        ctrl[CTRL_MESSAGES] = stats[0]
        ctrl[CTRL_BITS] = stats[1]
        ctrl[CTRL_MAXBITS] = stats[2]
        ctrl[CTRL_HALO_BYTES] = stats[3]
        if pending_error is not None:
            # The queue put is a pipe write that happens-before our publish
            # barrier entry, so the coordinator's drain always finds it.
            transport.put_error(pending_error)
            pending_error = None
        transport.wait_publish()
        command = transport.wait_command()
        if command == CMD_FINISH:
            # Own rows only, as columns: the coordinator scatters them into
            # the global columns by ``spec.own``, so neither the halo rows
            # nor the local labels cross the queue.
            columns = {} if program is None else program.outputs(own_n).columns
            maxrss_kib = peak_rss_kib()
            transport.put_outputs((spec.index, columns, maxrss_kib))
            return
        if command != CMD_CONTINUE:
            return
        acting = np.zeros(grid.n, dtype=bool)
        acting[:own_n] = ~program.finished[:own_n]
        run.begin_round(round_index)
        inbox = run.assemble(round_index, acting)
        try:
            program.step(round_index, acting, inbox, run)
        except ShardViolation as exc:
            payload = dict(exc.payload)
            payload["shard"] = spec.index
            pending_error = payload
        except BaseException as exc:
            pending_error = _error_payload(exc, spec.index, round_index)
        round_metrics = run.round_metrics
        stats = (
            int(round_metrics.messages),
            int(round_metrics.bits),
            int(round_metrics.max_message_bits),
            int(run.halo_bytes),
        )
        round_index += 1
