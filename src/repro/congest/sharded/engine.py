"""The sharded-tier coordinator and the ``"sharded"`` engine.

``run_sharded_program`` is the sharded counterpart of
:func:`repro.congest.kernels.faults.run_program`: it partitions the global
grid, spawns one worker process per shard, and drives the two-barrier round
protocol from the coordinator seat -- deciding CONTINUE / FINISH / ABORT
from the reduced control rows exactly where the single-process driver's
round loop decides from ``pending``.

Byte-identity discipline (the run-level half; the per-round half lives in
:mod:`~repro.congest.sharded.halo`):

* **Metrics.**  Each round's ``messages``/``bits`` are summed and
  ``max_message_bits`` maxed across shards from the single-process
  per-emission formulas, and ``active_nodes`` is the global pending count
  sampled where the driver samples it, so ``RunMetrics`` reduces field by
  field to the kernel engine's.
* **Outputs.**  Shards ship their *own* rows only; the merge inserts them
  in ascending global node order, reproducing the single-process output
  dict's insertion order (and hence its pickle bytes).
* **Errors.**  Pre-spawn validation replays the single-process raise
  precedence for config-level failures; worker-side failures arrive as
  structured payloads and are rebuilt as the exact exception -- violations
  resolve to the candidate with the smallest global sender index, which is
  the node the unsharded ``np.argmax`` reports.

Shard-count independence follows from the same discipline: nothing
observable depends on the partition, only on global node order.

:meth:`ShardedEngine.run_grid` is the tier's grid entry point, the same
signature as :meth:`~repro.congest.kernels.engine.KernelEngine.run_grid`:
``execute`` calls it on a network's grid, and the CSR path of
:class:`~repro.run.session.Session` on a streamed graph's grid.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.engine import Engine
from repro.congest.errors import BandwidthViolation, NonConvergenceError
from repro.congest.kernels import check_capability, program_for
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.sharded.partition import build_partition
from repro.congest.sharded.shmem import (
    CMD_ABORT,
    CMD_CONTINUE,
    CMD_FINISH,
    CTRL_BITS,
    CTRL_HALO_BYTES,
    CTRL_LIVE,
    CTRL_MAXBITS,
    CTRL_MESSAGES,
    CTRL_STATUS,
    STATUS_OK,
    SharedMemoryTransport,
    TransportError,
)
from repro.congest.sharded.worker import WorkerTask, worker_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import stamp_round

__all__ = [
    "ShardedEngine",
    "run_sharded_program",
    "sharded_metrics",
]

#: Telemetry registry for the sharded tier; the serve endpoint merges it
#: into ``/metrics`` next to the service registry.
sharded_metrics = MetricsRegistry()

#: How long the output-collection poll waits before declaring a dead worker.
_OUTPUT_POLL_SECONDS = 0.001


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _prevalidate(program, grid, config, algorithm, seed) -> None:
    """Replay the single-process raise precedence for config-level errors.

    These exceptions fire during program *construction* in the unsharded
    run; the program's ``validate`` raises them against the global grid
    before any process spawns, which keeps the failure cheap and the
    message byte-identical (a shard-local grid could trip a different
    check first).
    """
    validate = getattr(program, "validate", None)
    if validate is not None:
        validate(grid, config, algorithm, seed)


def _rebuild_error(payloads: List[Dict[str, Any]], budget: int) -> BaseException:
    """Turn drained worker payloads into the single-process exception.

    Errors win over violations (a config-level raise precedes any emission
    in the unsharded round); among violations the candidate with the
    smallest global sender index is the node the unsharded ``np.argmax``
    finds first.
    """
    errors = [p for p in payloads if p.get("type") == "error"]
    if errors:
        return _reconstruct_exception(min(errors, key=lambda p: p.get("shard", 0)))
    violations = [p for p in payloads if p.get("type") == "violation"]
    if violations:
        pick = min(violations, key=lambda p: p["sender_global"])
        return BandwidthViolation(
            pick["sender"], pick["receiver"], pick["bits"], budget,
            round_index=pick["round"],
        )
    return TransportError("a shard worker failed without reporting an error")


def _reconstruct_exception(payload: Dict[str, Any]) -> BaseException:
    import builtins

    from repro.congest import errors as congest_errors

    name = payload.get("exc_type", "RuntimeError")
    candidate = getattr(congest_errors, name, None) or getattr(builtins, name, None)
    if not (isinstance(candidate, type) and issubclass(candidate, BaseException)):
        candidate = RuntimeError
    message = payload.get("message", "")
    try:
        return candidate(message)
    except Exception:  # pragma: no cover - exotic constructor signature
        return RuntimeError(message)


def run_sharded_program(
    grid,
    config,
    algorithm,
    *,
    budget: int,
    limit: int,
    strict: bool,
    seed: Optional[int] = None,
    shards: Optional[int] = None,
    start_method: Optional[str] = None,
    barrier_timeout: Optional[float] = None,
    tracer: Optional[Any] = None,
) -> Tuple[dict, RunMetrics]:
    """Execute one kernel program across shard worker processes.

    Same contract as a kernel callable: returns ``(outputs, RunMetrics)``
    byte-identical to the single-process run.  ``shards`` defaults to 2;
    ``start_method`` to ``fork`` where available (``spawn`` requires the
    algorithm instance to be picklable); ``barrier_timeout`` bounds every
    barrier wait so a crashed worker surfaces as :class:`TransportError`
    instead of a hang.  Callers check the algorithm has a program
    first (:func:`repro.congest.kernels.check_capability`).
    """
    program = program_for(algorithm)
    _prevalidate(program, grid, config, algorithm, seed)
    metrics = RunMetrics(bandwidth_budget_bits=budget)
    n_global = grid.n
    if n_global == 0:
        return {}, metrics
    shard_count = 2 if shards is None else int(shards)
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")

    node_labels = None if isinstance(grid.node_order, range) else grid.node_order
    first_neighbor = (
        grid.first_neighbor_id if grid._first_neighbor is not None else None
    )
    plan = build_partition(
        grid.indptr, grid.indices, grid.weights, shard_count,
        node_labels=node_labels, first_neighbor=first_neighbor,
    )
    ctx = multiprocessing.get_context(start_method or _default_start_method())
    timeout = 120.0 if barrier_timeout is None else float(barrier_timeout)
    transport = SharedMemoryTransport(
        ctx, shard_count, plan.node_counts, plan.edge_counts, timeout=timeout
    )
    workers = []
    # From here on the transport owns /dev/shm segments: *everything* after
    # construction runs inside the try whose finally unlinks them, so no
    # exception window can leak a segment.
    try:
        sharded_metrics.counter(
            "sharded_runs_total", "Sharded-tier runs started",
            algorithm=getattr(algorithm, "name", type(algorithm).__name__),
        ).inc()
        # Session hands the shared read-only MappingProxyType config straight
        # through; proxies cannot pickle, and the spawn start method pickles
        # every WorkerTask, so ship a plain-dict copy.
        config = dict(config) if config is not None else None
        for shard in range(shard_count):
            task = WorkerTask(
                endpoint=transport.endpoint(shard),
                spec=plan.specs[shard],
                program=program,
                config=config,
                algorithm=algorithm,
                seed=seed,
                budget=budget,
                strict=strict,
                n_global=n_global,
            )
            process = ctx.Process(target=worker_main, args=(task,), daemon=True)
            process.start()
            workers.append(process)
        outputs = _coordinate(
            transport, plan, metrics, limit=limit, budget=budget,
            tracer=tracer, workers=workers,
        )
        return outputs, metrics
    finally:
        for process in workers:
            process.join(timeout=5)
        for process in workers:
            if process.is_alive():  # pragma: no cover - crash/abort cleanup
                process.terminate()
                process.join(timeout=5)
        # An in-flight exception's traceback pins the coordinator frames,
        # whose locals hold NumPy views over the shared blocks; with those
        # pointers exported, close() could not unmap and the segment would
        # fall to the GC (raising from __del__).  Error paths never need
        # the frame locals, so drop them before releasing the mappings.
        exception = sys.exc_info()[1]
        if exception is not None:
            traceback.clear_frames(exception.__traceback__)
        transport.close()


def _coordinate(transport, plan, metrics, *, limit, budget, tracer, workers):
    """The coordinator's round loop -- the driver loop, one barrier removed.

    At publish barrier ``r`` every control row carries the shard's pending
    count *before* round ``r`` and its stats *from* round ``r - 1``, so the
    loop records round ``r - 1``, then decides round ``r`` exactly like the
    single-process driver: statuses first (an exception aborts before its
    round is recorded), then convergence, then the round limit.  Round
    ``r``'s start is stamped just before ``CMD_CONTINUE`` releases it.
    """
    shards = plan.shards
    ctrl = transport.views.ctrl
    rounds_counter = sharded_metrics.counter(
        "sharded_rounds_total", "Rounds driven by the sharded coordinator"
    )
    halo_counter = sharded_metrics.counter(
        "sharded_halo_bytes_total", "Halo-exchange payload bytes shipped"
    )
    round_index = 0
    prev_live = 0
    try:
        while True:
            transport.wait_publish()
            statuses = ctrl[:shards, CTRL_STATUS]
            if (statuses != STATUS_OK).any():
                transport.send_command(CMD_ABORT)
                raise _rebuild_error(transport.drain_errors(), budget)
            if round_index > 0:
                halo_bytes = int(ctrl[:shards, CTRL_HALO_BYTES].sum())
                round_metrics = RoundMetrics(
                    round_index=round_index - 1,
                    messages=int(ctrl[:shards, CTRL_MESSAGES].sum()),
                    bits=int(ctrl[:shards, CTRL_BITS].sum()),
                    max_message_bits=int(ctrl[:shards, CTRL_MAXBITS].max()),
                    active_nodes=prev_live,
                )
                metrics.record(round_metrics)
                rounds_counter.inc()
                halo_counter.inc(halo_bytes)
                if tracer is not None:
                    tracer.event(
                        "sharded_round",
                        round=round_index - 1,
                        active_nodes=prev_live,
                        messages=round_metrics.messages,
                        halo_bytes=halo_bytes,
                    )
            live = int(ctrl[:shards, CTRL_LIVE].sum())
            if live == 0:
                transport.send_command(CMD_FINISH)
                break
            if round_index >= limit:
                transport.send_command(CMD_ABORT)
                raise NonConvergenceError(rounds=round_index, pending=live)
            stamp_round()
            transport.send_command(CMD_CONTINUE)
            prev_live = live
            round_index += 1
    except TransportError:
        payloads = transport.drain_errors()
        if payloads:
            raise _rebuild_error(payloads, budget) from None
        dead = [w.exitcode for w in workers if w.exitcode not in (0, None)]
        raise TransportError(
            f"shard worker(s) died mid-run (exit codes {dead})"
            if dead
            else "sharded transport broke mid-run"
        ) from None
    return _collect_outputs(transport, plan, workers, tracer)


def _collect_outputs(transport, plan, workers, tracer):
    """Merge shard outputs in ascending global node order.

    Column-name strings are canonicalised across shards: the single-process
    ``output_dicts`` shares one name object across every per-node dict, and
    ``result_bytes`` pickles with a memo, so equal-but-distinct unpickled
    names per shard would change the byte form without changing any value.
    """
    items: List[Optional[tuple]] = [None] * plan.specs[0].n_global
    names: Dict[str, str] = {}
    deadline = time.monotonic() + transport.timeout
    collected = 0
    while collected < plan.shards:
        if transport.outputs.empty():
            if time.monotonic() > deadline:
                raise TransportError("timed out collecting shard outputs")
            time.sleep(_OUTPUT_POLL_SECONDS)
            continue
        shard_index, shard_outputs, maxrss_kib = transport.outputs.get()
        for global_id, (node, row) in zip(
            plan.specs[shard_index].own.tolist(), shard_outputs.items()
        ):
            items[global_id] = (
                node,
                {names.setdefault(name, name): value for name, value in row.items()},
            )
        if tracer is not None:
            tracer.event(
                "sharded_shard",
                shard=shard_index,
                own_nodes=int(plan.specs[shard_index].own.size),
                maxrss_kib=maxrss_kib,
            )
        collected += 1
    return dict(item for item in items if item is not None)


class ShardedEngine(Engine):
    """The fourth execution tier: partitioned CSR kernels with halo exchange.

    Supports exactly the kerneled algorithms and only fault-free runs --
    anything else raises :class:`EngineCapabilityError` so sweeps surface
    the cell as a structured skip, never a silent fallback.
    """

    name = "sharded"
    universal = False

    def __init__(
        self,
        shards: Optional[int] = None,
        start_method: Optional[str] = None,
        barrier_timeout: Optional[float] = None,
    ):
        self.shards = shards
        self.start_method = start_method
        self.barrier_timeout = barrier_timeout

    def execute(self, network, algorithm, *, budget, limit, strict, hooks=None):
        from repro.congest.kernels.grid import grid_from_network

        return self.run_grid(
            grid_from_network(network), network.config, algorithm,
            budget=budget, limit=limit, strict=strict, seed=network.seed,
            hooks=hooks,
        )

    def run_grid(
        self, grid, config, algorithm, *, budget, limit, strict, seed, hooks=None
    ):
        """Run ``algorithm`` over ``grid`` on this engine's shards.

        The grid entry point shared with ``execute`` and the CSR path of
        :class:`~repro.run.session.Session`; fault hooks raise
        :class:`~repro.congest.errors.EngineCapabilityError`.
        """
        check_capability(
            algorithm, self.name, fault_model=None if hooks is None else "faulted"
        )
        outputs, metrics = run_sharded_program(
            grid, config, algorithm,
            budget=budget, limit=limit, strict=strict,
            seed=seed, shards=self.shards,
            start_method=self.start_method,
            barrier_timeout=self.barrier_timeout,
        )
        metrics.engine_used = self.name
        return outputs, metrics
