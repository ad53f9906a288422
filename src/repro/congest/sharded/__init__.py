"""The sharded multi-process execution tier (``engine="sharded"``).

Hash-partitions a :class:`~repro.congest.kernels.grid.KernelGrid` across N
worker processes; each worker executes the kernel tier's programs on its
local shard, with a boundary halo exchange between rounds
over ``multiprocessing.shared_memory`` lanes.  Results are byte-identical
to the single-process kernel engine and independent of the shard count --
see :mod:`repro.congest.sharded.engine` for the discipline that makes both
hold.

Modules
-------

``partition``
    splitmix64 node ownership, per-shard local CSR construction, and the
    precomputed boundary node/edge lane tables.
``shmem``
    The shared-memory transport: control block, double-buffered message
    lanes, barriers, and the :class:`~repro.congest.sharded.shmem.ShardTransport`
    seam an mpi4py backend could implement instead.
``halo``
    :class:`~repro.congest.sharded.halo.ShardedRun` -- the per-worker
    emission/assembly runtime the kernel programs talk to (the sharded
    counterpart of :class:`~repro.congest.kernels.faults.FaultedRun`).
``worker``
    The worker process entry point.
``engine``
    The coordinator loop, :class:`~repro.congest.sharded.engine.ShardedEngine`,
    and the sharded-tier telemetry registry.
"""

from repro.congest.sharded.engine import (
    ShardedEngine,
    run_sharded_program,
    sharded_metrics,
)
from repro.congest.sharded.partition import ShardPlan, ShardSpec, build_partition, shard_owner

__all__ = [
    "ShardedEngine",
    "ShardPlan",
    "ShardSpec",
    "build_partition",
    "run_sharded_program",
    "shard_owner",
    "sharded_metrics",
]
