"""The ``"kernel"`` execution engine: whole-graph array programs per round.

Where :class:`~repro.congest.engine.BatchedEngine` vectorizes *delivery*
around per-node Python handler calls, :class:`KernelEngine` removes the
node loop entirely for the algorithms it knows: each algorithm's program
(:data:`repro.congest.kernels.KERNELS`) runs every round as a handful of CSR
segment operations under the driver in :mod:`repro.congest.kernels.faults`,
producing the same outputs and the same
:class:`~repro.congest.metrics.RunMetrics`
(``tests/congest/test_kernel_parity.py`` holds it byte-identical to the
reference engine).

Dispatch is by *exact* algorithm type -- a subclass that overrides any
round behavior must register its own program -- and algorithms without one
fall back to the batched engine transparently (fault hooks and all), so
``engine="kernel"`` is always safe to select.  Fault-injection hooks run on
the kernel tier itself: the same driver applies the compiled
:class:`~repro.faults.session.FaultSession` as per-round NumPy masks,
byte-identical to the per-node engines under the same plan.
``RunMetrics.engine_used`` records which tier actually executed, so a
fallback can never masquerade as a kernel run.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.engine import BatchedEngine, Engine

__all__ = ["KernelEngine"]


class KernelEngine(Engine):
    """Node-loop-free NumPy fast path with batched-engine fallback."""

    name = "kernel"

    def __init__(self):
        self._fallback: Optional[BatchedEngine] = None

    def execute(self, network, algorithm, *, budget, limit, strict, hooks=None):
        from repro.congest.kernels import kernel_for

        kernel = kernel_for(algorithm)
        if kernel is None:
            if self._fallback is None:
                self._fallback = BatchedEngine()
            return self._fallback.execute(
                network, algorithm, budget=budget, limit=limit, strict=strict,
                hooks=hooks,
            )
        from repro.congest.kernels.grid import grid_from_network

        grid = grid_from_network(network)
        outputs, metrics = kernel(
            grid, network.config, algorithm,
            budget=budget, limit=limit, strict=strict,
            seed=network.seed, hooks=hooks,
        )
        metrics.engine_used = self.name
        return outputs, metrics
