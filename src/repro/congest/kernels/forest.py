"""Node-loop-free kernel for :class:`~repro.core.trees.ForestMDSAlgorithm`.

The forest algorithm's whole two-round schedule collapses into array
programs: round 0 is one degree-payload broadcast (isolated nodes finish
immediately), round 1 classifies every node from the degree vector -- the
only per-node data a node ever receives -- with the two-node-component
tie-break replayed through the grid's ``repr`` arrays.

Under a fault plan the closed form no longer holds (a crashed or silenced
neighbor changes what a leaf hears), so ``hooks`` routes execution through
the vectorized driver in :mod:`repro.congest.kernels.faults` with
:class:`_FaultedForest` supplying the per-round transition.
"""

from __future__ import annotations

import numpy as np

from repro.congest.errors import NonConvergenceError
from repro.congest.kernels.accounting import account_broadcasts
from repro.congest.kernels.csr import int_bit_lengths
from repro.congest.kernels.faults import KIND_DEGREE, run_program
from repro.congest.kernels.grid import output_dicts
from repro.congest.metrics import RoundMetrics, RunMetrics

__all__ = ["forest_kernel"]


class _FaultedForest:
    """Round-by-round forest program for the faulted driver."""

    def __init__(self, grid, config, algorithm, seed, n_global):
        del config, algorithm, seed, n_global  # parameter-free
        self.grid = grid
        n = grid.n
        self.in_ds = np.zeros(n, dtype=bool)
        self.finished = np.zeros(n, dtype=bool)

    def step(self, round_index, acting, inbox, run):
        grid = self.grid
        degrees = grid.degrees
        if round_index == 0:
            isolated = acting & (degrees == 0)
            self.in_ds |= isolated
            self.finished |= isolated
            run.broadcast(
                0,
                acting,
                KIND_DEGREE,
                bits=int_bit_lengths(degrees) + 1,
                values=degrees.astype(np.int64, copy=False),
            )
            return
        # Any later round: internal nodes join; leaves decide from the one
        # degree report they may have received (a silent neighbor means the
        # conservative self-join); isolated nodes that missed round 0 finish
        # without joining, exactly like the per-node handler's fall-through.
        self.in_ds |= acting & (degrees >= 2)
        leaves = acting & (degrees == 1)
        if leaves.any() and inbox is not None:
            mask = inbox.kind == KIND_DEGREE
            receivers = inbox.recv[mask]
            heard = np.zeros(grid.n, dtype=bool)
            heard[receivers] = True
            neighbor_degree = np.zeros(grid.n, dtype=np.int64)
            neighbor_degree[receivers] = inbox.ival[mask]
            sender = np.zeros(grid.n, dtype=np.int64)
            sender[receivers] = inbox.send[mask]
            self.in_ds |= leaves & ~heard
            endpoints = np.flatnonzero(leaves & heard & (neighbor_degree == 1))
            if endpoints.size:
                reprs = grid.reprs
                self.in_ds[endpoints] = (
                    reprs[endpoints] < reprs[sender[endpoints]]
                )
        elif leaves.any():
            self.in_ds |= leaves
        self.finished |= acting

    def outputs(self, count=None):
        return output_dicts(
            self.grid.node_order, {"in_ds": self.in_ds.tolist()}, count
        )


def forest_kernel(grid, config, algorithm, *, budget, limit, strict, seed=None, hooks=None):
    """Execute the Observation A.1 forest algorithm; see module docstring."""
    if hooks is not None:
        program = _FaultedForest(grid, config, algorithm, seed, grid.n)
        return run_program(
            grid, hooks, program, budget=budget, limit=limit, strict=strict
        )
    metrics = RunMetrics(bandwidth_budget_bits=budget)
    n = grid.n
    if n == 0:
        return {}, metrics
    degrees = grid.degrees
    in_ds = np.zeros(n, dtype=bool)

    # Round 0: isolated nodes dominate themselves and finish; everyone else
    # broadcasts its degree ({"degree": d} -> d.bit_length() + 1 bits).
    if 0 >= limit:
        raise NonConvergenceError(rounds=0, pending=n)
    round_metrics = RoundMetrics(round_index=0, active_nodes=n)
    in_ds |= degrees == 0
    account_broadcasts(
        round_metrics,
        grid,
        None,
        int_bit_lengths(degrees) + 1,
        budget=budget,
        strict=strict,
        round_index=0,
    )
    metrics.record(round_metrics)

    # Round 1: every non-isolated node decides from its neighbors' degrees.
    pending = int((degrees > 0).sum())
    if pending:
        if 1 >= limit:
            raise NonConvergenceError(rounds=1, pending=pending)
        round_metrics = RoundMetrics(round_index=1, active_nodes=pending)
        in_ds |= degrees >= 2
        leaves = np.flatnonzero(degrees == 1)
        if leaves.size:
            partner = grid.indices[grid.indptr[leaves]]
            # A leaf whose neighbor is internal stays out; in a two-node
            # component the endpoint with the smaller repr joins.
            two_node = degrees[partner] == 1
            endpoints = leaves[two_node]
            if endpoints.size:
                reprs = grid.reprs
                in_ds[endpoints] = reprs[endpoints] < reprs[partner[two_node]]
        metrics.record(round_metrics)

    outputs = output_dicts(grid.node_order, {"in_ds": in_ds.tolist()})
    return outputs, metrics
