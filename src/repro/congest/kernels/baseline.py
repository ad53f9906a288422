"""Node-loop-free kernel for the parallel-threshold-greedy LW baseline.

:class:`~repro.baselines.lenzen_wattenhofer.LWDeterministicAlgorithm` -- the
distributed greedy comparison point of benchmark E8 -- alternates coverage
reports with threshold joins.  Both message types are one-bit booleans, so
each round is a pair of exact integer segment reductions: "any neighbor
joined" (segment any) and "uncovered nodes in the closed neighborhood"
(segment sum), with the phase counter and threshold shared by every node.
"""

from __future__ import annotations

import math

import numpy as np

from repro.congest.errors import NonConvergenceError
from repro.congest.kernels.accounting import account_broadcasts
from repro.congest.kernels.csr import segment_any, segment_sum
from repro.congest.kernels.faults import KIND_JOINED, KIND_UNCOVERED, run_program
from repro.congest.kernels.grid import output_dicts
from repro.congest.metrics import RoundMetrics, RunMetrics

__all__ = ["lw_deterministic_kernel"]


class _FaultedLWDeterministic:
    """Round-by-round LW deterministic greedy for the faulted driver.

    Unlike the lockstep closed form, crashed rounds desynchronise the phase
    counters, so ``phase`` is a per-node array and the join threshold is
    ``2.0 ** phase`` (a float once a node's counter goes negative -- exactly
    the per-node handler's ``2 ** phase``).
    """

    def __init__(self, grid, config, algorithm, seed, n_global):
        del algorithm, seed, n_global  # parameter-free
        self.grid = grid
        n = grid.n
        self.phase = np.full(
            n, int(math.ceil(math.log2(config.get("max_degree", 0) + 2))), np.int64
        )
        self.covered = np.zeros(n, dtype=bool)
        self.in_ds = np.zeros(n, dtype=bool)
        self.finished = np.zeros(n, dtype=bool)

    def step(self, round_index, acting, inbox, run):
        if round_index % 2 == 0:
            # Report round: absorb joins, finish exhausted nodes, report.
            if inbox is not None:
                self.covered |= acting & inbox.any_truthy(KIND_JOINED)
            done = acting & (self.phase < 1)
            if done.any():
                join = done & ~self.covered
                self.in_ds |= join
                self.covered |= join
                self.finished |= done
            run.broadcast(
                round_index,
                acting & ~done,
                KIND_UNCOVERED,
                bits=1,
                values=(~self.covered).astype(np.int64),
            )
        else:
            # Join round: span over the closed neighborhood vs 2^phase.
            span = (~self.covered).astype(np.int64)
            if inbox is not None:
                span = span + inbox.count_truthy(KIND_UNCOVERED)
            threshold = np.exp2(self.phase.astype(np.float64))
            joining = acting & ~self.in_ds & (span >= threshold)
            self.phase[acting] -= 1
            self.in_ds |= joining
            self.covered |= joining
            run.broadcast(round_index, joining, KIND_JOINED, bits=1)

    def outputs(self, count=None):
        return output_dicts(
            self.grid.node_order, {"in_ds": self.in_ds.tolist()}, count
        )


def lw_deterministic_kernel(grid, config, algorithm, *, budget, limit, strict, seed=None, hooks=None):
    """Execute the LW-style deterministic greedy; see module docstring."""
    if hooks is not None:
        return run_program(
            grid,
            hooks,
            _FaultedLWDeterministic(grid, config, algorithm, seed, grid.n),
            budget=budget,
            limit=limit,
            strict=strict,
        )
    metrics = RunMetrics(bandwidth_budget_bits=budget)
    n = grid.n
    if n == 0:
        return {}, metrics
    indptr, indices = grid.indptr, grid.indices
    # Identical to the per-node setup: the phase counter starts at
    # ceil(log2(Delta + 2)) and every node counts down in lockstep.
    phase = int(math.ceil(math.log2(config.get("max_degree", 0) + 2)))
    covered = np.zeros(n, dtype=bool)
    in_ds = np.zeros(n, dtype=bool)
    joined_previous = np.zeros(n, dtype=bool)

    round_index = 0
    while True:
        # Report round (even): absorb joins, then either finish (phase
        # exhausted: uncovered nodes join themselves) or report coverage.
        if round_index >= limit:
            raise NonConvergenceError(rounds=round_index, pending=n)
        round_metrics = RoundMetrics(round_index=round_index, active_nodes=n)
        if joined_previous.any():
            covered[segment_any(indptr, joined_previous[indices])] = True
        if phase < 1:
            in_ds |= ~covered
            metrics.record(round_metrics)
            break
        account_broadcasts(
            round_metrics, grid, None, 1,
            budget=budget, strict=strict, round_index=round_index,
        )
        metrics.record(round_metrics)
        round_index += 1

        # Join round (odd): span over the closed neighborhood vs 2^phase.
        if round_index >= limit:
            raise NonConvergenceError(rounds=round_index, pending=n)
        round_metrics = RoundMetrics(round_index=round_index, active_nodes=n)
        uncovered = ~covered
        span = uncovered.astype(np.int64) + segment_sum(
            indptr, uncovered[indices].astype(np.int64)
        )
        threshold = 1 << phase
        phase -= 1
        joining = (~in_ds) & (span >= threshold)
        in_ds |= joining
        covered |= joining
        account_broadcasts(
            round_metrics, grid, joining, 1,
            budget=budget, strict=strict, round_index=round_index,
        )
        metrics.record(round_metrics)
        joined_previous = joining
        round_index += 1

    outputs = output_dicts(grid.node_order, {"in_ds": in_ds.tolist()})
    return outputs, metrics
