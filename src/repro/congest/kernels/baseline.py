"""The kernel program for the parallel-threshold-greedy LW baseline.

:class:`~repro.baselines.lenzen_wattenhofer.LWDeterministicAlgorithm` -- the
distributed greedy comparison point of benchmark E8 -- alternates coverage
reports with threshold joins.  Both message types are one-bit booleans:

===========  ==============================================================
round        program operation
===========  ==============================================================
2i (report)  absorb joins (segment any); nodes whose phase is exhausted
             join if uncovered and finish; the rest broadcast "uncovered"
2i+1 (join)  span = uncovered nodes in the closed neighborhood (segment
             count); join if ``span >= 2 ** phase``; the phase counts down
===========  ==============================================================
"""

from __future__ import annotations

import math

import numpy as np

from repro.congest.kernels.faults import KIND_JOINED, KIND_UNCOVERED
from repro.congest.kernels.grid import output_dicts

__all__ = ["LWDeterministicProgram"]


class LWDeterministicProgram:
    """Round-by-round LW deterministic greedy.

    Crashed rounds desynchronise the phase counters, so ``phase`` is a
    per-node array and the join threshold is ``2.0 ** phase`` (a float once
    a node's counter goes negative -- exactly the per-node handler's
    ``2 ** phase``).
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
        return output_dicts(self.grid.node_order, {"in_ds": self.in_ds}, count)
