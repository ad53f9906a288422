"""The kernel program for :class:`~repro.core.trees.ForestMDSAlgorithm`.

The forest algorithm's schedule is two rounds:

=====  ==================================================================
round  program operation
=====  ==================================================================
0      isolated nodes join and finish; everyone else broadcasts its degree
       (``d.bit_length() + 1`` bits)
1      internal nodes join; a leaf joins if it heard nothing, or if its
       neighbor is a leaf too and its own ``repr`` is the smaller one (the
       two-node-component tie-break, replayed through the grid's ``repr``
       arrays); everyone finishes
=====  ==================================================================
"""

from __future__ import annotations

import numpy as np

from repro.congest.kernels.csr import int_bit_lengths
from repro.congest.kernels.faults import KIND_DEGREE
from repro.congest.kernels.grid import output_dicts

__all__ = ["ForestProgram"]


class ForestProgram:
    """Round-by-round Observation A.1 forest algorithm."""

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
        return output_dicts(self.grid.node_order, {"in_ds": self.in_ds}, count)
