"""Kernel programs for the nomination and unknown-parameters solvers.

:class:`~repro.baselines.lenzen_wattenhofer.LWRandomizedAlgorithm` consults
per-node RNG streams, and :class:`~repro.core.unknown_params.\
UnknownDegreeMDSAlgorithm` (Remark 4.4) interleaves its partial and
extension phases with data-dependent finishing.  Both are still
node-loop-free per round, and run under the
:mod:`repro.congest.kernels.faults` driver like every other program.

The only per-node Python left is the randomized baseline's coin flips: the
reference engine draws from ``random.Random(f"{seed}:{node_id!r}")`` streams
whose consumption order is data-dependent, so the program replays exactly
those draws (typically a handful of nodes per phase) and vectorizes
everything else.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.congest.kernels.csr import int_bit_lengths, segment_min, segment_min_argrank, segment_sum
from repro.congest.kernels.faults import (
    KIND_DOMINATED,
    KIND_JOINED,
    KIND_NOMINATE,
    KIND_SPAN,
    KIND_UNCOVERED,
    KIND_WEIGHT_CD,
    KIND_X,
    KIND_X_SELECTED,
)
from repro.congest.kernels.grid import output_dicts
from repro.congest.message import word_size_bits
from repro.core.partial import theorem11_lambda

__all__ = ["LWRandomizedProgram", "UnknownDegreeProgram"]


class LWRandomizedProgram:
    """Four-round nomination phases of the LW randomized baseline."""

    @staticmethod
    def validate(grid, config, algorithm, seed):
        del grid, config, algorithm
        if seed is None:
            raise ValueError(
                "the lw-randomized kernel needs the network seed to replay the "
                "per-node RNG streams"
            )

    def __init__(self, grid, config, algorithm, seed, n_global):
        del n_global  # the phase count reads the global n from config
        self.validate(grid, config, algorithm, seed)
        self.grid = grid
        self.seed = seed
        n = grid.n
        self.phases_left = np.full(
            n, int(math.ceil(math.log2(max(2, config["n"])))) + 2, np.int64
        )
        self.in_ds = np.zeros(n, dtype=bool)
        self.covered = np.zeros(n, dtype=bool)
        self.finished = np.zeros(n, dtype=bool)
        self.span = np.zeros(n, dtype=np.int64)
        self.pending_self = np.zeros(n, dtype=bool)
        self._rngs: dict = {}

    def _draw(self, index):
        """One coin flip from the node's private reference RNG stream."""
        rng = self._rngs.get(index)
        if rng is None:
            rng = random.Random(f"{self.seed}:{self.grid.node_order[index]!r}")
            self._rngs[index] = rng
        return rng.random()

    def step(self, round_index, acting, inbox, run):
        grid = self.grid
        n = grid.n
        step = round_index % 4
        if step == 0:
            # Absorb joins, finish exhausted phases, report coverage.
            if inbox is not None:
                self.covered |= inbox.any_truthy(KIND_JOINED)
            done = acting & (self.phases_left <= 0)
            if done.any():
                join = done & ~self.covered
                self.in_ds |= join
                self.covered |= join
                self.finished |= done
            reporting = acting & ~done
            self.phases_left[reporting] -= 1
            run.broadcast(
                round_index,
                reporting,
                KIND_UNCOVERED,
                bits=1,
                values=(~self.covered).astype(np.int64),
            )
        elif step == 1:
            span = (~self.covered).astype(np.int64)
            if inbox is not None:
                span = span + inbox.count_truthy(KIND_UNCOVERED)
            self.span[acting] = span[acting]
            run.broadcast(
                round_index,
                acting,
                KIND_SPAN,
                bits=np.maximum(1, int_bit_lengths(self.span) + 1),
                values=self.span,
            )
        elif step == 2:
            # Every inbox entry is a candidate (foreign payloads count as
            # span 0, like the reference's message.get("span", 0)); the max
            # key prefers larger span, then larger repr.
            rank = grid.repr_rank
            best = self.span * n + rank
            if inbox is not None:
                entry_span = np.where(inbox.kind == KIND_SPAN, inbox.ival, 0)
                np.maximum.at(best, inbox.recv, entry_span * n + rank[inbox.send])
            deciders = acting & ~self.covered
            if deciders.any():
                nominee = grid.node_by_rank[best % n]
                self_nominated = deciders & (nominee == np.arange(n))
                self.pending_self |= self_nominated
                senders = np.flatnonzero(deciders & ~self_nominated)
                if senders.size:
                    run.unicast(
                        round_index, senders, nominee[senders], KIND_NOMINATE, bits=1
                    )
        else:
            nominated = self.pending_self.copy()
            if inbox is not None:
                nominated |= inbox.any_truthy(KIND_NOMINATE)
            self.pending_self &= ~acting
            joiners = np.zeros(n, dtype=bool)
            for index in np.flatnonzero(acting & nominated & ~self.in_ds):
                if self._draw(int(index)) < 0.5:
                    joiners[index] = True
            self.in_ds |= joiners
            self.covered |= joiners
            run.broadcast(round_index, joiners, KIND_JOINED, bits=1)

    def outputs(self, count=None):
        return output_dicts(self.grid.node_order, {"in_ds": self.in_ds}, count)


class UnknownDegreeProgram:
    """Remark 4.4 (unknown ``Delta``) as a kernel program.

    The A/B/C iteration rounds become masked array updates; the per-edge
    ``neighbor_dominated`` latch and the received-weight table live as
    boolean arrays over the CSR edge list.
    """

    def __init__(self, grid, config, algorithm, seed, n_global):
        del seed  # deterministic algorithm
        self.grid = grid
        self.config = config
        self.epsilon = algorithm.epsilon
        n = grid.n
        edge_count = len(grid.indices)
        self.weights = grid.weights
        closed_degree = grid.degrees + 1
        self.setup_bits = (
            np.maximum(1, int_bit_lengths(self.weights) + 1)
            + np.maximum(1, int_bit_lengths(closed_degree) + 1)
        )
        # Global node count, like the primal-dual program's message width.
        self.float_bits = 2 * word_size_bits(max(2, n_global))
        self.one_plus_eps = 1.0 + self.epsilon
        self.join_threshold = self.weights / self.one_plus_eps
        self.x = np.zeros(n, dtype=np.float64)
        self.tau = np.zeros(n, dtype=np.int64)
        self.has_tau = np.zeros(n, dtype=bool)
        self.lam = np.zeros(n, dtype=np.float64)
        self.has_lam = np.zeros(n, dtype=bool)
        self.in_s = np.zeros(n, dtype=bool)
        self.in_s_prime = np.zeros(n, dtype=bool)
        self.dominated = np.zeros(n, dtype=bool)
        self.announce = np.zeros(n, dtype=bool)
        self.got_weight = np.zeros(edge_count, dtype=bool)
        self.neighbor_dominated = np.zeros(edge_count, dtype=bool)
        self.increase_count = np.zeros(n, dtype=np.int64)
        self.iterations = np.zeros(n, dtype=np.int64)
        self.finished = np.zeros(n, dtype=bool)

    def _setup_round_one(self, acting, inbox, run):
        grid = self.grid
        n = grid.n
        alpha = self.config.get("alpha")
        if alpha is None:
            raise ValueError("Remark 4.4 still assumes alpha is global knowledge")
        candidate_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        max_closed = (grid.degrees + 1).astype(np.int64)
        if inbox is not None:
            mask = inbox.kind == KIND_WEIGHT_CD
            receivers = inbox.recv[mask]
            if receivers.size:
                edges = run.edge_positions(receivers, inbox.send[mask])
                self.got_weight[edges] = True
                np.minimum.at(candidate_min, receivers, inbox.ival[mask])
                np.maximum.at(
                    max_closed, receivers, inbox.fval[mask].astype(np.int64)
                )
        tau_new = np.minimum(self.weights, candidate_min)
        self.tau[acting] = tau_new[acting]
        self.has_tau |= acting
        self.lam[acting] = theorem11_lambda(alpha, self.epsilon)
        self.has_lam |= acting
        x_new = tau_new / max_closed
        self.x[acting] = x_new[acting]

    def _cheapest_dominator(self, candidates):
        """Per-node cheapest received-weight neighbor (self on ties/empty)."""
        grid = self.grid
        sentinel = np.iinfo(np.int64).max
        received = np.where(self.got_weight, self.weights[grid.indices], sentinel)
        neighbor_min = segment_min(grid.indptr, received, empty=sentinel)
        remote = candidates & (neighbor_min < self.weights)
        targets = np.empty(0, dtype=np.int64)
        senders = np.flatnonzero(remote)
        if senders.size:
            min_rank = segment_min_argrank(
                grid.indptr, received, grid.repr_rank[grid.indices], neighbor_min
            )
            targets = grid.node_by_rank[min_rank[remote]]
        return remote, senders, targets

    def _round_a(self, round_index, acting, inbox, run):
        grid = self.grid
        if inbox is not None:
            mask = (inbox.kind == KIND_DOMINATED) & (inbox.ival != 0)
            if mask.any():
                edges = run.edge_positions(inbox.recv[mask], inbox.send[mask])
                self.neighbor_dominated[edges] = True
        all_neighbors_dominated = (
            segment_sum(grid.indptr, self.neighbor_dominated.astype(np.int64))
            == grid.degrees
        )
        done = acting & self.dominated & all_neighbors_dominated
        self.finished |= done
        live = acting & ~done
        if not live.any():
            return
        # Fallback setup for nodes that slept through the setup rounds.
        need_tau = live & ~self.has_tau
        self.tau[need_tau] = self.weights[need_tau]
        self.has_tau |= need_tau
        need_lam = live & ~self.has_lam
        if need_lam.any():
            self.lam[need_lam] = theorem11_lambda(
                max(1, self.config.get("alpha") or 1), self.epsilon
            )
            self.has_lam |= need_lam
        self.iterations += live
        over = live & ~self.dominated & (self.x > self.lam * self.tau)
        remote, senders, targets = self._cheapest_dominator(over)
        joins_self = over & ~remote
        self.in_s_prime |= joins_self
        self.dominated |= joins_self
        self.announce |= joins_self
        run.unicast_neighborhood(
            round_index,
            live,
            self.x,
            KIND_X,
            senders,
            targets,
            KIND_X_SELECTED,
            bits=self.float_bits,
            sel_bits=self.float_bits + 1,
        )

    def _round_b(self, round_index, acting, inbox, run):
        load = (
            inbox.ordered_float_sum((KIND_X, KIND_X_SELECTED), self.x)
            if inbox is not None
            else self.x.copy()
        )
        if inbox is not None:
            selected = inbox.any_truthy(KIND_X_SELECTED)
            extension_join = acting & selected & ~self.in_s_prime
            self.in_s_prime |= extension_join
            self.dominated |= extension_join
            self.announce |= extension_join
        partial_join = acting & ~self.in_s & (load >= self.join_threshold)
        self.in_s |= partial_join
        self.dominated |= partial_join
        self.announce |= partial_join
        announcing = acting & self.announce
        self.announce &= ~acting
        run.broadcast(round_index, announcing, KIND_JOINED, bits=1)

    def _round_c(self, round_index, acting, inbox, run):
        if inbox is not None:
            self.dominated |= inbox.any_truthy(KIND_JOINED)
        undominated = acting & ~self.dominated
        self.x *= 1.0 + (self.one_plus_eps - 1.0) * undominated
        self.increase_count += undominated
        run.broadcast(
            round_index,
            acting,
            KIND_DOMINATED,
            bits=1,
            values=self.dominated.astype(np.int64),
        )

    def step(self, round_index, acting, inbox, run):
        if round_index == 0:
            run.broadcast(
                0,
                acting,
                KIND_WEIGHT_CD,
                bits=self.setup_bits,
                values=self.weights,
                fvalues=(self.grid.degrees + 1).astype(np.float64),
            )
            return
        if round_index == 1:
            if acting.any():
                self._setup_round_one(acting, inbox, run)
            return
        offset = (round_index - 2) % 3
        if offset == 0:
            self._round_a(round_index, acting, inbox, run)
        elif offset == 1:
            self._round_b(round_index, acting, inbox, run)
        else:
            self._round_c(round_index, acting, inbox, run)

    def outputs(self, count=None):
        n = self.grid.n if count is None else count
        return output_dicts(
            self.grid.node_order,
            {
                "in_ds": self.in_s[:n] | self.in_s_prime[:n],
                "in_partial": self.in_s,
                "in_extension": self.in_s_prime,
                "x_partial": self.x,
                "x": self.x,
                "tau": (self.tau, self.has_tau),
                "iterations": self.iterations,
                "alpha_estimate": None,
                "fallback_join": False,
            },
            count,
        )
