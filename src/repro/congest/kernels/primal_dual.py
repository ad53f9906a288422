"""The kernel program for the Theorem 1.1 / 3.1 primal-dual algorithms.

This executes :class:`~repro.core.weighted.WeightedMDSAlgorithm` (and its
unit-weight wrapper :class:`~repro.core.unweighted.UnweightedMDSAlgorithm`)
as whole-graph array programs over the CSR layout, replaying the
:class:`~repro.core.partial.PrimalDualBase` round schedule exactly:

==============================  ============================================
round                           program operation
==============================  ============================================
0                               weight broadcast (per-node integer bits)
1 (when ``r > 0``)              ``tau`` = min over the received weights
                                (segment min, kept), ``x = tau/(Delta+1)``,
                                x-broadcast, seeded load bounds
2i (decide)                     ``X_v`` = order-exact closed-neighborhood
                                sum of ``x`` over the rows that can still
                                join; joiners announce (1 bit)
2i+1 (increase)                 absorb joins (sender rows), ``x *= 1+eps``
                                on the undominated, x-broadcast
2r+1 (finalize)                 last absorb+increase; undominated nodes
                                pick the cheapest received closed-
                                neighborhood member (round 1's minima +
                                repr-rank argmin) and unicast "selected"
2r+2 (extension)                selected nodes join; everyone finishes
==============================  ============================================

Byte-identity with the reference engine is the contract, not an
aspiration: the decide rounds accumulate floating point packing values, so
``X_v`` is the inbox's ``ordered_float_sum`` -- the exact left-to-right
inbox fold, :func:`~repro.congest.kernels.csr.ordered_row_sum` over the
summed rows -- rather than any reduction that could round differently.
Most rows need no sum at all: a certified per-node upper bound on ``X_v``
(see :meth:`PrimalDualProgram._due_rows`) shows that they cannot reach
their join threshold this round, so only the remaining candidates are
summed; a fault-free run's first bound needs no sum.  The setup-time
validation errors (unit weights, unknown ``Delta``, unresolvable
``lambda``) are raised in the same precedence order as the per-node
``setup`` loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from repro.congest.kernels.csr import int_bit_lengths, segment_min, segment_min_argrank
from repro.congest.kernels.csr import slice_positions
from repro.congest.kernels.faults import KIND_JOINED_S, KIND_SELECTED, KIND_WEIGHT, KIND_X
from repro.congest.kernels.faults import NeighborhoodInbox
from repro.congest.kernels.grid import output_dicts
from repro.congest.message import word_size_bits
from repro.core.partial import partial_iteration_count

__all__ = ["PrimalDualProgram"]

#: Stand-in for "no weight received" in the per-edge weight table.
_NO_WEIGHT = np.iinfo(np.int64).max
_UNIT_WEIGHT_MESSAGE = (
    "UnweightedMDSAlgorithm requires unit weights; "
    "use WeightedMDSAlgorithm for weighted instances"
)
_UNKNOWN_DELTA_MESSAGE = (
    "this algorithm assumes Delta is global knowledge; use the "
    "UnknownDegree variant (Remark 4.4) otherwise"
)
_TINY = np.finfo(np.float64).tiny  # the smallest positive normal float64


def _growth_factor(c, k):
    """The least float ``>= c (1+u) (1+g) / ((1-g) (1-u))``, ``u = 2**-53``,
    ``g = k u / (1 - k u)``: computed exactly, then rounded up."""
    u = Fraction(1, 2 ** 53)
    gamma = k * u / (1 - k * u)
    needed = Fraction(c) * (1 + u) * (1 + gamma) / ((1 - gamma) * (1 - u))
    rho = float(needed)
    return rho if Fraction(rho) >= needed else math.nextafter(rho, math.inf)


def _validated_schedule(grid, config, algorithm):
    """Shared setup validation; returns ``(max_degree, finalize_round)``.

    Raises in the reference per-node loop's precedence: node 0's weight
    check, node 0's Delta/lambda resolution, then the remaining nodes'
    weight checks.
    """
    from repro.core.unweighted import UnweightedMDSAlgorithm

    weights = grid.weights
    unweighted = isinstance(algorithm, UnweightedMDSAlgorithm)
    if unweighted and grid.n and weights[0] != 1:
        raise ValueError(_UNIT_WEIGHT_MESSAGE)
    max_degree = config.get("max_degree")
    if max_degree is None:
        raise ValueError(_UNKNOWN_DELTA_MESSAGE)
    # resolve_lambda only reads node.config, which is network-global.
    lambda_value = algorithm.resolve_lambda(SimpleNamespace(config=config))
    if unweighted and (weights != 1).any():
        raise ValueError(_UNIT_WEIGHT_MESSAGE)
    iterations = (
        0
        if algorithm.skip_partial
        else partial_iteration_count(max_degree, algorithm.epsilon, lambda_value)
    )
    finalize_round = 1 if iterations == 0 else 2 * iterations + 1
    return max_degree, finalize_round


class PrimalDualProgram:
    """Round-by-round Weighted/Unweighted MDS.

    ``tau``, the packing values and the received-weight table behind the
    cheapest-dominator pick are explicit per-node/per-edge arrays, because a
    crashed or silenced neighbor changes what each node actually received.
    """

    @staticmethod
    def validate(grid, config, algorithm, seed):
        del seed  # deterministic algorithm
        if grid.n:
            _validated_schedule(grid, config, algorithm)

    def __init__(self, grid, config, algorithm, seed, n_global):
        del seed  # deterministic algorithm
        self.grid = grid
        n = grid.n
        if n:
            self.max_degree, self.finalize_round = _validated_schedule(
                grid, config, algorithm
            )
        else:
            self.max_degree, self.finalize_round = 0, 1
        self.weights = grid.weights
        self.weight_bits = np.maximum(1, int_bit_lengths(self.weights) + 1)
        # The message width follows the whole graph's node count, also on a
        # shard-local grid.
        self.float_bits = 2 * word_size_bits(max(2, n_global))
        self.one_plus_eps = 1.0 + algorithm.epsilon
        self.join_threshold = self.weights / self.one_plus_eps
        self.x = np.zeros(n, dtype=np.float64)
        self.x_partial = np.zeros(n, dtype=np.float64)
        self.tau = np.zeros(n, dtype=np.int64)
        self.has_tau = np.zeros(n, dtype=bool)
        self.in_s = np.zeros(n, dtype=bool)
        self.in_s_prime = np.zeros(n, dtype=bool)
        self.dominated = np.zeros(n, dtype=bool)
        self.dominated_at_partial = np.zeros(n, dtype=bool)
        self.increase_count = np.zeros(n, dtype=np.int64)
        # Per directed edge v->u: did v receive u's round-0 weight report?
        self.got_weight = np.zeros(len(grid.indices), dtype=bool)
        self.finished = np.zeros(n, dtype=bool)
        # ``_due_rows``'s load bounds (None: none held) need every x to be 0
        # or normal: positive weights and a normal 1/(Delta+1) ensure it.
        self.bounded = n > 0 and self.max_degree < 2 ** 1021 and (self.weights > 0).all()
        closed_max = int(grid.degrees.max(initial=0)) + 1
        self.rho = _growth_factor(self.one_plus_eps, closed_max)
        self.seed_factor = _growth_factor(1, closed_max)
        self.load_bound = None
        self.neighbor_min = None  # set by _initialise

    def _received_weights(self, positions=slice(None)):
        """Per edge ``v -> u`` at ``positions`` (default: every edge): ``w_u``
        if ``v`` received it, else a sentinel."""
        received = self.weights[self.grid.indices[positions]]
        received[~self.got_weight[positions]] = _NO_WEIGHT
        return received

    def _initialise(self, acting, inbox, run):
        if inbox is not None:
            self.got_weight |= inbox.received_edges(KIND_WEIGHT, run)
        self.neighbor_min = segment_min(self.grid.indptr, self._received_weights(), _NO_WEIGHT)
        tau_new = np.minimum(self.weights, self.neighbor_min)
        self.tau[acting] = tau_new[acting]
        self.has_tau |= acting
        x_new = tau_new / float(self.max_degree + 1)
        self.x[acting] = x_new[acting]
        self.x_partial[acting] = x_new[acting]
        if self.bounded and acting.all() and self.got_weight.all():
            # Every x in N[v] is at most fl(w_v/(Delta+1)): see _due_rows.
            q = self.weights / float(self.max_degree + 1)
            self.load_bound = (self.grid.degrees + 1.0) * q * self.seed_factor

    def _absorb_and_increase(self, acting, inbox):
        if inbox is not None:
            self.dominated |= inbox.any_truthy(KIND_JOINED_S)
        undominated = acting & ~self.dominated
        self.x *= 1.0 + (self.one_plus_eps - 1.0) * undominated
        self.increase_count += undominated

    def _due_rows(self, candidates, inbox):
        """The ``candidates`` whose load may reach ``w_v/(1+eps)`` this round.

        ``load_bound`` holds ``B_v``: the seed below, or a summed row's
        exact load ``L_v``, times ``rho`` per decide round since (NaN for a
        row that was no candidate last round).  A row is due when ``B_v``
        reaches its threshold or is zero, subnormal or not finite.

        Proof that a skipped row would not join.  Let ``S_v`` be the exact
        sum of its ``<= K`` nonnegative terms (``K`` the largest closed
        neighborhood), ``u = 2**-53`` and ``g = K u / (1 - K u)``: a left to
        right float64 sum has ``|L_v - S_v| <= g S_v``.  The seed: if every
        node initialised from every neighbor's weight, each ``tau_u`` in
        ``N[v]`` is at most ``w_v``, so by monotone rounding each term is at
        most the normal ``q_v = fl(w_v/(Delta+1))``, and with
        ``f = _growth_factor(1, K) >= (1+g)/(1-u)**2`` (as ``g >= u**2``)
        ``B_v = fl(fl((d_v+1) q_v) f) >= (1+g) (d_v+1) q_v >= (1+g) S_v``.
        Between two decide rounds each ``x`` is multiplied at most once by
        ``c = 1+eps`` and rounded, and is 0 or normal (positive weights,
        normal ``tau/(Delta+1)``), so ``x' <= c (1+u) x``; both inboxes hold
        every neighbor's current ``x``, so ``S'_v <= c (1+u) S_v``.  If
        ``S_v <= B_v/(1-g)`` (true for ``B_v = L_v`` and for the seed), a
        normal ``B'_v = fl(rho B_v) >= (1-u) rho B_v >= (1+g) S'_v`` by the
        choice of ``rho``.  That carries the hypothesis and gives
        ``L'_v <= (1+g) S'_v <= B'_v``, below the threshold if ``B'_v`` is.
        An overflowing sum or bound is infinite, hence due.

        Bounds are held only while the weights are positive and the inbox is
        a fault-free x-broadcast delivered whole from every node with a
        neighbor; any other round drops them and makes every candidate due.
        """
        grid = self.grid
        if not (
            self.bounded
            and isinstance(inbox, NeighborhoodInbox)
            and inbox.batch.kind == KIND_X
            and np.array_equal(inbox.batch.sent, grid.degrees > 0)
        ):
            self.load_bound = None
            return candidates
        if self.load_bound is None:
            self.load_bound = np.full(grid.n, np.nan)
        bound = self.load_bound
        return candidates & ~((bound >= _TINY) & (bound < self.join_threshold))

    def _decide(self, round_index, acting, inbox, run):
        """Decide round (P2): candidates whose load reaches the threshold join."""
        candidates = acting & ~self.in_s
        due = self._due_rows(candidates, inbox)
        load = self.x if inbox is None else inbox.ordered_float_sum((KIND_X,), self.x, due)
        joining = due & (load >= self.join_threshold)
        if self.load_bound is not None:
            np.copyto(self.load_bound, load, where=due)
            np.copyto(self.load_bound, np.nan, where=~candidates)
            with np.errstate(over="ignore"):
                self.load_bound *= self.rho
        self.in_s |= joining
        self.dominated |= joining
        run.broadcast(round_index, joining, KIND_JOINED_S, bits=1)

    def _finalize(self, round_index, acting, run):
        grid = self.grid
        undominated = acting & ~self.dominated
        if not undominated.any():
            return
        remote = undominated & (self.neighbor_min < self.weights)
        joins_self = undominated & ~remote
        self.in_s_prime |= joins_self
        self.dominated |= joins_self
        senders = np.flatnonzero(remote)
        if senders.size:
            positions = slice_positions(grid.indptr[senders], grid.degrees[senders])
            min_rank = segment_min_argrank(
                grid.indptr, self._received_weights(positions),
                grid.repr_rank[grid.indices[positions]], self.neighbor_min, rows=senders,
            )
            targets = grid.node_by_rank[min_rank]
            run.unicast(round_index, senders, targets, KIND_SELECTED, bits=1)

    def step(self, round_index, acting, inbox, run):
        finalize = self.finalize_round
        if round_index == 0:
            run.broadcast(
                0, acting, KIND_WEIGHT, bits=self.weight_bits, values=self.weights
            )
            return
        if round_index == 1 and finalize != 1:
            self._initialise(acting, inbox, run)
            run.broadcast(1, acting, KIND_X, bits=self.float_bits, fvalues=self.x)
            return
        if round_index < finalize:
            if round_index % 2 == 0:
                self._decide(round_index, acting, inbox, run)
            else:
                self._absorb_and_increase(acting, inbox)
                run.broadcast(
                    round_index, acting, KIND_X, bits=self.float_bits, fvalues=self.x
                )
            return
        if round_index == finalize:
            if finalize == 1:
                self._initialise(acting, inbox, run)
            else:
                self._absorb_and_increase(acting, inbox)
            self.x_partial[acting] = self.x[acting]
            self.dominated_at_partial[acting] = self.dominated[acting]
            self._finalize(round_index, acting, run)
            return
        # Extension round: selected nodes join; acting nodes finish.
        if inbox is not None:
            selected = inbox.any_truthy(KIND_SELECTED)
            self.in_s_prime |= selected
            self.dominated |= selected
        self.finished |= acting

    def outputs(self, count=None):
        n = self.grid.n if count is None else count
        return output_dicts(
            self.grid.node_order,
            {
                "in_ds": self.in_s[:n] | self.in_s_prime[:n],
                "in_partial": self.in_s,
                "in_extension": self.in_s_prime,
                "dominated_by_partial": self.dominated_at_partial,
                "x_partial": self.x_partial,
                "x": self.x,
                "tau": (self.tau, self.has_tau),
                "increase_count": self.increase_count,
                "fallback_join": False,
            },
            count,
        )
