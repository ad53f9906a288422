"""Property-based tests (hypothesis) for the kernel tier's substrate.

Four layers are covered:

* the **CSR segment primitives** (:mod:`repro.congest.kernels.csr`) match
  brute-force per-node loops on arbitrary random graphs -- including the
  order-exact float sum, which must replay Python's left-to-right
  accumulation bit for bit;
* the **two inbox forms** of :mod:`repro.congest.kernels.faults` -- a
  fault-free broadcast delivered whole, and the same broadcast expanded
  into entry columns -- answer every operator identically, the ordered sum
  over any row mask included; and a faulted round's inbox, built in arrival
  order without a sort, matches the reference dict assembly (first
  arrival's position, last arrival's payload, crash drops before dedupe);
* the **primal-dual load bounds**: a decide-round candidate whose load is
  not summed could not have joined, and only fault-free whole broadcasts
  let any candidate go unsummed;
* the **streaming generators** (:mod:`repro.graphs.large_scale`) round-trip
  ``networkx.Graph`` <-> ``CSRGraph`` losslessly, keep their neighbor lists
  sorted, and certify arboricity bounds consistent with the dict-based
  degeneracy computation;
* **kernel runs are deterministic**: the same spec produces byte-identical
  results across repeated in-process runs and across worker processes.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.kernels.csr import (
    int_bit_lengths,
    ordered_row_sum,
    row_positions,
    segment_any,
    segment_min,
    segment_min_argrank,
    segment_sum,
)
from repro.congest.kernels.faults import (
    KIND_JOINED_S,
    KIND_SELECTED,
    KIND_X,
    FaultedRun,
    Inbox,
    NeighborhoodInbox,
    NullHooks,
    run_program,
)
from repro.congest.kernels.grid import KernelGrid, grid_from_csr, grid_from_network
from repro.congest.kernels.primal_dual import PrimalDualProgram, _growth_factor
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.core.weighted import WeightedMDSAlgorithm
from repro.graphs import large_scale
from repro.graphs.arboricity import degeneracy
from repro.graphs.generators import random_bounded_arboricity_graph

FAST = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

graph_params = dict(
    n=st.integers(min_value=0, max_value=40),
    alpha=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)


def _random_csr(n, alpha, seed):
    graph = random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
    return graph, large_scale.csr_from_networkx(graph)


#: Floats that break naive summation: signed zeros, infinities, subnormals,
#: and magnitudes far apart.  NaN is excluded as an input (``inf + -inf``
#: still produces one mid-sum).
edge_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324,
         2.2250738585072014e-308, 1e308, -1e308, 1.0, 1e-16]
    ),
    st.floats(allow_nan=False, width=64),
)


def _bits(values):
    """Bit patterns of a float sequence (exact, NaN- and signed-zero-aware)."""
    return [struct.pack("<d", float(value)) for value in values]


def _left_fold(base, terms):
    total = float(base)
    for term in terms:
        total += float(term)
    return total


class TestSegmentPrimitives:
    @FAST
    @given(**graph_params)
    def test_segment_sum_matches_bruteforce(self, n, alpha, seed):
        graph, csr = _random_csr(n, alpha, seed)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 50, size=n)
        summed = segment_sum(csr.indptr, values[csr.indices])
        for node in range(n):
            assert summed[node] == sum(values[u] for u in graph.neighbors(node))

    @FAST
    @given(**graph_params)
    def test_segment_any_and_min_match_bruteforce(self, n, alpha, seed):
        graph, csr = _random_csr(n, alpha, seed)
        rng = np.random.default_rng(seed + 1)
        flags = rng.random(n) < 0.3
        values = rng.integers(1, 60, size=n)
        any_set = segment_any(csr.indptr, flags[csr.indices])
        minima = segment_min(csr.indptr, values[csr.indices], empty=10 ** 9)
        for node in range(n):
            neighbors = list(graph.neighbors(node))
            assert any_set[node] == any(flags[u] for u in neighbors)
            expected = min((values[u] for u in neighbors), default=10 ** 9)
            assert minima[node] == expected

    @FAST
    @given(**graph_params)
    def test_segment_min_argrank_is_first_minimum_in_rank_order(self, n, alpha, seed):
        graph, csr = _random_csr(n, alpha, seed)
        rng = np.random.default_rng(seed + 2)
        values = rng.integers(1, 8, size=n)  # small range forces ties
        ranks = rng.permutation(n).astype(np.int64)
        minima = segment_min(csr.indptr, values[csr.indices], empty=10 ** 9)
        argranks = segment_min_argrank(
            csr.indptr, values[csr.indices], ranks[csr.indices], minima
        )
        for node in range(n):
            neighbors = list(graph.neighbors(node))
            if not neighbors:
                continue
            best = min(values[u] for u in neighbors)
            expected = min(ranks[u] for u in neighbors if values[u] == best)
            assert argranks[node] == expected

    @FAST
    @given(data=st.data())
    def test_ordered_row_sum_is_bitwise_left_fold(self, data):
        """Each row must equal Python's sequential accumulation *exactly* --
        not merely within tolerance -- because the decide rounds compare the
        result against a threshold.  Entries are grouped by row like an
        inbox's entries by receiver: rows repeat, and some rows get none."""
        row_count = data.draw(st.integers(min_value=0, max_value=10))
        lengths = data.draw(
            st.lists(st.integers(0, 6), min_size=row_count, max_size=row_count)
        )
        rows = [row for row, length in enumerate(lengths) for _ in range(length)]
        values = data.draw(st.lists(edge_floats, min_size=len(rows), max_size=len(rows)))
        base = data.draw(st.lists(edge_floats, min_size=row_count, max_size=row_count))
        summed = ordered_row_sum(
            np.array(rows, dtype=np.int64),
            np.array(values, dtype=np.float64),
            np.array(base, dtype=np.float64),
        )
        expected = [
            _left_fold(base[row], [v for r, v in zip(rows, values) if r == row])
            for row in range(row_count)
        ]
        assert _bits(summed) == _bits(expected)  # bit-exact, no tolerance

    @FAST
    @given(**graph_params, data=st.data())
    def test_ordered_row_sum_is_the_closed_neighborhood_fold(self, n, alpha, seed, data):
        """Over a grid's CSR edges, the row sum is the decide round's load."""
        graph, csr = _random_csr(n, alpha, seed)
        values = np.array(data.draw(st.lists(edge_floats, min_size=n, max_size=n)))
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        summed = ordered_row_sum(rows, values[csr.indices], values)
        expected = [
            _left_fold(values[node], [values[u] for u in sorted(graph.neighbors(node))])
            for node in range(n)
        ]
        assert _bits(summed) == _bits(expected)

    @FAST
    @given(**graph_params, data=st.data())
    def test_row_positions_finds_every_edge(self, n, alpha, seed, data):
        _, csr = _random_csr(n, alpha, seed)
        m = len(csr.indices)
        edges = np.array(
            data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=60 if m else 0)),
            dtype=np.int64,
        )
        rows = np.repeat(np.arange(csr.n), np.diff(csr.indptr))[edges]
        found = row_positions(csr.indptr, csr.indices, rows, csr.indices[edges])
        assert found.tolist() == edges.tolist()

    @FAST
    @given(**graph_params, data=st.data())
    def test_row_positions_gives_a_missing_value_its_lower_bound(self, n, alpha, seed, data):
        _, csr = _random_csr(n, alpha, seed)
        nonempty = np.flatnonzero(np.diff(csr.indptr))
        pairs = st.tuples(st.sampled_from(nonempty.tolist()), st.integers(-1, n + 1))
        drawn = data.draw(st.lists(pairs, max_size=40)) if nonempty.size else []
        rows = np.array([row for row, _ in drawn], dtype=np.int64)
        values = np.array([value for _, value in drawn], dtype=np.int64)
        found = row_positions(csr.indptr, csr.indices, rows, values)
        expected = [
            csr.indptr[row]
            + np.searchsorted(csr.indices[csr.indptr[row] : csr.indptr[row + 1]], value)
            for row, value in drawn
        ]
        assert found.tolist() == expected

    @FAST
    @given(values=st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=30))
    def test_int_bit_lengths_matches_python(self, values):
        array = np.asarray(values, dtype=np.int64)
        assert int_bit_lengths(array).tolist() == [v.bit_length() for v in values]


class _KeepAll(NullHooks):
    """Fates with every edge kept: forces the driver's expanded path."""

    def __init__(self, edge_count):
        self.keep = np.ones(edge_count, dtype=bool)

    def edge_fates(self, round_index):
        return self.keep, None


def _broadcast_and_collect(grid, hooks, senders, acting, kind, values, fvalues):
    run = FaultedRun(grid, hooks, budget=0, strict=False, metrics=RunMetrics())
    run.round_metrics = RoundMetrics(round_index=0)
    run.broadcast(0, senders, kind, bits=1, values=values, fvalues=fvalues)
    inbox, dropped = run._collect(1, None, acting)
    assert dropped == 0
    return run, inbox


def _hub_csr(n, alpha, seed, hubs):
    """A random graph plus ``hubs`` nodes of degree 33 to 40.

    Unpicked filler nodes stay at degree 0, and a random relabelling puts
    the hubs anywhere in node order.
    """
    graph = random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(hubs):
        hub = graph.number_of_nodes()
        size = 32 + int(rng.integers(1, 9))
        graph.add_nodes_from(range(hub, hub + size + 3))
        others = [node for node in graph.nodes() if node != hub]
        graph.add_edges_from((hub, int(u)) for u in rng.choice(others, size, replace=False))
    total = graph.number_of_nodes()
    graph = nx.relabel_nodes(graph, dict(zip(range(total), rng.permutation(total).tolist())))
    return large_scale.csr_from_networkx(graph)


def _star_csr(leaves):
    """Node 0 joined to nodes ``1..leaves``: the hub's slot ``k`` is ``k + 1``."""
    return large_scale.csr_from_networkx(nx.star_graph(leaves))


#: Payloads and bases for the inbox sums: ``edge_floats`` plus NaNs of any
#: bit pattern.
payload_floats = st.one_of(edge_floats, st.floats(width=64))


def _expected_sums(csr, senders, acting, fvalues, base, rows=None):
    """The decide-round load by brute force: each summed row's left fold
    over the neighbors that sent, in row order; rows that are idle or not
    in ``rows`` keep ``base``."""
    expected = []
    for node in range(csr.n):
        row = csr.indices[csr.indptr[node]:csr.indptr[node + 1]]
        terms = [0.0 if fvalues is None else fvalues[u] for u in row if senders[u]]
        summed = acting[node] and (rows is None or rows[node])
        expected.append(_left_fold(base[node], terms) if summed else base[node])
    return expected


def _assert_inbox_forms_agree(
    csr, senders, acting, kind, values, fvalues, base, rows=None
):
    """Both inbox forms of one broadcast answer every operator identically,
    and the ordered sum over ``rows`` and the receipt counts match brute
    force."""
    n = csr.n
    grid = grid_from_csr(csr)
    whole_run, whole = _broadcast_and_collect(
        grid, NullHooks(), senders, acting, kind, values, fvalues
    )
    expanded_run, expanded = _broadcast_and_collect(
        grid, _KeepAll(len(csr.indices)), senders, acting, kind, values, fvalues
    )
    assert whole_run.round_metrics.to_dict() == expanded_run.round_metrics.to_dict()
    if expanded is None and whole is None:
        return
    assert isinstance(whole, NeighborhoodInbox)
    if expanded is None:  # nothing reached an acting node
        empty = np.empty(0, dtype=np.int64)
        expanded = Inbox(n, empty, empty, empty, empty, np.empty(0))
    assert isinstance(expanded, Inbox)
    expected_sum = _bits(_expected_sums(csr, senders, acting, fvalues, base, rows))
    for code in (0, 1, 2):
        assert whole.any_truthy(code).tolist() == expanded.any_truthy(code).tolist()
        counts = whole.count_truthy(code).tolist()
        assert counts == expanded.count_truthy(code).tolist()
        summed = _bits(whole.ordered_float_sum((code,), base, rows))
        assert summed == _bits(expanded.ordered_float_sum((code,), base, rows))
        if code == kind:
            assert summed == expected_sum  # bit-exact, no tolerance
            assert counts == [
                sum(
                    1
                    for u in csr.indices[csr.indptr[v]:csr.indptr[v + 1]]
                    if senders[u] and values[u]
                )
                if acting[v]
                else 0
                for v in range(n)
            ]
        else:
            assert summed == _bits(base)
        assert (
            whole.received_edges(code, whole_run).tolist()
            == expanded.received_edges(code, expanded_run).tolist()
        )
    # Both forms list every receiver's entries in arrival order; how the
    # receivers interleave is free.
    whole_columns, expanded_columns = _by_receiver(whole), _by_receiver(expanded)
    for column in ("recv", "send", "kind", "ival"):
        assert whole_columns[column].tolist() == expanded_columns[column].tolist()
    assert _bits(whole_columns["fval"]) == _bits(expanded_columns["fval"])


def _by_receiver(inbox):
    """The inbox's columns grouped by receiver, each receiver's entries kept
    in inbox order."""
    order = np.argsort(inbox.recv, kind="stable")
    return {
        column: getattr(inbox, column)[order]
        for column in ("recv", "send", "kind", "ival", "fval")
    }


class TestInboxForms:
    @FAST
    @given(**graph_params, hubs=st.integers(0, 2), data=st.data())
    def test_whole_neighborhood_inbox_matches_expanded(self, n, alpha, seed, hubs, data):
        csr = _hub_csr(n, alpha, seed, hubs)
        n = csr.n
        rng = np.random.default_rng(seed)
        masks = st.lists(st.booleans(), min_size=n, max_size=n)
        senders = {
            "all": lambda: np.ones(n, dtype=bool),
            "drawn": lambda: np.array(data.draw(masks), dtype=bool),
            "sparse": lambda: rng.random(n) < 0.1,
        }[data.draw(st.sampled_from(["all", "drawn", "sparse"]))]()
        acting = (
            np.array(data.draw(masks), dtype=bool)
            if data.draw(st.booleans())
            else np.ones(n, dtype=bool)
        )
        values = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        floats = st.lists(payload_floats, min_size=n, max_size=n)
        fvalues = (
            None if data.draw(st.booleans()) else np.array(data.draw(floats), dtype=np.float64)
        )
        base = np.array(data.draw(floats), dtype=np.float64)
        kind = data.draw(st.integers(0, 2))
        rows = {
            "none": lambda: None,
            "drawn": lambda: np.array(data.draw(masks), dtype=bool),
            "sparse": lambda: rng.random(n) < 0.05,
        }[data.draw(st.sampled_from(["none", "drawn", "sparse"]))]()
        _assert_inbox_forms_agree(
            csr, senders, acting, kind, values, fvalues, base, rows
        )

    def test_non_senders_are_left_out_not_added_as_zero(self):
        # -0.0 + 0.0 is +0.0: the silent leaves must not touch the hub's
        # -0.0, whichever rows are summed.
        csr = _star_csr(40)
        n = csr.n
        senders = np.zeros(n, dtype=bool)
        senders[0] = True
        base = np.full(n, -0.0)
        hub_only = np.arange(n) == 0
        for acting in (np.ones(n, dtype=bool), np.arange(n) % 2 == 0):
            for rows in (None, hub_only, ~hub_only, np.arange(n) % 3 == 0):
                _assert_inbox_forms_agree(
                    csr, senders, acting, 1, np.ones(n, np.int64),
                    np.full(n, -0.0), base, rows,
                )

    def test_negative_zero_hub_keeps_its_sign(self):
        # A hub whose base and senders are all -0.0 sums to -0.0; one +0.0
        # sender flips it to +0.0.  Rows left out keep their base, -0.0.
        csr = _star_csr(40)
        n = csr.n
        hub_only = np.arange(n) == 0
        fvalues = np.full(n, -0.0)
        for senders in (np.ones(n, dtype=bool), np.arange(n) != 7):
            for rows in (None, hub_only, ~hub_only):
                _assert_inbox_forms_agree(
                    csr, senders, np.ones(n, dtype=bool), 2, np.ones(n, np.int64),
                    fvalues, np.full(n, -0.0), rows,
                )
        fvalues[9] = 0.0
        grid = grid_from_csr(csr)
        _, whole = _broadcast_and_collect(
            grid, NullHooks(), np.ones(n, dtype=bool), np.ones(n, dtype=bool), 2,
            None, fvalues,
        )
        summed = whole.ordered_float_sum((2,), np.full(n, -0.0), hub_only)
        assert _bits(summed[:2]) == _bits([0.0, -0.0])

    def test_sparse_truthy_receipts(self):
        csr = _hub_csr(30, 2, 7, 2)
        n = csr.n
        rng = np.random.default_rng(3)
        senders = rng.random(n) < 0.5
        values = (rng.random(n) < 0.05).astype(np.int64)
        values[int(np.argmax(np.diff(csr.indptr)))] = 1  # a truthy hub
        _assert_inbox_forms_agree(
            csr, senders | (values > 0), rng.random(n) < 0.8, 0, values, None, np.zeros(n)
        )


class _Scripted(NullHooks):
    """Fixed fates: ``keep`` in every round, ``delays[round]`` per round."""

    def __init__(self, keep, delays):
        self.keep, self.delays = keep, delays

    def edge_fates(self, round_index):
        return self.keep, self.delays[round_index]


def _reference_inboxes(grid, arrivals, crashed):
    """The reference engine's assembly (``FaultSession.collect``): arrivals
    in ``(send round, sender, neighbor)`` order, each into a crashed
    receiver counted as dropped, the rest into per-receiver dicts."""
    inboxes, dropped = {}, 0
    for receiver, sender, payload in arrivals:
        if crashed[receiver]:
            dropped += 1
        else:
            inboxes.setdefault(receiver, {})[sender] = payload
    return inboxes, dropped


def _sent_arrivals(grid, senders, payload, reaches=lambda edge: True):
    """One send round's arrivals over ``reaches`` edges, in CSR order."""
    return [
        (int(grid.indices[edge]), int(grid.edge_src[edge]), payload(int(grid.edge_src[edge])))
        for edge in range(len(grid.indices))
        if senders[grid.edge_src[edge]] and reaches(edge)
    ]


def _assert_matches_reference(inbox, inboxes):
    """Per receiver: the same senders in the same order, with the same
    ``(kind, ival, fval)`` payloads, bit for bit."""
    columns = _by_receiver(inbox)
    expected = [
        (receiver, sender, *payload)
        for receiver in sorted(inboxes)
        for sender, payload in inboxes[receiver].items()
    ]
    got = list(zip(*(columns[c].tolist() for c in ("recv", "send", "kind", "ival"))))
    assert got == [entry[:4] for entry in expected]
    assert _bits(columns["fval"]) == _bits([entry[4] for entry in expected])


class TestArrivalOrder:
    """The faulted inbox keeps the reference dict semantics without a sort:
    per ``(receiver, sender)`` pair the first arrival fixes the position and
    the last the payload; per receiver, entries stay in arrival order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_pair_keeps_first_position_and_last_payload(self, seed):
        # Round 0 broadcasts x, some edges delayed one round; round 1
        # broadcasts joined_s on time.  Both reach round 2, where a pair
        # holding both arrives as joined_s at its x's position.
        grid = grid_from_csr(_hub_csr(30, 2, seed, 1))
        n, m = grid.n, len(grid.indices)
        rng = np.random.default_rng(seed)
        keep = rng.random(m) < 0.9
        delays = {0: (rng.random(m) < 0.5).astype(np.uint8), 1: np.zeros(m, np.uint8)}
        joined = rng.random(n) < 0.5
        x = rng.choice([1e16, -1e16, 1.0, 3.0, 0.5, -0.0], n) * (1 + rng.random(n))
        # The hub is crashed and every edge into it carries a repeated pair.
        hub = int(np.argmax(grid.degrees))
        crashed = np.arange(n) == hub
        into_hub = np.flatnonzero(grid.indices == hub)
        keep[into_hub], delays[0][into_hub] = True, 1
        joined[grid.edge_src[into_hub]] = True
        # Into one live neighbor, only the highest sender's x is delayed:
        # its repeated pair leads, ahead of the lower senders' joined_s.
        neighbor = next(
            int(u) for u in grid.indices[grid.indptr[hub]:grid.indptr[hub + 1]]
            if grid.degrees[u] >= 3
        )
        into = np.flatnonzero(grid.indices == neighbor)
        keep[into], delays[0][into], delays[0][into[-1]] = True, 0, 1
        joined[grid.edge_src[into]] = True
        sent_x = x.copy()
        run = FaultedRun(grid, _Scripted(keep, delays), budget=0, strict=False,
                         metrics=RunMetrics())
        run.round_metrics = RoundMetrics(round_index=0)
        run.broadcast(0, np.ones(n, dtype=bool), KIND_X, bits=1, fvalues=x)
        x *= 3.0  # the program moves on; the batch keeps the sent values
        run.round_metrics = RoundMetrics(round_index=1)
        run.broadcast(1, joined, KIND_JOINED_S, bits=1)
        acting = ~crashed
        inbox, dropped = run._collect(2, crashed, acting)

        arrivals = _sent_arrivals(
            grid, np.ones(n, dtype=bool), lambda u: (KIND_X, 1, sent_x[u]),
            lambda edge: keep[edge] and delays[0][edge] == 1,
        ) + _sent_arrivals(grid, joined, lambda u: (KIND_JOINED_S, 1, 0.0), keep.__getitem__)
        inboxes, expected_dropped = _reference_inboxes(grid, arrivals, crashed)
        _assert_matches_reference(inbox, inboxes)
        senders = grid.edge_src[into].tolist()
        assert list(inboxes[neighbor]) == senders[-1:] + senders[:-1]
        assert any(p[0] == KIND_X for inbox_v in inboxes.values() for p in inbox_v.values())

        base = rng.choice([1e16, -1e16, 1.0, -0.0], n)
        expected_sums = [
            _left_fold(base[v], [
                payload[2] for payload in inboxes.get(v, {}).values() if payload[0] == KIND_X
            ])
            for v in range(n)
        ]
        assert _bits(inbox.ordered_float_sum((KIND_X,), base)) == _bits(expected_sums)

        # Every arrival into the crashed hub counts, repeated pairs included.
        into_hub = sum(1 for receiver, _, _ in arrivals if receiver == hub)
        assert dropped == expected_dropped == into_hub
        assert into_hub > grid.degrees[hub]

    def test_broadcast_sharing_its_round_keeps_batch_order(self):
        # Without fates a broadcast stays unexpanded; a unicast in the same
        # round makes the collect expand it beside the unicast's edges.
        grid = grid_from_csr(_hub_csr(20, 2, 5, 1))
        n = grid.n
        rng = np.random.default_rng(5)
        senders = rng.random(n) < 0.6
        x = rng.random(n)
        run = FaultedRun(grid, NullHooks(), budget=0, strict=False, metrics=RunMetrics())
        run.round_metrics = RoundMetrics(round_index=0)
        run.broadcast(0, senders, KIND_X, bits=1, fvalues=x)
        picking = np.flatnonzero(grid.degrees > 0)
        targets = grid.indices[grid.indptr[picking] + grid.degrees[picking] - 1]
        run.unicast(0, picking, targets, KIND_SELECTED, bits=1)
        assert not senders[picking].all()  # some unicasts follow no broadcast
        inbox, dropped = run._collect(1, None, np.ones(n, dtype=bool))

        chosen = dict(zip(picking.tolist(), targets.tolist()))
        arrivals = _sent_arrivals(grid, senders, lambda u: (KIND_X, 1, x[u])) + [
            (target, sender, (KIND_SELECTED, 1, 0.0)) for sender, target in chosen.items()
        ]
        inboxes, _ = _reference_inboxes(grid, arrivals, np.zeros(n, dtype=bool))
        _assert_matches_reference(inbox, inboxes)
        assert dropped == 0


#: Small epsilons (long schedules of fine growth steps) and ones near 1.
epsilons = st.one_of(
    st.floats(0.01, 0.05), st.floats(0.9, 1.0, exclude_max=True)
)


@contextmanager
def _decide_rounds(check):
    """Call ``check(program, candidates, due, inbox)`` in every decide round
    of the primal-dual programs run inside the block (forked sharded
    workers included)."""
    original = PrimalDualProgram._due_rows

    def spy(self, candidates, inbox):
        due = original(self, candidates, inbox)
        check(self, candidates, due, inbox)
        return due

    with mock.patch.object(PrimalDualProgram, "_due_rows", spy):
        yield


def _checked_run(csr, weights, epsilon, alpha, watched):
    """One plain weighted run that asserts, in every decide round, that each
    candidate left unsummed has its full exact load below its threshold.
    Returns ``watched``'s full load in each round it is a candidate."""
    degrees = np.diff(csr.indptr)
    grid = KernelGrid(csr.indptr, csr.indices, weights, range(csr.n))
    config = {"max_degree": int(degrees.max(initial=0)), "alpha": alpha}
    watched_loads = []

    def check(program, candidates, due, inbox):
        loads = program.x if inbox is None else inbox.ordered_float_sum((KIND_X,), program.x)
        skipped = candidates & ~due
        assert (loads[skipped] < program.join_threshold[skipped]).all()
        if candidates[watched]:
            watched_loads.append(float(loads[watched]))

    with _decide_rounds(check):
        run_program(
            PrimalDualProgram, grid, config, WeightedMDSAlgorithm(epsilon=epsilon),
            budget=0, limit=10 ** 6, strict=False,
        )
    return watched_loads


def _assert_skipped_rows_stay_below(n, alpha, seed, epsilon, data):
    """The load-bound soundness property on one random graph.

    Weights near ``2**52`` make one weight unit about one ulp of a load.  A
    probe run gives the max-degree node a weight no load reaches and
    records its loads; the checked run then sets that weight to within a
    few units of ``(1+eps)`` times one of them, so its threshold lands
    within a few ulps of that load.  The node is heavier than its
    neighbors either way, so no ``tau`` and no earlier round changes.
    """
    csr = large_scale.csr_from_networkx(
        random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
    )
    rng = np.random.default_rng(seed)
    weights = 2 ** 52 - rng.integers(0, 2 ** 20, size=n)
    degrees = np.diff(csr.indptr)
    watched = int(np.argmax(degrees))
    weights[watched] = 2 ** 62
    loads = _checked_run(csr, weights, epsilon, alpha, watched)
    # An isolated node's load is its own weight, and with no decide round
    # there is nothing to aim at.
    if degrees[watched] and loads:
        load = Fraction(data.draw(st.sampled_from(loads)))
        near = math.floor(load * Fraction(1.0 + epsilon)) + data.draw(st.integers(-3, 3))
        assert near > 2 ** 52  # still heavier than every other node
        weights[watched] = near
        _checked_run(csr, weights, epsilon, alpha, watched)


class TestDueRows:
    @FAST
    @given(
        n=st.integers(1, 40), alpha=st.integers(1, 4),
        seed=st.integers(0, 10 ** 6), epsilon=epsilons, data=st.data(),
    )
    def test_skipped_candidates_stay_below_their_threshold(
        self, n, alpha, seed, epsilon, data
    ):
        _assert_skipped_rows_stay_below(n, alpha, seed, epsilon, data)

    @pytest.mark.slow
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        n=st.integers(1, 300), alpha=st.integers(1, 6),
        seed=st.integers(0, 10 ** 6), epsilon=epsilons, data=st.data(),
    )
    def test_skipped_candidates_stay_below_their_threshold_large(
        self, n, alpha, seed, epsilon, data
    ):
        _assert_skipped_rows_stay_below(n, alpha, seed, epsilon, data)

    @staticmethod
    def _summed_rows(tmp_path, **spec):
        """``(candidate rows, due rows)`` summed over every decide round of
        one weighted run on a 2,000-node BA graph."""
        from repro.graphs.large_scale import (
            large_preferential_attachment,
            random_integer_weights,
        )
        from repro.run import RunSpec, Session

        csr = random_integer_weights(
            large_preferential_attachment(2_000, attachment=4, seed=5), seed=6
        )
        log = tmp_path / "decide.log"

        def check(program, candidates, due, inbox):
            with open(log, "a") as out:
                out.write(f"{int(candidates.sum())} {int(due.sum())}\n")

        with _decide_rounds(check):
            run = Session().run(RunSpec(graph=csr, algorithm="weighted", **spec))
        assert run.engine_used == spec["engine"]
        candidates, due = np.loadtxt(log, dtype=np.int64, ndmin=2).sum(axis=0)
        assert candidates > 0
        return csr, candidates, due

    def test_plain_run_sums_few_candidate_rows(self, tmp_path):
        csr, candidates, due = self._summed_rows(tmp_path, engine="kernel")
        assert 0 < due < 0.1 * candidates
        # Summing the rows' slices needs no per-edge row column.
        assert grid_from_csr(csr)._edge_src is None

    def test_faulted_run_sums_every_candidate_row(self, tmp_path):
        _, candidates, due = self._summed_rows(
            tmp_path, engine="kernel", faults="lossy10"
        )
        assert due == candidates

    def test_sharded_run_sums_every_candidate_row(self, tmp_path):
        _, candidates, due = self._summed_rows(tmp_path, engine="sharded", shards=2)
        assert due == candidates

    @FAST
    @given(epsilon=epsilons, k=st.integers(1, 40), seed=st.integers(0, 10 ** 6))
    def test_grown_bound_covers_every_growth_of_the_load(self, epsilon, k, seed):
        """The certificate's core step, on the ``rho`` a program uses: over
        rounds in which every ``x`` grows by ``c = 1+eps`` (rounded), the
        bound ``fl(rho B)`` never falls below the left-to-right load.  With
        random magnitudes the load outgrows ``fl(c B)`` within six rounds in
        about two thirds of the cases, which ``rho = c`` would miss."""
        rng = np.random.default_rng(seed)
        csr = _star_csr(k - 1) if k > 1 else large_scale.csr_from_networkx(nx.empty_graph(1))
        program = PrimalDualProgram(
            grid_from_csr(csr), {"max_degree": k - 1, "alpha": 1},
            WeightedMDSAlgorithm(epsilon=epsilon), None, k,
        )
        x = 10.0 ** rng.uniform(-3, 3, size=k)
        bound = _left_fold(x[0], x[1:])
        for _ in range(6):
            x = x * (1.0 + epsilon)
            bound = float(np.float64(bound) * program.rho)
            assert bound >= _left_fold(x[0], x[1:])

    @FAST
    @given(
        epsilon=st.floats(1e-9, 1.0, exclude_max=True),
        closed_size=st.integers(1, 10 ** 7),
    )
    def test_growth_factor_is_the_least_float_covering_the_bound(
        self, epsilon, closed_size
    ):
        one_plus_eps = 1.0 + epsilon
        rho = _growth_factor(one_plus_eps, closed_size)
        u = Fraction(1, 2 ** 53)
        gamma = closed_size * u / (1 - closed_size * u)
        needed = (
            Fraction(one_plus_eps) * (1 + u) * (1 + gamma) / ((1 - gamma) * (1 - u))
        )
        assert Fraction(rho) >= needed > Fraction(math.nextafter(rho, 0.0))


class TestRankOrder:
    @FAST
    @given(**graph_params)
    def test_node_by_rank_is_sorted_repr_order_and_cached(self, n, alpha, seed):
        graph = random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
        labels = {node: f"v{node * 7919 % 13}-{node}" for node in graph}
        grid = grid_from_network(Network(nx.relabel_nodes(graph, labels)))
        order = sorted(range(n), key=lambda index: repr(grid.node_order[index]))
        assert grid.node_by_rank.tolist() == order
        assert grid.repr_rank[grid.node_by_rank].tolist() == list(range(n))
        assert grid.node_by_rank is grid.node_by_rank


class TestCSRRoundTrip:
    @FAST
    @given(**graph_params, weighted=st.booleans())
    def test_networkx_roundtrip_lossless(self, n, alpha, seed, weighted):
        graph = random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
        if weighted:
            rng = np.random.default_rng(seed)
            for node in graph.nodes():
                graph.nodes[node]["weight"] = int(rng.integers(1, 40))
        csr = large_scale.csr_from_networkx(graph)
        back = csr.to_networkx()
        assert set(back.nodes()) == set(graph.nodes())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, graph.edges()))
        for node in graph.nodes():
            assert back.nodes[node].get("weight", 1) == graph.nodes[node].get("weight", 1)
        # CSR invariants: sorted neighbor slices, symmetric edge count.
        for node in range(n):
            row = csr.indices[csr.indptr[node]:csr.indptr[node + 1]].tolist()
            assert row == sorted(graph.neighbors(node))

    @FAST
    @given(**graph_params)
    def test_csr_degeneracy_matches_dict_based(self, n, alpha, seed):
        graph, csr = _random_csr(n, alpha, seed)
        if n == 0:
            assert large_scale.csr_degeneracy(csr) == 0
        else:
            assert large_scale.csr_degeneracy(csr) == degeneracy(graph)

    def test_streamed_generators_have_valid_structure(self):
        for csr in [
            large_scale.large_preferential_attachment(200, attachment=3, seed=1),
            large_scale.large_grid(9, 13),
            large_scale.large_grid(5, 5, diagonal=True),
            large_scale.large_random_geometric(150, 0.12, seed=4),
        ]:
            graph = csr.to_networkx()
            assert graph.number_of_nodes() == csr.n
            assert graph.number_of_edges() == csr.m
            assert not any(u == v for u, v in graph.edges())
            if csr.alpha is not None:
                # The certificate must actually bound the arboricity, which
                # degeneracy/2-rounding witnesses: alpha <= degeneracy is not
                # required, but degeneracy <= 2*alpha - 1 always holds for a
                # correct certificate.
                assert degeneracy(graph) <= 2 * csr.alpha - 1

    def test_rejects_self_loops_and_duplicates(self):
        import pytest

        with pytest.raises(ValueError, match="self-loop"):
            large_scale.csr_from_edges(3, np.array([0, 1]), np.array([0, 2]))
        with pytest.raises(ValueError, match="duplicate"):
            large_scale.csr_from_edges(3, np.array([0, 0]), np.array([1, 1]))

    def test_from_networkx_rejects_non_integer_weights(self):
        import networkx as nx
        import pytest

        graph = nx.path_graph(3)
        graph.nodes[1]["weight"] = 2.7
        with pytest.raises(ValueError, match="positive integers"):
            large_scale.csr_from_networkx(graph)
        graph.nodes[1]["weight"] = 0
        with pytest.raises(ValueError, match="positive integers"):
            large_scale.csr_from_networkx(graph)

    def test_kernel_grid_cache_is_not_pickled(self):
        import pickle

        from repro.run import RunSpec, Session

        csr = large_scale.large_preferential_attachment(500, attachment=3, seed=1)
        cold = len(pickle.dumps(csr))
        Session().run(RunSpec(graph=csr, algorithm="deterministic", engine="kernel"))
        assert hasattr(csr, "_kernel_grid")  # the cache exists after a run...
        warm = len(pickle.dumps(csr))
        assert warm == cold  # ...but never crosses a process boundary
        assert not hasattr(pickle.loads(pickle.dumps(csr)), "_kernel_grid")


def _run_kernel_once(payload):
    """Worker entry point for the cross-process determinism check."""
    n, attachment, seed, algorithm = payload
    from repro.graphs.large_scale import large_preferential_attachment
    from repro.run import RunSpec, Session
    from repro.run.result import result_bytes

    csr = large_preferential_attachment(n, attachment=attachment, seed=seed)
    result = Session().run(
        RunSpec(graph=csr, algorithm=algorithm, alpha=attachment, engine="kernel")
    )
    return result_bytes(result)


class TestKernelDeterminism:
    def test_repeated_runs_byte_identical(self):
        from repro.run import RunSpec, Session
        from repro.run.result import result_bytes

        csr = large_scale.large_preferential_attachment(120, attachment=3, seed=6)
        session = Session()
        spec = RunSpec(graph=csr, algorithm="deterministic", alpha=3, engine="kernel")
        blobs = {result_bytes(session.run(spec)) for _ in range(3)}
        blobs.add(result_bytes(Session().run(spec)))  # fresh session too
        assert len(blobs) == 1

    def test_runs_byte_identical_across_processes(self):
        import multiprocessing

        payload = (120, 3, 6, "deterministic")
        local = _run_kernel_once(payload)
        context = multiprocessing.get_context("spawn")
        with context.Pool(2) as pool:
            remote = pool.map(_run_kernel_once, [payload, payload])
        assert remote == [local, local]
