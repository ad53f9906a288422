"""Property-based tests (hypothesis) for the kernel tier's substrate.

Four layers are covered:

* the **CSR segment primitives** (:mod:`repro.congest.kernels.csr`) match
  brute-force per-node loops on arbitrary random graphs -- including the
  order-exact float sum, which must replay Python's left-to-right
  accumulation bit for bit;
* the **two inbox forms** of :mod:`repro.congest.kernels.faults` -- a
  fault-free broadcast delivered whole, and the same broadcast expanded
  into entry columns -- answer every operator identically;
* the **streaming generators** (:mod:`repro.graphs.large_scale`) round-trip
  ``networkx.Graph`` <-> ``CSRGraph`` losslessly, keep their neighbor lists
  sorted, and certify arboricity bounds consistent with the dict-based
  degeneracy computation;
* **kernel runs are deterministic**: the same spec produces byte-identical
  results across repeated in-process runs and across worker processes.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.kernels.csr import (
    int_bit_lengths,
    ordered_row_sum,
    segment_any,
    segment_min,
    segment_min_argrank,
    segment_sum,
)
from repro.congest.kernels.faults import FaultedRun, Inbox, NeighborhoodInbox, NullHooks
from repro.congest.kernels.grid import grid_from_csr
from repro.congest.metrics import RoundMetrics, RunMetrics
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


class TestInboxForms:
    @FAST
    @given(**graph_params, data=st.data())
    def test_whole_neighborhood_inbox_matches_expanded(self, n, alpha, seed, data):
        _, csr = _random_csr(n, alpha, seed)
        grid = grid_from_csr(csr)
        masks = st.lists(st.booleans(), min_size=n, max_size=n)
        senders = np.array(data.draw(masks), dtype=bool)
        acting = np.array(data.draw(masks), dtype=bool)
        values = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        fvalues = np.array(
            data.draw(st.lists(edge_floats, min_size=n, max_size=n)), dtype=np.float64
        )
        base = np.array(
            data.draw(st.lists(edge_floats, min_size=n, max_size=n)), dtype=np.float64
        )
        kind = data.draw(st.integers(0, 2))
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
        for column in ("recv", "send", "kind", "ival"):
            assert getattr(whole, column).tolist() == getattr(expanded, column).tolist()
        assert _bits(whole.fval) == _bits(expanded.fval)
        for code in (0, 1, 2):
            assert whole.any_truthy(code).tolist() == expanded.any_truthy(code).tolist()
            assert (
                whole.count_truthy(code).tolist() == expanded.count_truthy(code).tolist()
            )
            assert _bits(whole.ordered_float_sum((code,), base)) == _bits(
                expanded.ordered_float_sum((code,), base)
            )
            assert (
                whole.received_edges(code, whole_run).tolist()
                == expanded.received_edges(code, expanded_run).tolist()
            )


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
