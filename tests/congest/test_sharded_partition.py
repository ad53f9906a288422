"""Property tests (hypothesis) for the sharded tier's partition layer.

The round-trip invariants :mod:`repro.congest.sharded.partition` promises:

* **ownership** is a disjoint cover: every global node is owned by exactly
  one shard, and ``shards == 1`` is the identity partition;
* **local rows** are a lossless re-encoding: decoding every shard's own
  CSR rows back to global ids reproduces the global directed edge list
  exactly -- same neighbors, same within-row order -- while halo rows stay
  empty;
* **boundary lanes** mirror positionally: each directed pair's out-lane on
  the sender equals the in-lane on the receiver node for node and edge for
  edge, in canonical ``(u_global, v_global)`` order, and every cross edge
  appears in exactly one out-lane;
* ``node_counts``/``edge_counts`` agree with the materialised lane widths
  (they size the shared-memory block, so an off-by-one is a heap smash).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.sharded.partition import build_partition, shard_owner
from repro.graphs import large_scale
from repro.graphs.generators import random_bounded_arboricity_graph

FAST = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

partition_params = dict(
    n=st.integers(min_value=0, max_value=60),
    alpha=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    shards=st.integers(min_value=1, max_value=7),
)


def _random_plan(n, alpha, seed, shards):
    graph = random_bounded_arboricity_graph(n, alpha=alpha, seed=seed)
    csr = large_scale.csr_from_networkx(graph)
    weights = csr.weight_array()
    return csr, build_partition(csr.indptr, csr.indices, weights, shards)


def _local_to_global(spec):
    return np.concatenate([spec.own, spec.halo]).astype(np.int64)


class TestOwnership:
    @FAST
    @given(**partition_params)
    def test_owner_is_a_disjoint_cover(self, n, alpha, seed, shards):
        owner = shard_owner(n, shards)
        assert owner.shape == (n,)
        assert ((owner >= 0) & (owner < shards)).all()
        csr, plan = _random_plan(n, alpha, seed, shards)
        covered = np.concatenate([spec.own for spec in plan.specs]) if n else np.empty(0)
        assert sorted(covered.tolist()) == list(range(n))

    def test_single_shard_is_identity(self):
        owner = shard_owner(100, 1)
        assert (owner == 0).all()


class TestLocalRows:
    @FAST
    @given(**partition_params)
    def test_every_directed_edge_in_exactly_one_shard(self, n, alpha, seed, shards):
        """Decoding own rows reproduces the global edge list, order intact."""
        csr, plan = _random_plan(n, alpha, seed, shards)
        rebuilt = {}
        for spec in plan.specs:
            mapping = _local_to_global(spec)
            for row in range(spec.own_count):
                u = int(spec.own[row])
                local_row = spec.indices[spec.indptr[row]:spec.indptr[row + 1]]
                assert u not in rebuilt, "own node appears in two shards"
                rebuilt[u] = mapping[local_row].tolist()
            # Halo rows carry no edges: their state arrives via lanes only.
            for halo_row in range(spec.own_count, spec.local_n):
                assert spec.indptr[halo_row] == spec.indptr[halo_row + 1]
        for u in range(n):
            expected = csr.indices[csr.indptr[u]:csr.indptr[u + 1]].tolist()
            assert rebuilt.get(u, []) == expected

    @FAST
    @given(**partition_params)
    def test_local_weights_follow_the_node_mapping(self, n, alpha, seed, shards):
        csr, plan = _random_plan(n, alpha, seed, shards)
        weights = csr.weight_array()
        for spec in plan.specs:
            assert np.array_equal(spec.weights, weights[_local_to_global(spec)])


class TestBoundaryLanes:
    @FAST
    @given(**partition_params)
    def test_lanes_mirror_and_cover_cross_edges(self, n, alpha, seed, shards):
        csr, plan = _random_plan(n, alpha, seed, shards)
        owner = plan.owner
        # Global cross-edge census per directed shard pair.
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        dst = csr.indices.astype(np.int64)
        cross = owner[src] != owner[dst] if n else np.empty(0, dtype=bool)
        for a in range(shards):
            sender = plan.specs[a]
            for b in range(shards):
                if a == b:
                    continue
                pair = cross & (owner[src] == a) & (owner[dst] == b) if n else cross
                pair_count = int(pair.sum()) if n else 0
                assert int(plan.edge_counts[a, b]) == pair_count
                receiver = plan.specs[b]
                out_keys = sender.out_edge_keys.get(b)
                if pair_count == 0:
                    assert out_keys is None
                    assert b not in sender.out_nodes
                    continue
                # Sender lane decodes to the (u_global, v_global) census.
                rows, locals_ = out_keys // sender.local_n, out_keys % sender.local_n
                sender_map = _local_to_global(sender)
                u_out = sender.own[rows]
                v_out = sender_map[locals_]
                expected = np.lexsort((dst[pair], src[pair]))
                assert u_out.tolist() == src[pair][expected].tolist()
                assert v_out.tolist() == dst[pair][expected].tolist()
                # Receiver mirror: same edges, same canonical order.
                receiver_map = _local_to_global(receiver)
                assert receiver.in_send_global[a].tolist() == u_out.tolist()
                assert receiver_map[receiver.in_recv[a]].tolist() == v_out.tolist()
                assert np.array_equal(
                    receiver_map[receiver.in_send[a]], receiver.in_send_global[a]
                )
                # Node lanes: sender's boundary rows, ascending global, and
                # the receiver's positionally identical halo mirror.
                out_nodes = sender.out_nodes[b]
                assert int(plan.node_counts[a, b]) == out_nodes.size
                assert sender.own[out_nodes].tolist() == sorted(set(u_out.tolist()))
                assert receiver_map[receiver.in_nodes[a]].tolist() == (
                    sender.own[out_nodes].tolist()
                )

    @FAST
    @given(**partition_params)
    def test_halo_is_exactly_the_foreign_neighbors(self, n, alpha, seed, shards):
        csr, plan = _random_plan(n, alpha, seed, shards)
        owner = plan.owner
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        dst = csr.indices.astype(np.int64)
        for spec in plan.specs:
            mine = owner[src] == spec.index if n else np.empty(0, dtype=bool)
            foreign = dst[mine][owner[dst[mine]] != spec.index] if n else dst
            assert spec.halo.tolist() == sorted(set(foreign.tolist()))
