"""KMW-style base graphs for the Theorem 1.4 construction.

The original lower bound of Kuhn, Moscibroda and Wattenhofer uses a family of
"cluster tree" graphs ``CT_k`` whose defining feature is *locality hardness*:
after ``k`` rounds, nodes on either side of a critical edge have
indistinguishable views although their optimal vertex cover behaviour
differs.  That property is about what distributed algorithms cannot do, so it
cannot be certified by running code; what the Figure 1 reduction consumes is
much weaker and fully checkable:

* the base graph is **bipartite** (so the vertex cover integrality gap is 1,
  which the proof of Theorem 1.4 uses to equate ``OPT_MVC`` and
  ``OPT_MFVC``), and
* it has **at least as many edges as nodes** (used in the chain
  ``OPT_MFVC >= m / Delta >= n / Delta``).

This module therefore generates laptop-scale *stand-ins* with exactly those
certified properties -- a deliberate substitution, since the reduction
consumes nothing else:

* :func:`bipartite_regular_base_graph` -- a random bipartite (near-)regular
  graph built by a union of perfect matchings, mirroring the KMW graphs'
  regular bipartite structure;
* :func:`layered_cluster_tree_graph` -- a layered graph reminiscent of the
  cluster-tree shape: level ``i`` has ``degree^i`` nodes and each node is
  joined to ``degree`` children on the next level, plus a matching between
  the two deepest levels to push ``m`` above ``n``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import networkx as nx

__all__ = [
    "KMWBaseGraph",
    "bipartite_regular_base_graph",
    "layered_cluster_tree_graph",
]


@dataclass
class KMWBaseGraph:
    """A base graph together with the properties the reduction relies on."""

    graph: nx.Graph
    description: str

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def m(self) -> int:
        return self.graph.number_of_edges()

    @property
    def max_degree(self) -> int:
        return max(dict(self.graph.degree()).values(), default=0)

    @property
    def is_bipartite(self) -> bool:
        return nx.is_bipartite(self.graph)

    @property
    def has_enough_edges(self) -> bool:
        """The proof of Theorem 1.4 uses ``m >= n`` for the KMW graphs."""
        return self.m >= self.n

    def validate(self) -> None:
        """Raise ``ValueError`` unless the reduction's prerequisites hold."""
        if not self.is_bipartite:
            raise ValueError("base graph must be bipartite")
        if not self.has_enough_edges:
            raise ValueError("base graph must satisfy m >= n")


def bipartite_regular_base_graph(side: int, degree: int, seed: int = 0) -> KMWBaseGraph:
    """Return a bipartite ``degree``-regular graph on ``2*side`` nodes.

    Built as the union of ``degree`` random perfect matchings between the two
    sides (parallel edges from colliding matchings are simply dropped, so the
    graph is near-regular for small ``degree``); ``m`` is close to
    ``side*degree >= n`` whenever ``degree >= 2``.
    """
    if side < 2 or degree < 2:
        raise ValueError("need side >= 2 and degree >= 2 so that m >= n")
    rng = random.Random(seed)
    graph = nx.Graph()
    left = [("L", index) for index in range(side)]
    right = [("R", index) for index in range(side)]
    graph.add_nodes_from(left)
    graph.add_nodes_from(right)
    for _ in range(degree):
        permutation = list(range(side))
        rng.shuffle(permutation)
        for index in range(side):
            graph.add_edge(left[index], right[permutation[index]])
    instance = KMWBaseGraph(
        graph=graph,
        description=f"bipartite-regular(side={side}, degree={degree}, seed={seed})",
    )
    # Random matchings can collide on small instances, leaving m < n; patch by
    # adding deterministic wrap-around matchings until m >= n (each adds at
    # most one edge per node, so the graph stays near-regular).
    offset = 1
    while not instance.has_enough_edges and offset < side:
        for index in range(side):
            graph.add_edge(left[index], right[(index + offset) % side])
        offset += 1
    return instance


def layered_cluster_tree_graph(levels: int, degree: int) -> KMWBaseGraph:
    """Return a layered, cluster-tree-shaped bipartite base graph.

    Level ``0`` has one node; every node of level ``i`` is joined to
    ``degree`` fresh nodes of level ``i+1``.  Consecutive levels alternate
    sides, so the graph is bipartite.  A perfect matching inside the last
    level pair is *not* added (it would break bipartiteness); instead each
    deepest-level node is joined to ``degree`` distinct nodes of the previous
    level (wrapping around), which raises ``m`` to at least ``n``.
    """
    if levels < 2 or degree < 2:
        raise ValueError("need levels >= 2 and degree >= 2")
    graph = nx.Graph()
    previous: List = [("level0", 0)]
    graph.add_node(previous[0])
    for level in range(1, levels + 1):
        current = []
        for parent_index, parent in enumerate(previous):
            for child_index in range(degree):
                child = (f"level{level}", parent_index * degree + child_index)
                graph.add_node(child)
                graph.add_edge(parent, child)
                current.append(child)
        previous = current
    # Extra edges between the last two levels (wrapping) to push m above n
    # while keeping the graph bipartite (the two levels are on opposite sides).
    last = previous
    before_last = [node for node in graph.nodes() if node[0] == f"level{levels - 1}"]
    for index, node in enumerate(last):
        for offset in range(1, degree):
            target = before_last[(index // degree + offset) % len(before_last)]
            graph.add_edge(node, target)
    return KMWBaseGraph(
        graph=graph,
        description=f"layered-cluster-tree(levels={levels}, degree={degree})",
    )
