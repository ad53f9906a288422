"""Large-scale graph families streamed straight into CSR form.

The dict-based :class:`networkx.Graph` (plus the per-node
:class:`~repro.congest.node.NodeContext` objects a
:class:`~repro.congest.network.Network` builds on top of it) is what caps
the batched engine around a few thousand nodes.  The generators here build
the paper's scale families -- preferential attachment, grids, random
geometric graphs -- directly as :class:`CSRGraph` arrays, the native input
of the kernel execution tier (``engine="kernel"``): a 10^5-node instance is
two ``int64`` arrays, not 10^5 Python objects.

A :class:`CSRGraph` is a valid ``RunSpec.graph``; the
:class:`~repro.run.session.Session` recognises it and executes through the
algorithm kernels without ever materialising a network.  For differential
testing at moderate sizes, :meth:`CSRGraph.to_networkx` and
:func:`csr_from_networkx` convert losslessly in both directions
(property-tested in ``tests/congest/test_kernel_primitives.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "CSRGraph",
    "csr_from_edges",
    "csr_from_networkx",
    "large_preferential_attachment",
    "large_grid",
    "large_random_geometric",
    "random_integer_weights",
    "csr_degeneracy",
    "csr_is_dominating_set",
]


@dataclass(eq=False)
class CSRGraph:
    """An undirected graph as CSR arrays; node ids are ``0 .. n-1``.

    ``indices[indptr[i]:indptr[i+1]]`` lists node ``i``'s neighbors sorted
    ascending -- the same canonical order the engines' inbox semantics are
    defined against.  ``weights`` is an optional ``int64`` array (``None``
    means unit weights); ``alpha`` is a certified arboricity upper bound
    when the construction provides one (``None`` falls back to a degeneracy
    computation at run time).

    ``eq=False``: like :class:`networkx.Graph`, instances compare (and
    hash) by identity -- the generated field-tuple ``__eq__`` would raise
    on the ndarray fields and would make a frozen ``RunSpec`` holding a
    CSR graph unhashable.
    """

    def __getstate__(self):
        # The cached KernelGrid (CSR copies, edge index, repr arrays) is
        # derived state rebuilt on demand; shipping it with every pickled
        # RunSpec would triple the per-worker IPC payload at scale.
        state = dict(self.__dict__)
        state.pop("_kernel_grid", None)
        return state

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "csr-graph"
    alpha: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr must have length n + 1")
        if self.weights is not None and len(self.weights) != self.n:
            raise ValueError("weights must have one entry per node")

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def is_unweighted(self) -> bool:
        return self.weights is None or bool((self.weights == 1).all())

    def weight_array(self) -> np.ndarray:
        """Node weights as an ``int64`` array (ones when unweighted)."""
        if self.weights is None:
            return np.ones(self.n, dtype=np.int64)
        return self.weights

    def number_of_nodes(self) -> int:  # Graph-like sugar for reporting code
        return self.n

    def number_of_edges(self) -> int:
        return self.m

    def nodes(self) -> range:
        """Node ids in canonical order (Graph-like sugar).

        Matches ``to_networkx().nodes()``, so graph-agnostic samplers such
        as :meth:`repro.faults.spec.FaultSpec.materialize` draw identical
        victims on either representation.
        """
        return range(self.n)

    def edges(self):
        """The ``u < v`` edge list as tuples, in ``to_networkx()`` order."""
        u, v = self.edge_arrays()
        return list(zip(u.tolist(), v.tolist()))

    def edge_arrays(self):
        """The ``u < v`` edge list as two aligned ``int64`` arrays."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return src[keep], self.indices[keep]

    def to_networkx(self):
        """Materialise as a :class:`networkx.Graph` (for differential tests).

        Inverse of :func:`csr_from_networkx`; weights (when present) become
        ``"weight"`` node attributes.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        u, v = self.edge_arrays()
        graph.add_edges_from(zip(u.tolist(), v.tolist()))
        if self.weights is not None:
            for node, weight in enumerate(self.weights.tolist()):
                graph.nodes[node]["weight"] = weight
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.n}, m={self.m}, "
            f"max_degree={self.max_degree}, alpha={self.alpha})"
        )


def csr_from_edges(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    weights: Optional[np.ndarray] = None,
    name: str = "csr-graph",
    alpha: Optional[int] = None,
    params: Optional[Dict[str, object]] = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an edge list (one entry per edge).

    Self-loops and duplicate edges are rejected -- the CONGEST network
    model requires a simple graph, and silent deduplication would desync a
    generator's certified ``alpha`` from what it actually built.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if (u == v).any():
        raise ValueError("self-loops are not allowed")
    source = np.concatenate([u, v])
    destination = np.concatenate([v, u])
    order = np.lexsort((destination, source))
    source, destination = source[order], destination[order]
    if len(source) and (
        (source[1:] == source[:-1]) & (destination[1:] == destination[:-1])
    ).any():
        raise ValueError("duplicate edges are not allowed")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
    return CSRGraph(
        n=n,
        indptr=indptr,
        indices=destination,
        weights=weights,
        name=name,
        alpha=alpha,
        params=dict(params or {}),
    )


def csr_from_networkx(graph) -> CSRGraph:
    """Convert a :class:`networkx.Graph` with nodes ``0..n-1`` to CSR.

    Node weights are read from the ``"weight"`` attribute; a graph whose
    node set is not exactly ``range(n)`` is rejected (CSR node ids are
    positional).
    """
    n = graph.number_of_nodes()
    if set(graph.nodes()) != set(range(n)):
        raise ValueError("csr_from_networkx requires consecutive integer node ids 0..n-1")
    if graph.number_of_edges():
        edges = np.asarray(list(graph.edges()), dtype=np.int64)
        u, v = edges[:, 0], edges[:, 1]
    else:
        u = v = np.empty(0, dtype=np.int64)
    weight_list = [graph.nodes[node].get("weight", 1) for node in range(n)]
    for node, weight in enumerate(weight_list):
        # The conversion is documented as lossless: casting 2.7 -> 2 (or
        # 0.5 -> 0, breaking the positive-weight invariant) would silently
        # change the instance, so non-integral weights are rejected.
        if weight != int(weight) or weight < 1:
            raise ValueError(
                f"node {node} has weight {weight!r}; CSRGraph weights must be "
                "positive integers (the Section 2 convention)"
            )
    weights = None
    if any(weight != 1 for weight in weight_list):
        weights = np.asarray(weight_list, dtype=np.int64)
    return csr_from_edges(n, u, v, weights=weights, name="from-networkx")


# ---------------------------------------------------------------------------
# Streaming generators
# ---------------------------------------------------------------------------


def large_preferential_attachment(
    n: int, attachment: int = 4, seed: int = 0
) -> CSRGraph:
    """A Barabasi--Albert graph built edge-array-first.

    Same process as :func:`repro.graphs.generators.preferential_attachment_graph`
    (each arriving node attaches to ``attachment`` distinct existing nodes,
    sampled proportionally to degree via the repeated-endpoints trick), but
    it only ever touches preallocated ``int64`` arrays -- no adjacency
    dicts -- so 10^5-node instances build in a couple of seconds.  The
    arrival orientation certifies arboricity at most ``attachment``.
    """
    if attachment < 1:
        raise ValueError("attachment must be at least 1")
    if n <= attachment:
        raise ValueError("need n > attachment nodes for preferential attachment")
    rng = np.random.default_rng(seed)
    edge_count = attachment * (n - attachment)
    sources = np.empty(edge_count, dtype=np.int64)
    destinations = np.empty(edge_count, dtype=np.int64)
    # Every edge endpoint, repeated once per incidence: sampling an index
    # uniformly from the filled prefix is degree-proportional sampling.
    repeated = np.empty(2 * edge_count, dtype=np.int64)
    targets = np.arange(attachment, dtype=np.int64)
    filled = 0
    written = 0
    for node in range(attachment, n):
        sources[written : written + attachment] = node
        destinations[written : written + attachment] = targets
        written += attachment
        repeated[filled : filled + attachment] = targets
        filled += attachment
        repeated[filled : filled + attachment] = node
        filled += attachment
        picks: set = set()
        while len(picks) < attachment:
            draws = repeated[rng.integers(0, filled, size=attachment - len(picks))]
            picks.update(draws.tolist())
        targets = np.fromiter(picks, dtype=np.int64, count=attachment)
    return csr_from_edges(
        n,
        sources,
        destinations,
        name=f"large-ba-{n}",
        alpha=attachment,
        params={"n": n, "attachment": attachment, "seed": seed},
    )


def large_grid(rows: int, cols: int, diagonal: bool = False) -> CSRGraph:
    """A ``rows x cols`` grid (arboricity <= 2, or 3 with diagonals)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    labels = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    chunks_u = [labels[:, :-1].ravel(), labels[:-1, :].ravel()]
    chunks_v = [labels[:, 1:].ravel(), labels[1:, :].ravel()]
    if diagonal:
        chunks_u.append(labels[:-1, :-1].ravel())
        chunks_v.append(labels[1:, 1:].ravel())
    return csr_from_edges(
        rows * cols,
        np.concatenate(chunks_u),
        np.concatenate(chunks_v),
        name=f"large-grid-{rows}x{cols}",
        alpha=3 if diagonal else 2,
        params={"rows": rows, "cols": cols, "diagonal": diagonal},
    )


def large_random_geometric(n: int, radius: float, seed: int = 0) -> CSRGraph:
    """A unit-square random geometric graph via a KD-tree range query.

    No a-priori arboricity certificate exists for this family, so ``alpha``
    is left ``None`` -- run-time consumers fall back to
    :func:`csr_degeneracy`, the same certified bound the dict-based path
    computes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    if n:
        pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
        u, v = pairs[:, 0], pairs[:, 1]
    else:
        u = v = np.empty(0, dtype=np.int64)
    return csr_from_edges(
        n,
        u,
        v,
        name=f"large-rgg-{n}",
        alpha=None,
        params={"n": n, "radius": radius, "seed": seed},
    )


def random_integer_weights(
    csr_graph: CSRGraph, low: int = 1, high: int = 100, seed: int = 0
) -> CSRGraph:
    """Return a copy of ``csr_graph`` with uniform integer weights.

    The CSR arrays are shared (they are immutable by convention); only the
    weight vector is new.  Mirrors
    :func:`repro.graphs.weights.assign_random_weights` semantics -- positive
    integers in ``[low, high]`` -- using the NumPy generator so drawing
    10^5 weights stays array-speed.
    """
    if low < 1 or high < low:
        raise ValueError("need 1 <= low <= high")
    rng = np.random.default_rng(seed)
    weights = rng.integers(low, high + 1, size=csr_graph.n, dtype=np.int64)
    return CSRGraph(
        n=csr_graph.n,
        indptr=csr_graph.indptr,
        indices=csr_graph.indices,
        weights=weights,
        name=f"{csr_graph.name}[random-weights]",
        alpha=csr_graph.alpha,
        params={**csr_graph.params, "weights": f"random[{low},{high}]", "weight_seed": seed},
    )


# ---------------------------------------------------------------------------
# CSR-native analysis
# ---------------------------------------------------------------------------


def csr_degeneracy(csr_graph: CSRGraph) -> int:
    """The peeling number (degeneracy) computed with array sweeps.

    Repeatedly strips every node of residual degree ``<= k`` for increasing
    ``k``; the largest ``k`` that removes anything is the degeneracy --
    a certified arboricity upper bound, matching
    :func:`repro.graphs.arboricity.degeneracy` (property-tested).  Each
    sweep is one segment reduction, so the cost is ``O(m)`` per peel level
    rather than per node.
    """
    n = csr_graph.n
    if n == 0:
        return 0
    from repro.congest.kernels.csr import segment_sum

    indptr, indices = csr_graph.indptr, csr_graph.indices
    residual = csr_graph.degrees.astype(np.int64, copy=True)
    alive = np.ones(n, dtype=bool)
    degeneracy = 0
    level = 0
    while alive.any():
        removed_any = False
        while True:
            removable = alive & (residual <= level)
            if not removable.any():
                break
            removed_any = True
            alive &= ~removable
            residual -= segment_sum(indptr, removable[indices].astype(np.int64))
        if removed_any:
            degeneracy = level
        level += 1
    return degeneracy


def csr_is_dominating_set(csr_graph: CSRGraph, selected) -> bool:
    """Whether ``selected`` (a node-id set or boolean mask) dominates: marks
    the selected rows' neighbors, in ``O(n + sum of their degrees)``."""
    mask = np.zeros(csr_graph.n, dtype=bool)
    if isinstance(selected, np.ndarray) and selected.dtype == bool:
        mask |= selected
    else:
        for node in selected:
            mask[int(node)] = True
    from repro.congest.kernels.csr import slice_positions

    rows = np.flatnonzero(mask)
    positions = slice_positions(csr_graph.indptr[rows], csr_graph.degrees[rows])
    mask[csr_graph.indices[positions]] = True
    return bool(mask.all())
