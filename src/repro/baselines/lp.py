"""Linear programming relaxations of dominating set and vertex cover.

Two relaxations are used throughout the reproduction:

* the **fractional dominating set** LP,
  ``min sum_v w_v x_v  s.t.  sum_{u in N+(v)} x_u >= 1 for every v,  x >= 0``,
  whose optimum lower-bounds the weight of every dominating set; the
  approximation ratios reported by the benchmark harness on graphs too large
  for the exact solver are measured against this bound (and are therefore
  upper bounds on the true ratios); and

* the **fractional vertex cover** LP,
  ``min sum_v x_v  s.t.  x_u + x_v >= 1 for every edge``,
  which is the problem the Theorem 1.4 reduction converts dominating sets
  into.

Both are solved with scipy's HiGHS backend, imported on the first solve
rather than when this module loads.  None of the paper's algorithms solves
an LP, yet this module is on the import path of every sweep, CLI and serve
process (through the OPT policy in :mod:`repro.analysis.opt`); a
module-level import would cost each of them about 40 MiB and half a second.
:func:`load_lp_solver` imports the stack up front: the sweep runner calls it
before forking workers that will estimate OPT, so they inherit it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import networkx as nx
import numpy as np

from repro.graphs.weights import node_weight

__all__ = [
    "fractional_dominating_set_lp",
    "fractional_vertex_cover_lp",
    "load_lp_solver",
    "lp_dominating_set_lower_bound",
]


def load_lp_solver() -> None:
    """Import scipy's LP/MILP stack (``scipy.optimize`` and ``scipy.sparse``)
    now rather than at the first solve."""
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401


def fractional_dominating_set_lp(graph: nx.Graph) -> Tuple[Dict[Hashable, float], float]:
    """Solve the fractional weighted dominating set LP.

    Returns ``(solution, value)`` where ``solution`` maps each node to its
    fractional value and ``value`` is the LP optimum.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return {}, 0.0
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    index = {node: position for position, node in enumerate(nodes)}
    n = len(nodes)
    weights = np.array([node_weight(graph, node) for node in nodes], dtype=float)

    # Constraint: for every v, -sum_{u in N+(v)} x_u <= -1.
    matrix = lil_matrix((n, n))
    for node in nodes:
        row = index[node]
        matrix[row, index[node]] = -1.0
        for neighbor in graph.neighbors(node):
            matrix[row, index[neighbor]] = -1.0
    result = linprog(
        c=weights,
        A_ub=matrix.tocsr(),
        b_ub=-np.ones(n),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not result.success:  # pragma: no cover - HiGHS handles these LPs reliably
        raise RuntimeError(f"dominating set LP failed: {result.message}")
    solution = {node: float(result.x[index[node]]) for node in nodes}
    return solution, float(result.fun)


def lp_dominating_set_lower_bound(graph: nx.Graph) -> float:
    """Return the LP lower bound on the minimum weight dominating set."""
    _, value = fractional_dominating_set_lp(graph)
    return value


def fractional_vertex_cover_lp(graph: nx.Graph) -> Tuple[Dict[Hashable, float], float]:
    """Solve the (unweighted) fractional vertex cover LP.

    Used by the lower bound experiments: the Theorem 1.4 reduction turns a
    dominating set of the constructed graph ``H`` into a fractional vertex
    cover of the base graph ``G``, and this LP provides the reference optimum
    ``OPT_MFVC`` the reduction is measured against.
    """
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    if not nodes:
        return {}, 0.0
    index = {node: position for position, node in enumerate(nodes)}
    n, m = len(nodes), len(edges)
    if m == 0:
        return {node: 0.0 for node in nodes}, 0.0
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    matrix = lil_matrix((m, n))
    for row, (u, v) in enumerate(edges):
        matrix[row, index[u]] = -1.0
        matrix[row, index[v]] = -1.0
    result = linprog(
        c=np.ones(n),
        A_ub=matrix.tocsr(),
        b_ub=-np.ones(m),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not result.success:  # pragma: no cover
        raise RuntimeError(f"vertex cover LP failed: {result.message}")
    solution = {node: float(result.x[index[node]]) for node in nodes}
    return solution, float(result.fun)
