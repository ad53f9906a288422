"""One-shot ``execute`` vs reused ``Session``: byte-identical, grid-enforced.

Two execution paths must agree bit for bit for every (algorithm, family)
cell: the one-shot :func:`repro.execute` and a *reused* compiled
:class:`repro.Session` (each session runs its spec twice and both runs must
match, proving network reuse -- rebind + reseed + shared layout -- is
observationally invisible).

The default grid covers every one of the seven public algorithms on four
seeded families under both engines; the full 7-algorithm x 8-family grid
runs under ``pytest -m slow``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro import RunSpec, Session, execute
from repro.graphs.generators import (
    caterpillar_graph,
    forest_union_graph,
    grid_graph,
    outerplanar_graph,
    planar_triangulation_graph,
    preferential_attachment_graph,
    random_tree,
)
from repro.graphs.weights import assign_random_weights
from repro.run.result import result_bytes

#: ``name -> (builder, alpha)``; the same eight families the engine-parity
#: grid uses (four fast, four more under ``-m slow``).
FAMILIES = {
    "tree": (lambda size, seed: random_tree(size, seed=seed), 1),
    "grid": (lambda size, seed: grid_graph(5, max(2, size // 5)), 2),
    "forest-union": (lambda size, seed: forest_union_graph(size, alpha=3, seed=seed), 3),
    "ba": (lambda size, seed: preferential_attachment_graph(size, attachment=3, seed=seed), 3),
}

SLOW_FAMILIES = {
    "planar": (lambda size, seed: planar_triangulation_graph(size, seed=seed), 3),
    "outerplanar": (lambda size, seed: outerplanar_graph(size, seed=seed), 2),
    "caterpillar": (lambda size, seed: caterpillar_graph(max(2, size // 4), legs_per_node=3), 1),
    "gnp": (lambda size, seed: nx.gnp_random_graph(size, 0.15, seed=seed), None),
}

#: The seven public algorithms:
#: ``name -> (RunSpec fields, weighted?, uses alpha?)``.
SOLVERS = {
    "deterministic": ({"algorithm": "deterministic", "params": {"epsilon": 0.2}}, True, True),
    "weighted": ({"algorithm": "weighted", "params": {"epsilon": 0.2}}, True, True),
    "randomized": ({"algorithm": "randomized", "params": {"t": 2}}, False, True),
    "general": ({"algorithm": "general", "params": {"k": 2}}, False, False),
    "forest": ({"algorithm": "forest"}, False, False),
    "unknown-degree": ({"algorithm": "unknown-degree", "params": {"epsilon": 0.2}}, True, True),
    "unknown-arboricity": (
        {"algorithm": "unknown-arboricity", "params": {"epsilon": 0.25}},
        True,
        False,
    ),
}


def _check_cell(solver_key, family, size, seed):
    spec_fields, weighted, uses_alpha = SOLVERS[solver_key]
    builder, alpha = family
    graph = builder(size, seed)
    if weighted:
        assign_random_weights(graph, 1, 25, seed=seed + 1)
    # alpha=None exercises the degeneracy-resolution path.
    session = Session()
    for engine in ("reference", "batched"):
        spec = RunSpec(
            graph=graph,
            alpha=alpha if uses_alpha else None,
            seed=seed,
            engine=engine,
            **spec_fields,
        )
        one_shot = execute(spec)
        first = session.run(spec)
        again = session.run(spec)  # reused network: must not drift

        label = f"{solver_key}/{engine}"
        assert result_bytes(first) == result_bytes(one_shot), label
        assert result_bytes(again) == result_bytes(one_shot), label


@pytest.mark.parametrize("solver_key", sorted(SOLVERS))
@pytest.mark.parametrize("family_key", sorted(FAMILIES))
def test_reused_session_matches_execute(family_key, solver_key):
    _check_cell(solver_key, FAMILIES[family_key], size=40, seed=13)


@pytest.mark.slow
@pytest.mark.parametrize("solver_key", sorted(SOLVERS))
@pytest.mark.parametrize("family_key", sorted({**FAMILIES, **SLOW_FAMILIES}))
@pytest.mark.parametrize("seed", [1, 29])
def test_reused_session_matches_execute_full_grid(family_key, solver_key, seed):
    families = {**FAMILIES, **SLOW_FAMILIES}
    _check_cell(solver_key, families[family_key], size=52, seed=seed)
