#!/usr/bin/env python
"""Quickstart: a five-minute tour of the public API.

Run with::

    python examples/quickstart.py

It builds a small bounded-arboricity graph, runs the paper's deterministic
and randomized algorithms plus the classic greedy baseline through the
unified execution API (``repro.RunSpec`` + ``repro.execute`` /
``repro.Session``), verifies every output, and prints a comparison table.
"""

from __future__ import annotations

import repro
from repro.analysis.opt import estimate_opt
from repro.analysis.tables import format_table
from repro.baselines.greedy import greedy_dominating_set
from repro.graphs.arboricity import arboricity
from repro.graphs.generators import forest_union_graph
from repro.graphs.validation import is_dominating_set
from repro.graphs.weights import assign_random_weights


def main() -> None:
    # 1. Build a graph with arboricity at most 3 (a union of three random
    #    spanning trees) and assign random integer node weights.
    graph = forest_union_graph(n=150, alpha=3, seed=42)
    assign_random_weights(graph, low=1, high=50, seed=7)
    alpha = arboricity(graph)
    print(f"graph: n={graph.number_of_nodes()} m={graph.number_of_edges()} "
          f"max_degree={max(dict(graph.degree()).values())} arboricity={alpha}")

    # 2. A certified lower bound on the optimum (exact for this size).
    opt = estimate_opt(graph)
    print(f"optimum ({opt.kind}): {opt.value:.0f}\n")

    # 3. Run the algorithms: declare *what* to run as RunSpecs and execute
    #    them through one Session, which compiles the graph (network, CSR
    #    adjacency, certified arboricity bound) once and reuses it per run.
    session = repro.Session()
    deterministic = session.run(
        repro.RunSpec(graph=graph, algorithm="weighted",
                      params={"epsilon": 0.2}, alpha=alpha)
    )
    randomized = session.run(
        repro.RunSpec(graph=graph, algorithm="randomized",
                      params={"t": 2}, alpha=alpha, seed=1)
    )
    greedy_set, greedy_weight = greedy_dominating_set(graph)

    # 4. Everything is verified: validity, weight, rounds, guarantees.
    rows = [
        {
            "algorithm": deterministic.algorithm,
            "weight": deterministic.weight,
            "ratio": deterministic.weight / opt.value,
            "guarantee": deterministic.guarantee,
            "CONGEST rounds": deterministic.rounds,
        },
        {
            "algorithm": randomized.algorithm,
            "weight": randomized.weight,
            "ratio": randomized.weight / opt.value,
            "guarantee": randomized.guarantee,
            "CONGEST rounds": randomized.rounds,
        },
        {
            "algorithm": "centralized-greedy (baseline)",
            "weight": greedy_weight,
            "ratio": greedy_weight / opt.value,
            "guarantee": None,
            "CONGEST rounds": None,
        },
    ]
    print(format_table(rows))

    assert deterministic.is_valid and randomized.is_valid
    assert is_dominating_set(graph, greedy_set)
    print("\nall outputs verified to be dominating sets")

    # 5. The "deterministic" algorithm dispatches to the Section 3 warm-up
    #    when every weight is one; repro.execute is the one-shot form of a
    #    Session run.
    unweighted = forest_union_graph(n=150, alpha=3, seed=43)
    result = repro.execute(
        repro.RunSpec(graph=unweighted, algorithm="deterministic",
                      params={"epsilon": 0.2}, alpha=3)
    )
    print(f"\nunweighted run: |S|={len(result)} rounds={result.rounds} "
          f"guarantee={result.guarantee:.2f} valid={result.is_valid}")

    # 6. This exact workload is also registered in the scenario registry as
    #    "example/quickstart", so the orchestration layer can run it too --
    #    with verification, caching and parallelism for free:
    #
    #        python -m repro run example/quickstart
    #
    from repro.orchestration import get_scenario

    records = get_scenario("example/quickstart").run(seed=0)
    print("\nvia the scenario registry (python -m repro run example/quickstart):")
    for record in records:
        print(f"  {record.params['solver_label']}: weight={record.weight:.0f} "
              f"ratio={record.ratio:.3f} rounds={record.rounds}")


if __name__ == "__main__":
    main()
