"""Built-in scenarios: the paper's E1-E11 experiments, the example workloads,
and extra graph families that widen coverage beyond the paper's tables.

Everything here is *declarative*: a scenario is graphs x solvers plus an OPT
policy, registered once under a stable name.  The benchmark files
(``benchmarks/test_e*.py``) look their workloads up here instead of
re-declaring them, and ``python -m repro`` exposes the same registry from the
command line.

Naming convention: ``<experiment-or-group>/<short-name>``; tags group
scenarios for bulk selection (``--tag smoke``, ``--tag families``, ...).

Seeds: scenarios reproducing a specific benchmark table pin their graph (and
weight) seeds to :data:`BENCH_SEED` -- the sweep cell's seed then only drives
the solvers, matching the original benchmark's "fixed workload, averaged
solver randomness" semantics.  Scenarios exploring a family leave seeds
unpinned so every sweep cell sees a fresh instance.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults import FAULT_MODELS, FaultSpec
from repro.graphs.generators import STANDARD_SCALES
from repro.orchestration.registry import (
    GraphSpec,
    ScenarioSpec,
    SolverSpec,
    WeightSpec,
    register_scenario,
)

__all__ = ["BENCH_SEED", "standard_suite_specs", "register_builtin_scenarios"]

#: The fixed seed the benchmark harness has always used (the paper's year).
BENCH_SEED = 2022


def standard_suite_specs(
    scale: str = "tiny", weights: Optional[WeightSpec] = None
) -> List[GraphSpec]:
    """GraphSpecs mirroring :func:`repro.graphs.generators.standard_test_suite`."""
    size = STANDARD_SCALES[scale]
    rows, cols = size["grid"]
    suffix = "" if weights is None else f"[{weights.scheme}]"
    return [
        GraphSpec("random-tree", {"n": size["tree"]}, name=f"random-tree{suffix}",
                  alpha=1, weights=weights),
        GraphSpec("caterpillar", {"spine": max(4, size["tree"] // 4), "legs_per_node": 3},
                  name=f"caterpillar{suffix}", alpha=1, weights=weights),
        GraphSpec("grid", {"rows": rows, "cols": cols}, name=f"grid{suffix}",
                  alpha=2, weights=weights),
        GraphSpec("outerplanar", {"n": size["outer"]}, name=f"outerplanar{suffix}",
                  alpha=2, weights=weights),
        GraphSpec("planar-triangulation", {"n": size["planar"]},
                  name=f"planar-triangulation{suffix}", alpha=3, weights=weights),
        GraphSpec("forest-union", {"n": size["forest_union"], "alpha": 3},
                  name=f"forest-union-alpha3{suffix}", alpha=3, weights=weights),
        GraphSpec("forest-union", {"n": size["forest_union"], "alpha": 5},
                  name=f"forest-union-alpha5{suffix}", alpha=5, weights=weights,
                  seed_offset=1),
        GraphSpec("preferential-attachment", {"n": size["ba"], "attachment": 4},
                  name=f"preferential-attachment{suffix}", alpha=4, weights=weights),
    ]


def _experiment_scenarios() -> List[ScenarioSpec]:
    scenarios = [
        ScenarioSpec(
            name="E1/unweighted-eps",
            experiment="E1",
            description="Theorem 3.1: unweighted (2a+1)(1+eps) approximation, eps sweep "
                        "over the standard families.",
            graphs=standard_suite_specs("tiny"),
            solvers=[
                SolverSpec("deterministic", label=f"eps={eps}", params={"epsilon": eps})
                for eps in (0.1, 0.3, 0.5)
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E2/weighted-schemes",
            experiment="E2",
            description="Theorem 1.1: weighted approximation across four weight schemes.",
            graphs=[
                spec
                for scheme in (
                    WeightSpec("random", {"low": 1, "high": 100}),
                    WeightSpec("degree"),
                    WeightSpec("inverse-degree", {"scale": 100}),
                    WeightSpec("adversarial", {"expensive_fraction": 0.4, "expensive": 500}),
                )
                for spec in standard_suite_specs("tiny", weights=scheme)
            ],
            solvers=[SolverSpec("weighted", label="theorem-1.1", params={"epsilon": 0.2})],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E3/randomized-t",
            experiment="E3",
            description="Theorem 1.2: randomized alpha + O(alpha/t) approximation, t sweep; "
                        "graphs pinned to the benchmark seed, solver seeded per cell.",
            graphs=[
                GraphSpec("forest-union", {"n": 250, "alpha": 5}, name="forest-union-a5",
                          alpha=5, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 50}, seed=BENCH_SEED)),
                GraphSpec("preferential-attachment", {"n": 350, "attachment": 4},
                          name="pref-attach-a4", alpha=4, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 50}, seed=BENCH_SEED)),
            ],
            solvers=[
                SolverSpec("randomized", label=f"t={t}", params={"t": t}) for t in (1, 2, 4)
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E4/general-k",
            experiment="E4",
            description="Theorem 1.3: O(k * Delta^(2/k)) approximation on general graphs, "
                        "k sweep (the KMW LP baseline stays in the benchmark file).",
            graphs=[
                GraphSpec("gnp", {"n": 150, "p": 0.08}, name="gnp(150,0.08)", seed=BENCH_SEED),
                GraphSpec("star-of-cliques", {"clique_count": 12, "clique_size": 6},
                          name="star-of-cliques(12x6)"),
            ],
            solvers=[
                SolverSpec("general", label=f"k={k}", params={"k": k}) for k in (1, 2, 3)
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E5/lower-bound",
            experiment="E5",
            description="Theorem 1.4 / Figure 1: run Theorem 1.1 on the lower-bound graphs H "
                        "(structural certificates and the DS->MFVC reduction stay in the "
                        "benchmark file and examples/lower_bound_construction.py).",
            graphs=[
                GraphSpec("kmw-lower-bound", {"side": side, "degree": degree},
                          name=f"kmw-H-{side}x{degree}", alpha=2,
                          seed=BENCH_SEED, seed_offset=side)
                for side, degree in ((6, 3), (10, 4), (14, 5))
            ],
            solvers=[SolverSpec("deterministic", label="theorem-1.1(eps=0.3)",
                                params={"epsilon": 0.3})],
            opt_mode="degree",
            tags=("paper", "benchmark", "lowerbound", "example"),
        ),
        ScenarioSpec(
            name="E6/forests",
            experiment="E6",
            description="Observation A.1: single-round forest 3-approximation vs Theorem 1.1.",
            graphs=[
                GraphSpec("random-tree", {"n": 200}, name="random-tree-200", alpha=1),
                GraphSpec("random-tree", {"n": 800}, name="random-tree-800", alpha=1,
                          seed_offset=1),
                GraphSpec("caterpillar", {"spine": 60, "legs_per_node": 3},
                          name="caterpillar-60x3", alpha=1),
                GraphSpec("random-forest", {"n": 300, "tree_count": 6},
                          name="random-forest-300", alpha=1, seed_offset=2),
            ],
            solvers=[
                SolverSpec("forest", label="forest-trivial"),
                SolverSpec("deterministic", label="theorem-1.1", params={"epsilon": 0.2}),
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E7/unknown-params",
            experiment="E7",
            description="Remarks 4.4/4.5: unknown Delta and unknown alpha next to the "
                        "full-knowledge algorithm on the same weighted instances.",
            graphs=[
                GraphSpec("forest-union", {"n": 150, "alpha": 3}, name="forest-union-a3-150",
                          alpha=3, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 60}, seed=BENCH_SEED)),
                GraphSpec("preferential-attachment", {"n": 200, "attachment": 4},
                          name="pref-attach-a4-200", alpha=4, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 60}, seed=BENCH_SEED)),
            ],
            solvers=[
                SolverSpec("weighted", label="full knowledge (Thm 1.1)",
                           params={"epsilon": 0.2}),
                SolverSpec("unknown-degree", label="unknown Delta (Rem 4.4)",
                           params={"epsilon": 0.2}),
                SolverSpec("unknown-arboricity", label="unknown alpha (Rem 4.5)",
                           params={"epsilon": 0.25}),
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E8/comparison",
            experiment="E8",
            description="Sections 1.1-1.2: the paper's algorithms vs the distributed "
                        "baselines on a high-Delta, low-alpha social graph "
                        "(centralized baselines stay in the benchmark file).",
            graphs=[
                GraphSpec("preferential-attachment", {"n": 500, "attachment": 4},
                          name="pref-attach-500", alpha=4, seed=BENCH_SEED),
            ],
            solvers=[
                SolverSpec("deterministic", label="this paper deterministic (Thm 1.1)",
                           params={"epsilon": 0.2}),
                SolverSpec("randomized", label="this paper randomized (Thm 1.2)",
                           params={"t": 2}),
                SolverSpec("lw-deterministic", label="LW'10-style deterministic O(a logD)"),
                SolverSpec("lw-randomized", label="LW'10-style randomized O(a^2)"),
                SolverSpec("msw-combinatorial",
                           label="combinatorial alpha-baseline (MSW stand-in)"),
            ],
            tags=("paper", "benchmark"),
        ),
        ScenarioSpec(
            name="E9/scaling",
            experiment="E9",
            description="Round-complexity scaling: flat in n (grids at fixed Delta) and "
                        "logarithmic in Delta (caterpillars with growing legs).",
            graphs=[
                GraphSpec("grid", {"rows": r, "cols": c}, name=f"grid-{r}x{c}", alpha=2)
                for r, c in ((5, 6), (12, 12), (25, 25), (40, 40))
            ] + [
                GraphSpec("caterpillar", {"spine": 12, "legs_per_node": legs},
                          name=f"caterpillar-12x{legs}", alpha=1)
                for legs in (2, 8, 32, 128)
            ],
            solvers=[SolverSpec("deterministic", label="eps=0.2", params={"epsilon": 0.2})],
            opt_mode="degree",
            tags=("paper", "benchmark", "scale"),
        ),
        ScenarioSpec(
            name="E9/eps-sweep",
            experiment="E9",
            description="Round-complexity scaling: linear in 1/eps on a fixed caterpillar.",
            graphs=[
                GraphSpec("caterpillar", {"spine": 12, "legs_per_node": 32},
                          name="caterpillar-12x32", alpha=1),
            ],
            solvers=[
                SolverSpec("deterministic", label=f"eps={eps}", params={"epsilon": eps})
                for eps in (0.4, 0.2, 0.1, 0.05)
            ],
            opt_mode="degree",
            tags=("paper", "benchmark", "scale"),
        ),
        ScenarioSpec(
            name="E10/lambda-ablation",
            experiment="E10",
            description="Ablation of the Theorem 1.1 lambda threshold: the paper's choice "
                        "vs /10 and /100 (the no-freeze ablation stays in the benchmark).",
            graphs=[
                GraphSpec("forest-union", {"n": 180, "alpha": 3}, name="forest-union-180",
                          alpha=3, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 50}, seed=BENCH_SEED)),
            ],
            solvers=[
                SolverSpec("weighted-lambda-scaled", label=label,
                           params={"epsilon": 0.2, "lambda_scale": scale})
                for label, scale in (
                    ("paper lambda", 1.0),
                    ("lambda / 10", 0.1),
                    ("lambda / 100", 0.01),
                )
            ],
            tags=("paper", "benchmark", "ablation"),
        ),
        ScenarioSpec(
            name="E11/engine",
            experiment="E11",
            description="The engine-speedup workload (timing itself lives in "
                        "benchmarks/test_e11_engine_speedup.py; as a scenario this runs the "
                        "same instances under whichever engine the sweep selects).",
            graphs=[
                GraphSpec("preferential-attachment", {"n": 800, "attachment": 6},
                          name="ba-800-deg6", alpha=6, seed=BENCH_SEED),
                GraphSpec("grid", {"rows": 40, "cols": 40}, name="grid-40x40", alpha=2),
                GraphSpec("caterpillar", {"spine": 12, "legs_per_node": 128},
                          name="caterpillar-12x128", alpha=1),
                GraphSpec("preferential-attachment", {"n": 2500, "attachment": 32},
                          name="ba-2500-deg32", alpha=32, seed=BENCH_SEED,
                          weights=WeightSpec("random", {"low": 1, "high": 30}, seed=11)),
            ],
            solvers=[SolverSpec("deterministic", label="theorem-1.1", params={"epsilon": 0.2})],
            opt_mode="degree",
            tags=("paper", "benchmark", "engine", "heavy"),
        ),
    ]
    return scenarios


def _example_scenarios() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="example/quickstart",
            experiment="EX-quickstart",
            description="The quickstart workload: weighted forest union, deterministic vs "
                        "randomized (examples/quickstart.py).",
            graphs=[
                GraphSpec("forest-union", {"n": 150, "alpha": 3}, name="forest-union-150",
                          alpha=3, seed=42,
                          weights=WeightSpec("random", {"low": 1, "high": 50}, seed=7)),
            ],
            solvers=[
                SolverSpec("weighted", label="deterministic (Thm 1.1)", params={"epsilon": 0.2}),
                SolverSpec("randomized", label="randomized (Thm 1.2)", params={"t": 2}),
            ],
            tags=("example",),
        ),
        ScenarioSpec(
            name="example/planar-city",
            experiment="EX-city",
            description="Facility placement on planar road networks with degree-based "
                        "construction costs (examples/planar_city_network.py).",
            graphs=[
                GraphSpec("planar-triangulation", {"n": n}, name=f"city-{n}", alpha=3,
                          seed=seed, weights=WeightSpec("degree", {"base": 5}))
                for n, seed in ((120, 1), (250, 2), (500, 3), (900, 4))
            ],
            solvers=[
                SolverSpec("weighted", label="facility-placement", params={"epsilon": 0.25}),
            ],
            tags=("example",),
        ),
        ScenarioSpec(
            name="example/social-influence",
            experiment="EX-social",
            description="Influence seeding on a preferential-attachment graph against the "
                        "distributed baselines (examples/social_network_influence.py).",
            graphs=[
                GraphSpec("preferential-attachment", {"n": 600, "attachment": 4},
                          name="social-600", alpha=4, seed=3),
            ],
            solvers=[
                SolverSpec("deterministic", label="this paper, deterministic (Thm 1.1)",
                           params={"epsilon": 0.2}),
                SolverSpec("randomized", label="this paper, randomized (Thm 1.2)",
                           params={"t": 2}, seed_offset=1),
                SolverSpec("lw-deterministic", label="Lenzen-Wattenhofer style, deterministic"),
                SolverSpec("lw-randomized", label="Lenzen-Wattenhofer style, randomized",
                           seed_offset=2),
                SolverSpec("msw-combinatorial", label="combinatorial alpha-baseline"),
            ],
            tags=("example",),
        ),
        ScenarioSpec(
            name="example/adhoc-wireless",
            experiment="EX-wireless",
            description="Cluster-head election on random-geometric deployment graphs with "
                        "battery costs (examples/adhoc_wireless_clustering.py).",
            graphs=[
                GraphSpec("random-geometric", {"n": 150, "radius": 0.14},
                          name="deployment-150", seed=1,
                          weights=WeightSpec("degree", {"base": 3})),
                GraphSpec("random-geometric", {"n": 300, "radius": 0.10},
                          name="deployment-300", seed=2,
                          weights=WeightSpec("degree", {"base": 3})),
            ],
            solvers=[
                SolverSpec("weighted", label="cluster-heads deterministic",
                           params={"epsilon": 0.25}),
                SolverSpec("randomized", label="cluster-heads randomized", params={"t": 2}),
            ],
            tags=("example",),
        ),
    ]


def _family_scenarios() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="families/powerlaw-cluster",
            experiment="FAM-plc",
            description="Holme-Kim power-law cluster graphs: heavy-tailed degrees plus "
                        "community structure at certified arboricity <= attachment.",
            graphs=[
                GraphSpec("powerlaw-cluster", {"n": 400, "attachment": 4, "triangle_p": 0.3},
                          name="plc-400-a4", alpha=4),
            ],
            solvers=[
                SolverSpec("deterministic", label="deterministic", params={"epsilon": 0.2}),
                SolverSpec("randomized", label="randomized", params={"t": 2}),
            ],
            tags=("families",),
        ),
        ScenarioSpec(
            name="families/random-geometric",
            experiment="FAM-rgg",
            description="Random geometric (unit-disk-like) graphs; alpha certified at build "
                        "time from the degeneracy.",
            graphs=[
                GraphSpec("random-geometric", {"n": 350, "radius": 0.09}, name="rgg-350"),
            ],
            solvers=[
                SolverSpec("deterministic", label="deterministic", params={"epsilon": 0.2}),
                SolverSpec("randomized", label="randomized", params={"t": 2}),
            ],
            tags=("families",),
        ),
        ScenarioSpec(
            name="families/grid-scale",
            experiment="FAM-grid",
            description="Grids with and without diagonals at benchmark scale; the free "
                        "counting OPT bound keeps the cells cheap.",
            graphs=[
                GraphSpec("grid", {"rows": 40, "cols": 40}, name="grid-40x40", alpha=2),
                GraphSpec("grid", {"rows": 30, "cols": 30, "diagonal": True},
                          name="grid-diag-30x30", alpha=3),
            ],
            solvers=[
                SolverSpec("deterministic", label="deterministic", params={"epsilon": 0.2}),
            ],
            opt_mode="degree",
            tags=("families", "scale"),
        ),
    ]


#: The graph each fault sweep runs on, per family knob.
_FAULT_BA = GraphSpec(
    "preferential-attachment", {"n": 250, "attachment": 4}, name="ba-250", alpha=4
)
_FAULT_GRID = GraphSpec("grid", {"rows": 15, "cols": 15}, name="grid-15x15", alpha=2)
_FAULT_RGG = GraphSpec(
    "random-geometric", {"n": 200, "radius": 0.12}, name="rgg-200", alpha=8
)

_FAULT_SOLVERS = [
    SolverSpec("deterministic", label="deterministic", params={"epsilon": 0.2}),
    SolverSpec("randomized", label="randomized", params={"t": 2}),
]


def _fault_scenario(
    name: str,
    description: str,
    graph: GraphSpec,
    faults: FaultSpec,
    extra_tags: tuple = (),
) -> ScenarioSpec:
    """One cell of the algorithm x family x fault-model grid.

    Fault scenarios use the free counting OPT bound: under an adversary the
    interesting measurements are degradation (non-dominating outputs,
    inflated weight/rounds, drop/delay volume), not tight approximation
    ratios, and the cheap bound keeps the three-dimensional grid tractable.
    """
    return ScenarioSpec(
        name=name,
        experiment="FAULTS",
        description=description,
        graphs=[graph],
        solvers=list(_FAULT_SOLVERS),
        opt_mode="degree",
        faults=faults,
        tags=("faults",) + extra_tags,
    )


def _fault_scenarios() -> List[ScenarioSpec]:
    """The built-in adversarial grid: crash sweeps, lossy-link sweeps, churn.

    Every scenario leaves the fault seed unpinned, so each sweep cell faces
    a fresh adversary drawn from the same regime; the schedule is still
    deterministic in the cell seed (and identical across engines and
    processes -- the ``--smoke`` parity gate runs one of these cells under
    both engines).
    """
    scenarios = [
        _fault_scenario(
            f"faults/{model}-ba",
            f"Crash-stop sweep on preferential attachment: the {model!r} regime "
            "crashes a fraction of the nodes at round 2, never to recover.",
            _FAULT_BA,
            FAULT_MODELS[model],
        )
        for model in ("crash5", "crash15", "crash30")
    ]
    scenarios += [
        _fault_scenario(
            f"faults/{model}-grid",
            f"Lossy-link sweep on the 15x15 grid: the {model!r} regime drops "
            "each message independently per link.",
            _FAULT_GRID,
            FAULT_MODELS[model],
        )
        for model in ("lossy2", "lossy10", "lossy25")
    ]
    scenarios += [
        _fault_scenario(
            "faults/lossy10-ba",
            "10% per-link message loss on the preferential-attachment graph "
            "(heavy-tailed degrees meet omission faults).",
            _FAULT_BA,
            FAULT_MODELS["lossy10"],
        ),
        _fault_scenario(
            "faults/crash-recover-rgg",
            "Crash-recover on the geometric deployment graph: 20% of nodes are "
            "down for rounds 2-5, then resume with their state intact.",
            _FAULT_RGG,
            FAULT_MODELS["crash-recover"],
        ),
        _fault_scenario(
            "faults/latency-rgg",
            "Straggler links on the geometric deployment graph: every message "
            "is delayed by 0-2 extra whole rounds, uniformly per link draw.",
            _FAULT_RGG,
            FAULT_MODELS["latency2"],
        ),
        _fault_scenario(
            "faults/churn-ba",
            "Topology churn on preferential attachment: 15% of the edges are "
            "down in any 4-round window, rotating every epoch.",
            _FAULT_BA,
            FAULT_MODELS["churn"],
        ),
        _fault_scenario(
            "faults/churn-grid",
            "Topology churn on the 15x15 grid (low edge redundancy makes the "
            "grid the family most sensitive to missing links).",
            _FAULT_GRID,
            FAULT_MODELS["churn"],
        ),
        _fault_scenario(
            "faults/churn-rgg",
            "Topology churn on the geometric deployment graph (radio links "
            "flapping every 4 rounds).",
            _FAULT_RGG,
            FAULT_MODELS["churn"],
        ),
        _fault_scenario(
            "faults/chaos-ba",
            "Everything at once on preferential attachment: crash-recover "
            "windows, 5% omission, 0-1 round latency, and 10% edge churn.",
            _FAULT_BA,
            FAULT_MODELS["chaos"],
        ),
    ]
    return scenarios


def _smoke_scenarios() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="smoke/forest",
            experiment="SMOKE",
            description="CI smoke cell: a tiny tree under the deterministic algorithm and "
                        "the single-round forest rule, exact OPT.",
            graphs=[GraphSpec("random-tree", {"n": 36}, name="tree-36", alpha=1)],
            solvers=[
                SolverSpec("deterministic", label="eps=0.3", params={"epsilon": 0.3}),
                SolverSpec("forest", label="forest-trivial"),
            ],
            tags=("smoke",),
        ),
        ScenarioSpec(
            name="smoke/mixed",
            experiment="SMOKE",
            description="CI smoke cell: a small grid and a small preferential-attachment "
                        "graph under deterministic and randomized solvers.",
            graphs=[
                GraphSpec("grid", {"rows": 5, "cols": 6}, name="grid-5x6", alpha=2),
                GraphSpec("preferential-attachment", {"n": 40, "attachment": 3},
                          name="ba-40", alpha=3),
            ],
            solvers=[
                SolverSpec("deterministic", label="eps=0.3", params={"epsilon": 0.3}),
                SolverSpec("randomized", label="t=1", params={"t": 1}),
            ],
            tags=("smoke",),
        ),
        ScenarioSpec(
            name="smoke/faults",
            experiment="SMOKE",
            description="CI smoke cell: a small preferential-attachment graph under a "
                        "mixed fault plan (crash-recover + lossy links + latency); the "
                        "--smoke gate byte-compares the record stream across engines, "
                        "which pins down the vectorized fault path against the "
                        "per-delivery oracle path.",
            graphs=[
                GraphSpec("preferential-attachment", {"n": 48, "attachment": 3},
                          name="ba-48", alpha=3),
            ],
            solvers=[
                SolverSpec("deterministic", label="eps=0.3", params={"epsilon": 0.3}),
                SolverSpec("randomized", label="t=1", params={"t": 1}),
            ],
            opt_mode="degree",
            faults=FaultSpec(
                crash_fraction=0.15,
                crash_at=2,
                recover_after=3,
                drop_probability=0.08,
                latency_max=1,
                label="smoke-mixed",
            ),
            tags=("smoke", "faults"),
        ),
    ]


_REGISTERED = False


def register_builtin_scenarios(replace: bool = False) -> None:
    """Register every built-in scenario; idempotent across repeat calls."""
    global _REGISTERED
    if _REGISTERED and not replace:
        return
    for spec in (
        _experiment_scenarios()
        + _example_scenarios()
        + _family_scenarios()
        + _fault_scenarios()
        + _smoke_scenarios()
    ):
        register_scenario(spec, replace=replace)
    _REGISTERED = True
