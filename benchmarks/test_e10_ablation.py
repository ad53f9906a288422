"""E10 -- ablations of the design choices of the Theorem 1.1 algorithm.

Three ablations:

1. **lambda selection** (Theorem 1.1 uses lambda = 1/((2a+1)(1+eps))): sweep
   lambda and show that the paper's choice balances the partial-set cost
   against the extension cost -- much smaller lambda pushes all the work to
   the extension, much larger lambda is infeasible for the analysis.
2. **Packing-value freezing**: the algorithm freezes x_v when v becomes
   dominated.  We re-run with freezing disabled (an intentionally broken
   variant) and show the packing constraint gets violated, i.e. the
   certificate that drives the approximation proof is lost.
3. **Partial phase vs extension**: how much weight each phase contributes at
   the paper's parameter choice.

The phase-weight breakdown and the intentionally-broken variant need the
algorithm's raw per-node outputs, so this file stays hand-rolled; the plain
lambda sweep is registered as scenario ``E10/lambda-ablation`` for the CLI.
"""

from __future__ import annotations

from repro.analysis.opt import estimate_opt
from repro.analysis.tables import format_table
from repro.congest.simulator import run_algorithm
from repro.core.packing import is_feasible_packing, packing_from_outputs
from repro.core.partial import theorem11_lambda
from repro.core.weighted import WeightedMDSAlgorithm
from repro.graphs.generators import forest_union_graph
from repro.graphs.validation import dominating_set_weight
from repro.graphs.weights import assign_random_weights


class _NoFreezeWeightedMDS(WeightedMDSAlgorithm):
    """Broken-on-purpose variant: keeps raising x_v even after domination."""

    name = "ablation-no-freeze"

    def _apply_increase_if_undominated(self, node):
        node.state["x"] *= 1.0 + self.epsilon
        node.state["increase_count"] += 1


def _run(seed):
    alpha = 3
    epsilon = 0.2
    graph = forest_union_graph(180, alpha=alpha, seed=seed)
    assign_random_weights(graph, 1, 50, seed=seed)
    opt = estimate_opt(graph)
    rows = []

    # Ablation 1: lambda sweep.
    paper_lambda = theorem11_lambda(alpha, epsilon)
    for label, lam in [
        ("paper lambda", paper_lambda),
        ("lambda / 10", paper_lambda / 10),
        ("lambda / 100", paper_lambda / 100),
        ("lambda * 2 (outside Lemma 4.1 range)", paper_lambda * 2),
    ]:
        algorithm = WeightedMDSAlgorithm(epsilon=epsilon, lambda_value=lam)
        result = run_algorithm(graph, algorithm, alpha=alpha, seed=seed)
        selected = result.selected_nodes()
        outputs = result.outputs
        partial_weight = sum(
            graph.nodes[node].get("weight", 1)
            for node, out in outputs.items()
            if out["in_partial"]
        )
        rows.append(
            {
                "ablation": "lambda sweep",
                "variant": label,
                "total weight": dominating_set_weight(graph, selected),
                "ratio": round(dominating_set_weight(graph, selected) / opt.value, 3),
                "partial-set weight": partial_weight,
                "extension weight": dominating_set_weight(graph, selected) - partial_weight,
                "packing feasible": is_feasible_packing(graph, packing_from_outputs(outputs)),
                "rounds": result.rounds,
            }
        )

    # Ablation 2: freezing disabled.
    broken = run_algorithm(graph, _NoFreezeWeightedMDS(epsilon=epsilon), alpha=alpha, seed=seed)
    rows.append(
        {
            "ablation": "no freezing (broken)",
            "variant": "x_v keeps growing after domination",
            "total weight": dominating_set_weight(graph, broken.selected_nodes()),
            "ratio": round(dominating_set_weight(graph, broken.selected_nodes()) / opt.value, 3),
            "partial-set weight": None,
            "extension weight": None,
            "packing feasible": is_feasible_packing(graph, packing_from_outputs(broken.outputs)),
            "rounds": broken.rounds,
        }
    )
    return rows


def test_e10_ablations(benchmark, record_experiment, bench_seed):
    rows = benchmark.pedantic(_run, args=(bench_seed,), rounds=1, iterations=1)
    lambda_rows = [row for row in rows if row["ablation"] == "lambda sweep"]
    paper_row = next(row for row in lambda_rows if row["variant"] == "paper lambda")
    # The paper's lambda keeps the packing feasible and the ratio within the guarantee.
    assert paper_row["packing feasible"]
    assert paper_row["ratio"] <= 7 * 1.2
    # Tiny lambda shifts (almost) all the weight to the extension phase.
    tiny = next(row for row in lambda_rows if row["variant"] == "lambda / 100")
    assert tiny["partial-set weight"] <= paper_row["partial-set weight"]
    # The no-freeze variant loses the primal-dual certificate.
    broken = next(row for row in rows if row["ablation"] == "no freezing (broken)")
    assert not broken["packing feasible"]
    record_experiment(
        "E10",
        "Ablations: lambda selection, packing-value freezing, phase contributions",
        format_table(rows),
    )
    benchmark.extra_info["rows"] = len(rows)
