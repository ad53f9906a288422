"""The experiment harness used by the benchmarks and the example scripts.

The benchmarks (one per experiment in DESIGN.md's per-experiment index) all
follow the same shape: build a workload of graph instances, run one or more
algorithms on each, verify every run, and report "paper claim vs measured"
rows.  This module centralises the shared pieces so each benchmark file only
declares *what* to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import networkx as nx

from repro.analysis.opt import OptEstimate, estimate_opt
from repro.analysis.verify import VerificationReport, verify_run
from repro.run import DominatingSetResult
from repro.graphs.generators import GraphInstance

__all__ = [
    "ExperimentRecord",
    "run_algorithm_on_instance",
    "sweep",
    "aggregate_records",
]

#: A solver is any callable mapping a graph instance to a DominatingSetResult,
#: e.g. ``lambda inst: repro.execute(repro.RunSpec(graph=inst.graph,
#: algorithm="deterministic", alpha=inst.alpha))``.
Solver = Callable[[GraphInstance], DominatingSetResult]


@dataclass
class ExperimentRecord:
    """One (algorithm, instance) measurement with its verification."""

    experiment: str
    algorithm: str
    instance: str
    n: int
    m: int
    max_degree: int
    alpha: int
    weight: float
    rounds: int
    ratio: float
    opt_value: float
    opt_kind: str
    guarantee: Optional[float]
    within_guarantee: Optional[bool]
    is_dominating: bool
    params: Dict[str, object] = field(default_factory=dict)
    # Message-complexity telemetry from RunMetrics (0 when the solver's
    # result carries no metrics, e.g. centralized baselines).  Deliberately
    # not in as_row(): tables keep their fixed columns, the scaling plots
    # read these directly.
    messages: int = 0
    total_bits: int = 0

    def as_row(self) -> Dict[str, object]:
        """Flatten into a plain dict for table rendering."""
        row = {
            "experiment": self.experiment,
            "algorithm": self.algorithm,
            "instance": self.instance,
            "n": self.n,
            "m": self.m,
            "Delta": self.max_degree,
            "alpha": self.alpha,
            "weight": round(self.weight, 2),
            "rounds": self.rounds,
            "ratio": round(self.ratio, 3),
            "opt": round(self.opt_value, 2),
            "opt_kind": self.opt_kind,
            "guarantee": None if self.guarantee is None else round(self.guarantee, 2),
            "ok": self.is_dominating and (self.within_guarantee in (True, None)),
        }
        row.update(self.params)
        return row


def run_algorithm_on_instance(
    experiment: str,
    instance: GraphInstance,
    solver: Solver,
    opt: Optional[OptEstimate] = None,
    params: Optional[Mapping[str, object]] = None,
) -> ExperimentRecord:
    """Run ``solver`` on ``instance``, verify it, and package a record."""
    result = solver(instance)
    if opt is None:
        opt = estimate_opt(instance.graph)
    report: VerificationReport = verify_run(instance.graph, result, opt=opt)
    metrics = getattr(result, "metrics", None)
    return ExperimentRecord(
        experiment=experiment,
        algorithm=result.algorithm,
        instance=instance.name,
        n=instance.n,
        m=instance.m,
        max_degree=instance.max_degree,
        alpha=instance.alpha,
        weight=float(result.weight),
        rounds=result.rounds,
        ratio=report.ratio,
        opt_value=report.opt.value,
        opt_kind=report.opt.kind,
        guarantee=result.guarantee,
        within_guarantee=report.within_guarantee,
        is_dominating=report.is_dominating,
        params=dict(params or {}),
        messages=0 if metrics is None else int(metrics.total_messages),
        total_bits=0 if metrics is None else int(metrics.total_bits),
    )


def sweep(
    experiment: str,
    instances: Iterable[GraphInstance],
    solvers: Mapping[str, Solver],
    share_opt: bool = True,
    params_for: Optional[Callable[[str, GraphInstance], Mapping[str, object]]] = None,
    opt_for: Optional[Callable[[nx.Graph], OptEstimate]] = None,
) -> List[ExperimentRecord]:
    """Run every solver on every instance and return the records.

    ``share_opt=True`` computes the OPT estimate once per instance and reuses
    it across solvers, which is what the comparison experiments want.
    ``opt_for`` overrides the OPT estimation policy (the default is
    :func:`repro.analysis.opt.estimate_opt`); the scenario registry uses it
    to select cheaper bounds for scale experiments.
    """
    estimator = opt_for or estimate_opt
    records: List[ExperimentRecord] = []
    for instance in instances:
        opt = estimator(instance.graph) if share_opt else None
        for label, solver in solvers.items():
            params = dict(params_for(label, instance)) if params_for else {}
            params.setdefault("solver_label", label)
            records.append(
                run_algorithm_on_instance(
                    experiment, instance, solver, opt=opt, params=params
                )
            )
    return records


def aggregate_records(records: Sequence[ExperimentRecord]) -> Dict[str, Dict[str, float]]:
    """Aggregate records per algorithm: mean/max ratio, mean/max rounds, failures.

    Returns ``{algorithm: {"runs", "mean_ratio", "max_ratio", "mean_rounds",
    "max_rounds", "violations"}}``; a violation is a run that either is not a
    dominating set or exceeds its stated guarantee.
    """
    grouped: Dict[str, List[ExperimentRecord]] = {}
    for record in records:
        grouped.setdefault(record.algorithm, []).append(record)
    summary: Dict[str, Dict[str, float]] = {}
    for algorithm, group in grouped.items():
        ratios = [record.ratio for record in group]
        rounds = [record.rounds for record in group]
        violations = sum(
            1
            for record in group
            if not record.is_dominating or record.within_guarantee is False
        )
        summary[algorithm] = {
            "runs": len(group),
            "mean_ratio": sum(ratios) / len(ratios),
            "max_ratio": max(ratios),
            "mean_rounds": sum(rounds) / len(rounds),
            "max_rounds": max(rounds),
            "violations": violations,
        }
    return summary
