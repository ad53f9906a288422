"""Certified verification of algorithm runs.

The paper's theorems make three kinds of claims per algorithm: the output is
a dominating set, its weight is within a stated factor of OPT, and the number
of CONGEST rounds is bounded.  :func:`verify_run` checks all three for a
concrete execution and returns a :class:`VerificationReport`; the test-suite
and the benchmark harness are both built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import networkx as nx

from repro.analysis.opt import OptEstimate, estimate_opt
from repro.run import DominatingSetResult
from repro.core.packing import is_feasible_packing, packing_from_outputs, packing_value_sum
from repro.graphs.validation import is_dominating_set

__all__ = ["VerificationReport", "approximation_ratio", "verify_run"]


def approximation_ratio(weight: float, opt_value: float) -> float:
    """Return ``weight / opt_value`` guarding against degenerate optima."""
    if opt_value <= 0:
        return 1.0 if weight <= 0 else float("inf")
    return weight / opt_value


@dataclass
class VerificationReport:
    """Everything a test or a benchmark wants to assert about one run."""

    algorithm: str
    is_dominating: bool
    weight: float
    opt: OptEstimate
    ratio: float
    guarantee: Optional[float]
    within_guarantee: Optional[bool]
    rounds: int
    packing_feasible: Optional[bool]
    packing_sum: Optional[float]
    dual_bound_holds: Optional[bool]

    def summary(self) -> str:
        guarantee = "-" if self.guarantee is None else f"{self.guarantee:.2f}"
        return (
            f"{self.algorithm}: weight={self.weight:.0f} opt[{self.opt.kind}]="
            f"{self.opt.value:.2f} ratio={self.ratio:.3f} guarantee={guarantee} "
            f"rounds={self.rounds}"
        )


def verify_run(
    graph: nx.Graph,
    result: DominatingSetResult,
    opt: Optional[OptEstimate] = None,
    check_packing: bool = True,
) -> VerificationReport:
    """Verify a :class:`DominatingSetResult` against the graph and OPT.

    ``opt`` may be passed in to avoid recomputing it when many algorithms run
    on the same instance.  ``check_packing`` additionally validates the
    primal-dual certificate (only meaningful for the paper's algorithms whose
    outputs carry ``x_partial``).
    """
    if opt is None:
        opt = estimate_opt(graph)
    dominating = is_dominating_set(graph, result.dominating_set)
    ratio = approximation_ratio(result.weight, opt.value)
    within = None
    if result.guarantee is not None:
        # Ratios measured against an LP lower bound are upper bounds on the
        # true ratio, so comparing them to the guarantee stays conservative.
        within = ratio <= result.guarantee + 1e-9

    packing_feasible = None
    packing_sum = None
    dual_bound_holds = None
    if check_packing and result.outputs:
        sample = next(iter(result.outputs.values()))
        if isinstance(sample, Mapping) and "x_partial" in sample:
            packing = packing_from_outputs(result.outputs, key="x_partial")
            packing_feasible = is_feasible_packing(graph, packing)
            packing_sum = packing_value_sum(packing)
            dual_bound_holds = packing_sum <= opt.value + 1e-6

    return VerificationReport(
        algorithm=result.algorithm,
        is_dominating=dominating,
        weight=float(result.weight),
        opt=opt,
        ratio=ratio,
        guarantee=result.guarantee,
        within_guarantee=within,
        rounds=result.rounds,
        packing_feasible=packing_feasible,
        packing_sum=packing_sum,
        dual_bound_holds=dual_bound_holds,
    )
