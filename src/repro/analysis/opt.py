"""OPT estimation policy.

Every approximation-ratio measurement needs a denominator.  The policy
(also summarised in the README, "OPT estimation") is:

* up to :data:`EXACT_THRESHOLD` nodes -- solve the instance exactly with the
  MILP solver, so the reported ratio is the true ratio;
* above the threshold -- use the dominating set LP optimum, which is a lower
  bound on OPT; ratios measured against it are *upper bounds* on the true
  ratio, i.e. conservative for the purpose of checking the paper's
  guarantees.

The estimate records which of the two was used so tables can annotate it.
Both solvers are scipy's HiGHS, imported on the first solve (see
:mod:`repro.baselines.lp`); :func:`degree_lower_bound` needs neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import networkx as nx

from repro.baselines.exact import exact_minimum_weight_dominating_set
from repro.baselines.lp import lp_dominating_set_lower_bound

__all__ = ["EXACT_THRESHOLD", "OptEstimate", "estimate_opt", "degree_lower_bound"]

#: Default node-count threshold below which the exact solver is used.
EXACT_THRESHOLD = 220


@dataclass
class OptEstimate:
    """A lower bound on OPT together with how it was obtained."""

    value: float
    exact: bool
    optimal_set: Optional[Set] = None
    method: Optional[str] = None

    @property
    def kind(self) -> str:
        if self.method is not None:
            return self.method
        return "exact" if self.exact else "lp-lower-bound"


def estimate_opt(
    graph: nx.Graph,
    exact_threshold: int = EXACT_THRESHOLD,
    force_exact: bool = False,
    force_lp: bool = False,
) -> OptEstimate:
    """Return the OPT estimate for ``graph`` under the policy above."""
    if force_exact and force_lp:
        raise ValueError("cannot force both exact and LP estimation")
    use_exact = force_exact or (
        not force_lp and graph.number_of_nodes() <= exact_threshold
    )
    if use_exact:
        optimal_set, weight = exact_minimum_weight_dominating_set(graph)
        return OptEstimate(value=float(weight), exact=True, optimal_set=optimal_set)
    return OptEstimate(value=lp_dominating_set_lower_bound(graph), exact=False)


def degree_lower_bound(graph: nx.Graph) -> OptEstimate:
    """Return the O(1)-time counting lower bound ``n / (Delta + 1)``.

    A node dominates itself and at most ``Delta`` neighbours, so any
    dominating set has at least ``n / (Delta + 1)`` members; with positive
    integer node weights (weight at least one everywhere, the convention of
    :mod:`repro.graphs.weights`) the same quantity lower-bounds the weight.
    Far looser than the LP bound, but free -- the scale experiments use it
    where even solving the LP would dominate the run (see the scenario
    registry's ``opt_mode="degree"``).
    """
    n = graph.number_of_nodes()
    if n == 0:
        return OptEstimate(value=0.0, exact=True, method="degree-lower-bound")
    max_degree = max(dict(graph.degree()).values(), default=0)
    return OptEstimate(
        value=max(1.0, n / (max_degree + 1)),
        exact=False,
        method="degree-lower-bound",
    )
