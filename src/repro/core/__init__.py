"""The paper's algorithms: distributed dominating set in bounded arboricity graphs.

Module map (paper section -> module):

* Section 2 (packing values, weak duality)  -> :mod:`repro.core.packing`
* Lemma 3.2 / Lemma 4.1 (partial dominating set) -> :mod:`repro.core.partial`
* Theorem 3.1 (unweighted warm-up)          -> :mod:`repro.core.unweighted`
* Theorem 1.1 (deterministic, weighted)     -> :mod:`repro.core.weighted`
* Lemma 4.6 + Theorem 1.2 (randomized)      -> :mod:`repro.core.randomized`
* Theorem 1.3 (general graphs)              -> :mod:`repro.core.general_graphs`
* Remarks 4.4 / 4.5 (unknown Delta / alpha) -> :mod:`repro.core.unknown_params`
* Observation A.1 (forests)                 -> :mod:`repro.core.trees`

The algorithms run through :class:`repro.RunSpec` / :func:`repro.execute`.
"""

from repro.core.general_graphs import GeneralGraphMDSAlgorithm
from repro.core.packing import (
    certified_lower_bound,
    is_feasible_packing,
    packing_from_outputs,
    packing_value_sum,
)
from repro.core.partial import PartialDominatingSet, PrimalDualBase, partial_iteration_count, theorem11_lambda
from repro.core.randomized import Lemma46Extension, RandomizedMDSAlgorithm, theorem12_parameters
from repro.core.trees import ForestMDSAlgorithm
from repro.core.unknown_params import UnknownArboricityMDSAlgorithm, UnknownDegreeMDSAlgorithm
from repro.core.unweighted import UnweightedMDSAlgorithm
from repro.core.weighted import WeightedMDSAlgorithm

__all__ = [
    "ForestMDSAlgorithm",
    "GeneralGraphMDSAlgorithm",
    "Lemma46Extension",
    "PartialDominatingSet",
    "PrimalDualBase",
    "RandomizedMDSAlgorithm",
    "UnknownArboricityMDSAlgorithm",
    "UnknownDegreeMDSAlgorithm",
    "UnweightedMDSAlgorithm",
    "WeightedMDSAlgorithm",
    "certified_lower_bound",
    "is_feasible_packing",
    "packing_from_outputs",
    "packing_value_sum",
    "partial_iteration_count",
    "theorem11_lambda",
    "theorem12_parameters",
]
