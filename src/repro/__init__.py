"""Reproduction of "Near-Optimal Distributed Dominating Set in Bounded
Arboricity Graphs" (Dory, Ghaffari, Ilchi; PODC 2022).

The package is organised as follows:

* :mod:`repro.graphs`        -- graph substrate: arboricity, orientations, generators.
* :mod:`repro.congest`       -- synchronous CONGEST/LOCAL message-passing simulator.
* :mod:`repro.core`          -- the paper's algorithms (Theorems 1.1, 1.2, 1.3, 3.1,
  Remarks 4.4/4.5, Observation A.1) implemented as distributed algorithms.
* :mod:`repro.run`           -- the unified execution API: :class:`RunSpec`,
  :class:`Session`, :func:`execute`.
* :mod:`repro.faults`        -- adversarial network conditions (crashes, omission,
  latency, churn) applied inside the simulation engines.
* :mod:`repro.baselines`     -- every comparator the paper discusses (greedy,
  Lenzen--Wattenhofer, KMW, Bansal--Umboh, Morgan--Solomon--Wein, Sun, exact, LP).
* :mod:`repro.lowerbound`    -- the Theorem 1.4 / Figure 1 lower-bound construction
  and the dominating-set -> fractional-vertex-cover reduction.
* :mod:`repro.analysis`      -- verification, OPT estimation and experiment harness.
* :mod:`repro.orchestration` -- scenario registry, cached parallel sweeps, CLI.

Quickstart (one-shot)::

    import repro
    from repro.graphs import forest_union_graph

    graph = forest_union_graph(n=200, alpha=3, seed=1)
    result = repro.execute(repro.RunSpec(graph=graph, algorithm="deterministic",
                                         params={"epsilon": 0.2}, alpha=3))
    assert result.is_valid

Quickstart (compiled batch, fast engine, faults)::

    spec = repro.RunSpec(graph=graph, algorithm="randomized", params={"t": 2},
                         engine="batched", faults="lossy10")
    with repro.Session() as session:
        results = list(session.run_many(base=spec, seeds=range(8)))

The per-algorithm ``solve_*`` helpers of the 1.x releases are gone: every
one of them is a named algorithm of :data:`repro.run.ALGORITHMS`, run
through the API above.
"""

from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.faults import FAULT_MODELS, AdversarialEngine, FaultPlan, FaultSpec
from repro.run import DominatingSetResult, RunSpec, Session, execute

__version__ = "2.0.0"

__all__ = [
    # unified execution API
    "RunSpec",
    "Session",
    "execute",
    "DominatingSetResult",
    # metrics
    "RunMetrics",
    "RoundMetrics",
    # fault injection entry points
    "FaultPlan",
    "FaultSpec",
    "FAULT_MODELS",
    "AdversarialEngine",
    "__version__",
]
