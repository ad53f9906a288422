"""Fault injection and dynamic topology for the CONGEST simulator.

The idealized simulator executes synchronous, fault-free rounds on a static
graph.  This subpackage stresses the paper's algorithms under adversarial
network conditions instead:

* :mod:`repro.faults.plan`    -- declarative :class:`FaultPlan`: crash-stop /
  crash-recover node faults, per-link omission probability, per-link
  whole-round latency distributions, and scheduled edge churn;
* :mod:`repro.faults.session` -- the compiled runtime applied inside both
  engines' round loops (vectorized for the batched engine);
* :mod:`repro.faults.engine`  -- :class:`AdversarialEngine`, the wrapper
  usable anywhere an ``engine=`` is accepted;
* :mod:`repro.faults.spec`    -- graph-agnostic :class:`FaultSpec` regimes
  for the scenario registry, plus the :data:`FAULT_MODELS` catalogue behind
  the CLI's ``--faults`` flag.

Guarantees (enforced by ``tests/faults/``): an empty plan is byte-identical
to a plain engine run on both engines; a non-empty plan is deterministic in
``(plan, network, seed)`` across repeated runs, across processes, and across
engines.

Quickstart::

    import repro
    from repro.faults import FaultSpec
    from repro.graphs import random_geometric_graph

    graph = random_geometric_graph(150, radius=0.14, seed=1)
    faults = FaultSpec(crash_fraction=0.2, crash_at=2, recover_after=4,
                       drop_probability=0.05)
    result = repro.execute(repro.RunSpec(graph=graph, algorithm="deterministic",
                                         params={"epsilon": 0.2}, faults=faults))
    print(result.metrics.summary())
"""

from repro.faults.engine import AdversarialEngine
from repro.faults.plan import ChurnEvent, CrashFault, FaultPlan, LinkFault
from repro.faults.session import FaultSession
from repro.faults.spec import FAULT_MODELS, FaultSpec, fault_model

__all__ = [
    "AdversarialEngine",
    "ChurnEvent",
    "CrashFault",
    "FaultPlan",
    "LinkFault",
    "FaultSession",
    "FaultSpec",
    "FAULT_MODELS",
    "fault_model",
]
