"""Unified execution API: declarative run specs and compiled sessions.

This package is the single front door for executing the paper's algorithms
(and the registered baselines) on a graph:

* :class:`~repro.run.spec.RunSpec` -- a typed, declarative description of
  one execution: the graph (prebuilt, or a registry :class:`GraphSpec` to
  materialise), optional weights, the algorithm plus its parameters, the
  simulation engine, an optional fault model, the seed, the validation
  policy and the simulator budget knobs.
* :class:`~repro.run.session.Session` -- compiles once, runs many.  Graph
  canonicalisation (the certified arboricity bound, the weighted/unweighted
  dispatch), the network with its CSR adjacency layout, the payload-bit
  memo and the fault-session scaffolding are built a single time per graph
  and reused across multi-seed / multi-algorithm batches via
  :meth:`~repro.run.session.Session.run` and
  :meth:`~repro.run.session.Session.run_many` (a streaming iterator with
  optional process-pool fan-out).
* :func:`~repro.run.session.execute` -- the module-level one-shot, also
  re-exported as :func:`repro.execute`.

Every execution returns a :class:`DominatingSetResult`; a one-shot
:func:`execute` and a reused :class:`Session` produce byte-identical
results, which ``tests/run/test_parity_grid.py`` enforces across the full
algorithm x graph-family grid.

One-shot::

    import repro
    result = repro.execute(repro.RunSpec(graph=g, algorithm="deterministic",
                                         params={"epsilon": 0.2}))

Compiled batch::

    with repro.Session(engine="batched") as session:
        spec = repro.RunSpec(graph=g, algorithm="randomized", params={"t": 2})
        for result in session.run_many(base=spec, seeds=range(16)):
            print(result.weight, result.rounds)
"""

from repro.run.algorithms import (
    ALGORITHMS,
    AlgorithmRecipe,
    ResolvedRun,
    available_algorithms,
    register_algorithm,
    registry_lookup,
    resolve_algorithm,
)
from repro.run.result import DominatingSetResult, package_result, result_bytes
from repro.run.session import CompiledGraph, Session, execute
from repro.run.spec import RunSpec
from repro.run.wire import WireFormatError

__all__ = [
    "ALGORITHMS",
    "AlgorithmRecipe",
    "CompiledGraph",
    "DominatingSetResult",
    "ResolvedRun",
    "RunSpec",
    "Session",
    "WireFormatError",
    "available_algorithms",
    "execute",
    "package_result",
    "register_algorithm",
    "registry_lookup",
    "resolve_algorithm",
    "result_bytes",
]
