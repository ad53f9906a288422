"""Compile-once, run-many execution sessions.

A one-shot execution rebuilds everything per call: the degeneracy bound,
the :class:`~repro.congest.network.Network` (one ``NodeContext`` per node),
the engines' CSR adjacency layout, the payload-bit memo and -- under a
fault model -- the fault session's per-edge arrays.  A :class:`Session`
builds each of those exactly once per graph and reuses them across every
run that shares the graph, whatever the seed, algorithm or fault model:

* **graph canonicalisation** -- the certified arboricity (degeneracy)
  bound, the weighted/unweighted dispatch and the maximum degree are
  computed lazily, once;
* **network reuse** -- one compiled :class:`Network` is re-targeted per run
  (:meth:`Network.rebind` swaps the globally-known config,
  :meth:`Network.reset` rewinds every node's private random stream to the
  run's seed), producing executions byte-identical to a freshly built
  network;
* **adjacency + memo reuse** -- the engines and the fault runtime read the
  network's cached :class:`~repro.congest.network.NetworkLayout` (CSR
  arrays, degree vector, payload-bit memo), so none of it is rebuilt;
* **fault plans** -- a :class:`~repro.faults.spec.FaultSpec` (or named
  model) is materialised once per ``(regime, seed)``; the most recent
  plans are cached.

``Session.run_many`` streams results as they complete and can fan the batch
out across worker processes (reusing the orchestration runner's pool
machinery); a parallel batch is byte-identical to a serial one.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.congest.engine import EngineSpec, get_default_engine, get_engine
from repro.congest.network import Network
from repro.congest.simulator import Simulator
from repro.graphs.arboricity import arboricity_upper_bound
from repro.graphs.generators import GraphInstance
from repro.obs.trace import ROUND_STAMPS, emit_run_trace
from repro.run.algorithms import resolve_algorithm, ResolvedRun
from repro.run.result import DominatingSetResult, package_result, package_result_csr
from repro.run.spec import RunSpec

__all__ = ["CompiledGraph", "Session", "execute", "fault_model_label"]

#: How many materialised fault plans one compiled graph keeps.
_PLAN_CACHE_SIZE = 8


def fault_model_label(faults: Any) -> Optional[str]:
    """A short display label for a spec's fault source (cell-key reporting)."""
    if faults is None:
        return None
    if isinstance(faults, str):
        return faults
    label = getattr(faults, "display_label", None)
    if label is not None:
        return str(label)
    return type(faults).__name__


def _as_csr(graph: Any):
    """Return ``graph`` as a :class:`~repro.graphs.large_scale.CSRGraph`, else ``None``.

    Checked through ``sys.modules`` so the large-scale module (and NumPy)
    is never imported by sessions that only ever see dict-based graphs: if
    the caller holds a ``CSRGraph``, its module is necessarily loaded.
    """
    module = sys.modules.get("repro.graphs.large_scale")
    if module is None:
        return None
    return graph if isinstance(graph, module.CSRGraph) else None


class CompiledGraph:
    """Everything reusable about one graph, compiled lazily.

    Create through :meth:`Session.compile`; holds strong references to the
    graph (and the source object it came from), so identity-keyed session
    caching stays sound.  The compiled network snapshots node weights and
    topology -- mutate the graph and you must compile again
    (:meth:`Session.invalidate`).
    """

    def __init__(self, graph: nx.Graph, source: Any = None, weights_source: Any = None):
        self.graph = graph
        # Strong references to the objects whose id() keys the session cache:
        # as long as this entry lives, neither id can be recycled by a new
        # object, so an identity hit is always a true hit.
        self.source = source
        self.weights_source = weights_source
        # Always the degeneracy bound, never a caller-pinned alpha: an
        # explicitly pinned instance alpha reaches runs via RunSpec.alpha.
        self._default_alpha: Optional[int] = None
        self._is_unweighted: Optional[bool] = None
        self._max_degree: Optional[int] = None
        self._network: Optional[Network] = None
        self._network_key: Optional[Tuple] = None
        self._plans: "OrderedDict[Tuple, Any]" = OrderedDict()

    # -- canonicalisation (each computed at most once) --------------------

    @property
    def default_alpha(self) -> int:
        """The certified arboricity bound: ``max(1, degeneracy)``.

        CSR graphs use their generator's certificate when one exists, and
        the CSR-native degeneracy sweep otherwise -- the same bound the
        dict-based path computes.
        """
        if self._default_alpha is None:
            csr = _as_csr(self.graph)
            if csr is not None:
                from repro.graphs.large_scale import csr_degeneracy

                certified = csr.alpha if csr.alpha is not None else csr_degeneracy(csr)
                self._default_alpha = max(1, certified)
            else:
                self._default_alpha = max(1, arboricity_upper_bound(self.graph))
        return self._default_alpha

    @property
    def is_unweighted(self) -> bool:
        if self._is_unweighted is None:
            csr = _as_csr(self.graph)
            if csr is not None:
                self._is_unweighted = csr.is_unweighted
            else:
                graph = self.graph
                self._is_unweighted = all(
                    graph.nodes[node].get("weight", 1) == 1 for node in graph.nodes()
                )
        return self._is_unweighted

    @property
    def max_degree(self) -> int:
        if self._max_degree is None:
            csr = _as_csr(self.graph)
            if csr is not None:
                self._max_degree = csr.max_degree
            else:
                self._max_degree = max(dict(self.graph.degree()).values(), default=0)
        return self._max_degree

    # -- the reusable network ---------------------------------------------

    def network(
        self,
        alpha: Optional[int],
        config: Optional[Mapping[str, Any]],
        knows_max_degree: bool,
        seed: int,
    ) -> Network:
        """Return the compiled network, re-targeted for one run.

        The first call builds it; later calls rebind the globally-known
        config when it changed and rewind every node's random stream to
        ``seed``, which is observationally identical to constructing
        ``Network(graph, alpha=..., config=..., seed=seed, ...)`` afresh --
        minus the per-node construction cost and with the cached adjacency
        layout (CSR arrays, payload-bit memo) carried over.
        """
        key = (
            alpha,
            None if config is None else dict(config),
            knows_max_degree,
        )
        if self._network is None:
            self._network = Network(
                self.graph,
                alpha=alpha,
                config=config,
                seed=seed,
                knows_max_degree=knows_max_degree,
            )
            self._network_key = key
        else:
            if key != self._network_key:
                self._network.rebind(
                    alpha, config=config, knows_max_degree=knows_max_degree
                )
                self._network_key = key
            self._network.reset(seed=seed)
        return self._network

    # -- fault plans -------------------------------------------------------

    def fault_plan(self, spec: RunSpec):
        """Resolve ``spec.faults`` to a concrete plan.

        The few most recently used ``(faults, seed)`` plans are memoized, so a repeated pair returns the identical plan
        object while a long-lived session (``repro serve``) seeing fresh
        seeds keeps a bounded number of plans alive.
        """
        faults = spec.faults
        if faults is None:
            return None
        from repro.faults import FAULT_MODELS, FaultPlan

        if isinstance(faults, FaultPlan):
            return faults
        if isinstance(faults, str):
            from repro.run.algorithms import registry_lookup

            faults = registry_lookup(FAULT_MODELS, faults, "fault model")
        seed = spec.fault_seed if spec.fault_seed is not None else spec.seed
        try:
            key = (faults, seed)
            cached = self._plans.get(key)
        except TypeError:  # unhashable custom spec: materialise every time
            return faults.materialize(self.graph, seed)
        if cached is None:
            cached = faults.materialize(self.graph, seed)
            self._plans[key] = cached
            if len(self._plans) > _PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(key)
        return cached


class Session:
    """A reusable execution context: compiles graphs once, runs specs many.

    Parameters
    ----------
    engine:
        Default engine for specs that leave ``engine=None``; ``None`` (the
        default) falls through to the process-wide default (CSR inputs to
        the kernel tier).
    tracer:
        Optional :class:`repro.obs.trace.Tracer` attached to every run of
        this session (overridable per call via ``run(spec, tracer=...)``).
        With no tracer (or a disabled one) every execution takes the exact
        untraced code path -- the zero-overhead-when-off contract gated by
        the E17 benchmark; with a tracer, network runs are routed through
        the hooked round loop under an empty fault plan (byte-identical by
        the zero-fault parity guarantee) so round timestamps can be
        captured on the reference, batched and kernel engines.

    Usable as a context manager (``with Session() as session: ...``); exit
    drops the compiled-state cache.
    """

    def __init__(self, engine: EngineSpec = None, tracer: Optional[Any] = None):
        get_engine(engine)  # fail fast on unknown engine names
        self.engine = engine
        self.tracer = tracer
        self._compiled: Dict[Tuple, CompiledGraph] = {}

    # -- compilation -------------------------------------------------------

    def _graph_key(self, spec: RunSpec) -> Tuple:
        weights_key = None if spec.weights is None else id(spec.weights)
        seed_key = spec.graph_seed if (
            spec.weights is not None or not isinstance(spec.graph, (nx.Graph, GraphInstance))
        ) else 0
        return (id(spec.graph), weights_key, seed_key)

    def compile(self, spec: RunSpec) -> CompiledGraph:
        """Return the compiled state for ``spec``'s graph (cached by identity).

        Two specs sharing the same graph object (and weight source) share
        one :class:`CompiledGraph`; a buildable graph source is materialised
        once per ``graph_seed``.
        """
        key = self._graph_key(spec)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._build(spec)
            self._compiled[key] = compiled
        return compiled

    def _build(self, spec: RunSpec) -> CompiledGraph:
        source = spec.graph
        if _as_csr(source) is not None:
            if spec.weights is not None:
                raise TypeError(
                    "RunSpec.weights cannot be applied to a CSRGraph; bake "
                    "weights into the CSR arrays instead (e.g. "
                    "repro.graphs.large_scale.random_integer_weights)"
                )
            return CompiledGraph(source, source=source)
        if isinstance(source, nx.Graph):
            graph = source
        elif isinstance(source, GraphInstance):
            graph = source.graph
        elif callable(getattr(source, "build", None)):
            graph = source.build(spec.graph_seed).graph
        else:
            raise TypeError(
                "RunSpec.graph must be a networkx.Graph, a GraphInstance, or "
                f"an object with a build(seed) method, got {type(source).__name__}"
            )
        if spec.weights is not None:
            graph = graph.copy()
            apply = getattr(spec.weights, "apply", None)
            if callable(apply):
                apply(graph, spec.graph_seed)
            elif isinstance(spec.weights, Mapping):
                nx.set_node_attributes(graph, dict(spec.weights), "weight")
            else:
                raise TypeError(
                    "RunSpec.weights must be a node->weight mapping or an "
                    "object with an apply(graph, seed) method, got "
                    f"{type(spec.weights).__name__}"
                )
        return CompiledGraph(graph, source=source, weights_source=spec.weights)

    def invalidate(self, graph: Any = None) -> None:
        """Drop compiled state -- for one graph source, or everything.

        Call after mutating a graph that was already compiled (the session
        snapshots weights and topology at compile time).
        """
        if graph is None:
            self._compiled.clear()
            return
        for key in [key for key in self._compiled if key[0] == id(graph)]:
            del self._compiled[key]

    @property
    def compiled_count(self) -> int:
        return len(self._compiled)

    # -- execution ---------------------------------------------------------

    def _resolve(self, compiled: CompiledGraph, spec: RunSpec) -> ResolvedRun:
        if isinstance(spec.algorithm, str):
            return resolve_algorithm(spec.algorithm)(compiled, spec)
        knows = True if spec.knows_max_degree is None else spec.knows_max_degree
        return ResolvedRun(spec.algorithm, spec.alpha, knows, spec.guarantee)

    def run(self, spec: RunSpec, *, tracer: Optional[Any] = None) -> DominatingSetResult:
        """Execute one spec, reusing every piece of compiled state it allows.

        ``tracer`` overrides the session-level tracer for this run only.
        Every run, traced or not, installs a fresh
        :data:`~repro.obs.trace.ROUND_STAMPS` list that each tier's round
        loop stamps once per executed round, and resets it afterwards,
        however the run ends.  With an enabled tracer the run's span tree is
        emitted afterwards, its round records timed from those stamps.
        """
        active = tracer if tracer is not None else self.tracer
        if active is not None and not getattr(active, "enabled", True):
            active = None
        run_started = time.perf_counter()
        compiled = self.compile(spec)
        resolved = self._resolve(compiled, spec)
        compile_done = time.perf_counter()
        csr = _as_csr(compiled.graph)
        stamps: List[float] = []
        token = ROUND_STAMPS.set(stamps)
        try:
            raw = self._simulate(compiled, csr, resolved, spec)
        finally:
            ROUND_STAMPS.reset(token)
        execute_done = time.perf_counter()
        validate = spec.validate == "full"
        if csr is not None:
            result = package_result_csr(
                csr, raw, guarantee=resolved.guarantee, validate=validate
            )
        else:
            result = package_result(
                compiled.graph, raw, guarantee=resolved.guarantee, validate=validate
            )
        if active is not None:
            package_done = time.perf_counter()
            emit_run_trace(
                active,
                algorithm=spec.algorithm_label,
                n=csr.n if csr is not None else compiled.graph.number_of_nodes(),
                seed=spec.seed,
                result=result,
                phase_seconds={
                    "compile": compile_done - run_started,
                    "execute": execute_done - compile_done,
                    "package": package_done - execute_done,
                },
                wall_s=package_done - run_started,
                round_starts=[stamp - run_started for stamp in stamps],
                fault_model=fault_model_label(spec.faults),
            )
        return result

    def _simulate(
        self,
        compiled: CompiledGraph,
        csr: Optional[Any],
        resolved: ResolvedRun,
        spec: RunSpec,
    ):
        """Execute one resolved spec; returns the raw :class:`RunResult`.

        Dict-based graphs (``csr is None``) run through the
        :class:`Simulator` on the compiled network.  Streamed CSR graphs
        never build a :class:`Network` (nor a per-node context object): the
        engine's ``run_grid`` (kernel or sharded) runs straight over the CSR
        arrays, which is what makes 10^5-node instances tractable.  Fault
        plans on CSR graphs compile straight
        against the arrays (:meth:`~repro.faults.session.FaultSession.for_csr`),
        byte-identical to a reference run on ``to_networkx()`` under the
        same plan.
        """
        from repro.congest.kernels import check_capability

        engine_spec = spec.engine if spec.engine is not None else self.engine
        if engine_spec is None and csr is not None:
            # With nothing explicitly selected, a CSR input resolves straight
            # to the kernel tier -- the single-process engine that can run
            # it -- instead of tripping over the process-wide default.
            engine_spec = "kernel"
        engine = self._resolve_engine(engine_spec, spec)
        check_capability(
            resolved.algorithm,
            engine.name,
            csr=csr is not None,
            label=spec.algorithm_label,
            fault_model=fault_model_label(spec.faults),
        )
        plan = compiled.fault_plan(spec)
        if csr is None:
            if plan is not None:
                from repro.faults import AdversarialEngine

                engine = AdversarialEngine(plan, inner=engine)
            network = compiled.network(
                alpha=resolved.alpha,
                config=spec.config,
                knows_max_degree=resolved.knows_max_degree,
                seed=spec.seed,
            )
            simulator = Simulator(
                bandwidth_words=spec.bandwidth_words,
                max_rounds=spec.max_rounds,
                strict=spec.strict,
                engine=engine,
            )
            return simulator.run(network, resolved.algorithm)

        from repro.congest.kernels.grid import grid_from_csr
        from repro.congest.network import shared_config
        from repro.congest.simulator import RunResult, resolve_budget_and_limit

        algorithm = resolved.algorithm
        config = shared_config(
            csr.n, csr.max_degree, resolved.alpha, spec.config,
            resolved.knows_max_degree,
        )
        budget, limit = resolve_budget_and_limit(
            algorithm, csr, spec.bandwidth_words, spec.max_rounds
        )
        grid = grid_from_csr(csr)
        hooks = None
        if plan is not None:
            from repro.faults.session import FaultSession

            hooks = FaultSession.for_csr(plan, csr)
        outputs, metrics = engine.run_grid(
            grid, config, algorithm,
            budget=budget, limit=limit, strict=spec.strict,
            seed=spec.seed, hooks=hooks,
        )
        return RunResult(
            algorithm_name=algorithm.name, outputs=outputs, metrics=metrics
        )

    @staticmethod
    def _resolve_engine(engine_spec: Any, spec: RunSpec):
        """Resolve ``engine_spec`` to an engine, folding in ``spec.shards``.

        ``spec.shards`` with anything but the sharded tier is an error --
        the knob only exists there.
        """
        engine = get_engine(engine_spec)
        if engine.name != "sharded":
            if spec.shards is not None:
                raise ValueError(
                    f"shards requires engine='sharded', got engine={engine.name!r}"
                )
            return engine
        if spec.shards is not None and engine.shards != spec.shards:
            from repro.congest.sharded.engine import ShardedEngine

            engine = ShardedEngine(
                shards=spec.shards,
                start_method=engine.start_method,
                barrier_timeout=engine.barrier_timeout,
            )
        return engine

    def run_many(
        self,
        specs: Optional[Iterable[RunSpec]] = None,
        *,
        base: Optional[RunSpec] = None,
        seeds: Optional[Iterable[int]] = None,
        workers: int = 1,
    ) -> Iterator[DominatingSetResult]:
        """Run a batch of specs; yields results in order, as they complete.

        Either pass ``specs`` explicitly, or ``base`` plus ``seeds`` for the
        common multi-seed batch (each seed runs ``dataclasses.replace(base,
        seed=s)``).  ``workers > 1`` fans contiguous chunks of the batch out
        to worker processes through the orchestration runner's pool helper;
        each worker compiles its chunk's graphs once, and the merged stream
        is byte-identical to a serial run (the workers receive the
        submitting process's default engine, so ``engine=None`` resolves
        the same everywhere).
        """
        if specs is None:
            if base is None or seeds is None:
                raise ValueError("run_many needs either specs, or base= and seeds=")
            batch = [dataclasses.replace(base, seed=int(seed)) for seed in seeds]
        else:
            if base is not None or seeds is not None:
                raise ValueError("pass either specs or (base, seeds), not both")
            batch = list(specs)
        if workers > 1 and len(batch) > 1:
            return self._run_many_pooled(batch, workers)
        return (self.run(spec) for spec in batch)

    def _run_many_pooled(
        self, batch: Sequence[RunSpec], workers: int
    ) -> Iterator[DominatingSetResult]:
        # Imported lazily: orchestration sits above this package.
        from repro.orchestration.runner import pool_map_ordered

        chunks = _chunked(batch, workers)
        default_engine = get_default_engine()
        jobs = [(chunk, self.engine, default_engine) for chunk in chunks]

        def _stream() -> Iterator[DominatingSetResult]:
            for results, _duration in pool_map_ordered(_run_chunk, jobs, workers):
                yield from results

        return _stream()

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(engine={self.engine!r}, compiled={self.compiled_count})"


def _chunked(batch: Sequence[RunSpec], workers: int) -> List[List[RunSpec]]:
    """Split into at most ``workers`` contiguous, near-equal chunks."""
    count = min(workers, len(batch))
    size, extra = divmod(len(batch), count)
    chunks: List[List[RunSpec]] = []
    start = 0
    for index in range(count):
        end = start + size + (1 if index < extra else 0)
        chunks.append(list(batch[start:end]))
        start = end
    return chunks


def _run_chunk(job) -> List[DominatingSetResult]:
    """Worker entry point: run one contiguous chunk through a local session.

    The chunk's specs share graphs wherever the submitting session's did
    (they cross the process boundary as one pickle, preserving object
    identity), so the worker compiles each graph once.  The parent's
    process-wide default engine is applied around the chunk -- see
    :func:`repro.orchestration.runner._execute_cell` for why spawn-started
    workers would otherwise silently reset it.
    """
    specs, session_engine, default_engine = job
    from repro.congest.engine import set_default_engine

    previous = set_default_engine(default_engine)
    try:
        session = Session(engine=session_engine)
        return [session.run(spec) for spec in specs]
    finally:
        set_default_engine(previous)


def execute(spec: RunSpec) -> DominatingSetResult:
    """One-shot execution of a :class:`RunSpec` (a throwaway :class:`Session`).

    For repeated runs on the same graph, create a :class:`Session` and
    keep it -- that is the whole point of the compiled API.
    """
    return Session().run(spec)
