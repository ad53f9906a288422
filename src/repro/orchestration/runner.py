"""Parallel, cache-aware sweep runner.

A *sweep* is a grid of cells, one per (scenario, seed, engine) triple.  The
runner:

1. resolves each cell's content address (:func:`repro.orchestration.cache.cache_key`)
   and serves it from the :class:`~repro.orchestration.cache.ResultCache`
   when possible;
2. shards the remaining cells across worker processes with
   :class:`concurrent.futures.ProcessPoolExecutor` (``workers=1`` runs them
   inline -- same code path, no pool);
3. streams :class:`CellResult` objects back *in submission order* as cells
   finish, writing fresh results into the cache as they arrive.

Determinism is a hard guarantee, not a hope: a cell is re-built from nothing
but ``(scenario name, seed, engine)``, every random choice inside the
algorithms derives from the cell seed, and records cross the process
boundary through the same canonical dict form the cache uses.  A parallel
sweep therefore produces records byte-identical to a serial run of the same
cells -- ``tests/orchestration/test_runner.py`` enforces exactly that.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.experiments import ExperimentRecord
from repro.baselines.lp import load_lp_solver
from repro.congest.engine import get_default_engine, set_default_engine
from repro.orchestration.cache import (
    CacheEntry,
    ResultCache,
    cache_key,
    record_from_dict,
    record_to_dict,
)
from repro.orchestration.governor import SweepBudget, SweepGovernor

__all__ = [
    "SweepBudget",
    "SweepCell",
    "CellResult",
    "SweepRunner",
    "aggregate_skips",
    "expand_cells",
    "format_skip_cell",
    "pool_map_ordered",
]

#: Engine used when the caller does not pick one: the vectorized fast path
#: (observationally identical to the reference engine; see repro.congest.engine).
DEFAULT_SWEEP_ENGINE = "batched"


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a registered scenario at one seed and engine."""

    scenario: str
    seed: int
    engine: str = DEFAULT_SWEEP_ENGINE


@dataclass
class CellResult:
    """The outcome of one cell, cached, freshly computed, or skipped.

    ``skipped`` carries the engine's capability error message when the cell
    names a genuinely unsupported (scenario, engine) combination; such
    results have no records and are never written to the cache, so the cell
    re-runs (and surfaces again) on every sweep until the capability gap is
    closed.  ``skipped_cell`` is the structured ``(algorithm, engine,
    fault_model)`` capability-cell key behind the message (entries may be
    ``None`` when the raising site could not attribute them), so reports
    and the service can aggregate skips without scraping reason strings.

    ``skip_reason`` distinguishes *why* a result is skipped:
    ``"capability"`` (the engine genuinely cannot run the cell) versus
    ``"budget"`` (a :class:`~repro.orchestration.governor.SweepGovernor`
    refused the cell to stay under the sweep's declared budget).  Budget
    skips share the never-cached contract: a later sweep with a bigger
    budget simply runs them.

    ``duration_s`` is time-to-availability at the consumer (0 for cache
    hits); ``elapsed_s``/``maxrss_kb``/``bits`` are the *execution*
    telemetry -- in-worker wall time, the cell's own peak memory growth
    (:class:`repro.obs.metrics.PeakRssMeter`-anchored, so a forked worker
    never reports the coordinator's copy-on-write footprint), and the
    records' aggregate message volume -- measured when the cell actually
    ran and persisted in the cache entry's meta, so a hit still reports
    what the computation originally cost.  ``maxrss_kb`` read back from
    entries written by older code may still be coordinator-sized; the
    governor treats cached values as advisory for exactly that reason.
    """

    cell: SweepCell
    records: List[ExperimentRecord]
    from_cache: bool
    duration_s: float
    key: str
    spec_hash: str = ""
    skipped: Optional[str] = None
    skipped_cell: Optional[Tuple[Optional[str], Optional[str], Optional[str]]] = None
    skip_reason: str = "capability"
    elapsed_s: float = 0.0
    maxrss_kb: int = 0
    bits: int = 0

    @property
    def scenario(self) -> str:
        return self.cell.scenario

    @property
    def seed(self) -> int:
        return self.cell.seed

    @property
    def engine(self) -> str:
        return self.cell.engine


def aggregate_skips(
    results: Iterable[CellResult],
) -> Dict[Tuple[Optional[str], Optional[str], Optional[str]], int]:
    """Count skipped results by ``(algorithm, engine, fault_model)`` cell key.

    The structured aggregation behind the sweep summary's skip lines (and
    usable on any ``CellResult`` stream, e.g. by a report or a service
    surfacing capability gaps); results without a structured key land
    under ``(None, None, None)``.  Budget skips are *not* capability
    gaps -- they are excluded here and summarised by the governor's own
    budget line instead.
    """
    counts: Dict[Tuple[Optional[str], Optional[str], Optional[str]], int] = {}
    for result in results:
        if result.skipped is None or result.skip_reason != "capability":
            continue
        key = result.skipped_cell if result.skipped_cell is not None else (None, None, None)
        counts[key] = counts.get(key, 0) + 1
    return counts


def format_skip_cell(cell: Tuple[Optional[str], Optional[str], Optional[str]]) -> str:
    """Render a capability-cell key as ``algorithm@engine+fault_model``."""
    algorithm, engine, fault_model = cell
    label = f"{algorithm or '?'}@{engine or '?'}"
    return label if fault_model is None else f"{label}+{fault_model}"


def expand_cells(
    scenarios: Iterable[str],
    seeds: Sequence[int],
    engines: Optional[Sequence[str]] = None,
) -> List[SweepCell]:
    """The cross product scenario x seed x engine, in deterministic order."""
    engine_list = list(engines) if engines else [DEFAULT_SWEEP_ENGINE]
    return [
        SweepCell(scenario=name, seed=seed, engine=engine)
        for name in scenarios
        for seed in seeds
        for engine in engine_list
    ]


def pool_map_ordered(
    fn,
    jobs: Union[Sequence, Iterable],
    workers: int,
    window: Optional[int] = None,
) -> Iterator[Tuple[object, float]]:
    """Run ``fn`` over ``jobs``, yielding ``(result, duration_s)`` in
    submission order.

    ``workers <= 1`` (or a single job) executes inline -- same code path, no
    pool; otherwise jobs are submitted to a
    :class:`~concurrent.futures.ProcessPoolExecutor` so later jobs compute
    while earlier ones stream out.  ``duration_s`` is time-to-availability:
    once the pool overlaps work, the wait observed at the consumer is the
    only meaningful per-job cost.

    ``window`` caps how many jobs are in flight; ``None`` (the default)
    means all of them, so every job is submitted upfront.  Jobs are drawn
    from the iterable **lazily**: the in-flight deque is topped up only
    after a yield resumes, never during the consumer's pause, so a job
    *source* that decides work adaptively -- the budget governor's cell
    stream -- observes each completion before committing to the next
    submission.  An abandoned stream cancels queued futures and returns
    without waiting.

    ``fn`` must be a module-level callable and each job a picklable value.
    This is the worker machinery shared by :class:`SweepRunner` and
    :meth:`repro.run.Session.run_many`.
    """
    if window is None:
        jobs = list(jobs)
        window = len(jobs)
    elif window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    jobs = iter(jobs)
    pool = None
    if workers > 1 and window > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, window))
    in_flight: deque = deque()

    def top_up() -> None:
        for job in itertools.islice(jobs, window - len(in_flight)):
            in_flight.append(pool.submit(fn, job) if pool is not None else job)

    exhausted = False
    try:
        top_up()
        while in_flight:
            head = in_flight.popleft()
            start = time.perf_counter()
            result = head.result() if pool is not None else fn(head)
            yield result, time.perf_counter() - start
            top_up()
        exhausted = True
    finally:
        if pool is not None:
            # An abandoned stream (consumer broke out early / GC closed the
            # generator) must not block on jobs nobody will read: drop the
            # queued ones and return without waiting.  A fully consumed
            # stream has nothing pending, so the ordinary waiting shutdown
            # keeps its prompt-cleanup semantics.
            pool.shutdown(wait=exhausted, cancel_futures=not exhausted)


def _execute_cell(
    spec,
    seed: int,
    engine: str,
    default_engine: Optional[str] = None,
    trace_path: Optional[str] = None,
    shards: Optional[int] = None,
) -> Dict[str, object]:
    """Worker entry point: run one cell of an already-resolved scenario.

    Runs in a worker process (or inline for serial sweeps).  The
    :class:`~repro.orchestration.registry.ScenarioSpec` itself is shipped to
    the worker -- specs are plain picklable dataclasses -- so workers never
    consult the registry and user-registered scenarios work under every
    multiprocessing start method (fork *and* spawn).  Returns an envelope::

        {"records": [...], "elapsed_s": float, "maxrss_kb": int}

    with records in canonical dict form: cheap to pickle, and identical
    whichever side of the process boundary produced them.  ``elapsed_s`` is
    the *in-worker* wall time of the run itself (distinct from the
    consumer-side time-to-availability ``CellResult.duration_s``) and
    ``maxrss_kb`` the cell's own peak RSS *growth*
    (:class:`~repro.obs.metrics.PeakRssMeter`): a forked worker's absolute
    high-water starts at the coordinator's copy-on-write footprint, so raw
    ``ru_maxrss``/``VmHWM`` would attribute the coordinator's peak to the
    cell.  The meter anchors a baseline first, so the telemetry the cache
    persists is the memory the cell itself demanded.

    ``default_engine`` is the submitting process's process-wide default
    engine, applied (and restored) around the cell.  The default is module
    state, so whether a worker inherits it depends on the multiprocessing
    start method -- ``fork`` copies the parent's value at fork time, while
    ``spawn`` re-imports the module and silently resets it.  Passing it
    explicitly makes ``engine=None`` cells (and any ``engine=None`` lookup
    inside a solver) resolve identically inline, under fork, and under
    spawn.

    ``trace_path`` attaches a :class:`~repro.obs.trace.FileTracer` to the
    cell's runs when the spec supports it (``ScenarioSpec.run`` accepts a
    ``tracer``; duck-typed user specs without the parameter are run
    untraced rather than broken).  The tracer is created *in the worker*
    -- tracers hold open file handles and must not cross the process
    boundary.

    A cell naming a genuinely unsupported (scenario, engine) combination
    raises :class:`~repro.congest.errors.EngineCapabilityError` inside the
    run; that is a property of the capability matrix, not a bug, so it is
    returned as a skip marker for the runner to surface as an explicit
    skipped :class:`CellResult` instead of crashing the whole sweep.
    """
    from repro.congest.errors import EngineCapabilityError
    from repro.obs.metrics import PeakRssMeter

    run_kwargs: Dict[str, object] = {"seed": seed, "engine": engine}
    if shards is not None and _accepts_keyword(spec, "shards"):
        # Worker-process count for the sharded tier.  Results are
        # shard-count-independent, so this never appears in cache keys.
        run_kwargs["shards"] = shards
    tracer = None
    if trace_path is not None and _accepts_tracer(spec):
        from repro.obs.trace import FileTracer

        tracer = FileTracer(trace_path)
        run_kwargs["tracer"] = tracer
    meter = PeakRssMeter().start()
    started = time.perf_counter()
    try:
        if default_engine is None:
            records = spec.run(**run_kwargs)
        else:
            previous = set_default_engine(default_engine)
            try:
                records = spec.run(**run_kwargs)
            finally:
                set_default_engine(previous)
    except EngineCapabilityError as error:
        return {"skipped": str(error), "cell": list(error.cell)}
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - started
    return {
        "records": [record_to_dict(record) for record in records],
        "elapsed_s": elapsed,
        "maxrss_kb": meter.peak_kb(),
    }


def _accepts_keyword(spec, name: str) -> bool:
    """Whether ``spec.run`` can take the ``name`` keyword.

    Duck-typed user specs predate newer keywords (``tracer``, ``shards``);
    those run without the extra knob rather than crash the cell.
    """
    import inspect

    try:
        parameters = inspect.signature(spec.run).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    return name in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def _accepts_tracer(spec) -> bool:
    return _accepts_keyword(spec, "tracer")


def _execute_cell_job(job) -> Dict[str, object]:
    """Picklable single-argument adapter over :func:`_execute_cell`."""
    spec, seed, engine, default_engine, trace_path, shards = job
    return _execute_cell(spec, seed, engine, default_engine, trace_path, shards)


@dataclass
class SweepRunner:
    """Runs sweep cells through the cache and a process pool.

    Parameters
    ----------
    cache:
        The result cache; ``None`` disables caching entirely (every cell is
        recomputed, nothing is written).
    workers:
        Worker process count.  ``1`` executes inline in this process.
    trace_dir:
        When set, every *executed* cell (cache hits have nothing to trace)
        writes a JSONL trace to
        ``{trace_dir}/{scenario}__seed{seed}__{engine}.jsonl`` -- scenario
        names are sanitised for the filesystem.  The tracer is created in
        the worker process.
    refresh:
        Skip cache *reads* (every cell executes) while still writing fresh
        results back.  ``repro run --trace`` uses this so a traced run
        actually runs.
    budget:
        When set (and :attr:`SweepBudget.bounded`), a
        :class:`~repro.orchestration.governor.SweepGovernor` schedules the
        cache misses adaptively under the declared limits; cells it refuses
        surface as ``skip_reason == "budget"`` results and are never
        cached.  ``None`` (or an unbounded budget) runs ungoverned: same
        records, bytes and order as with no budget.
    """

    cache: Optional[ResultCache] = None
    workers: int = 1
    trace_dir: Optional[Union[str, Path]] = None
    trace_paths: Dict[SweepCell, str] = field(default_factory=dict, repr=False)
    refresh: bool = False
    #: Worker-process count handed to ``engine="sharded"`` cells.  Results
    #: are shard-count-independent, so it is deliberately absent from cache
    #: keys: a cached sharded cell answers for every shard count.
    shards: Optional[int] = None
    budget: Optional[SweepBudget] = None
    _keys: Dict[SweepCell, Tuple[str, str]] = field(default_factory=dict, repr=False)
    _specs: Dict[str, object] = field(default_factory=dict, repr=False)
    _governor: Optional[SweepGovernor] = field(default=None, repr=False)

    def _spec(self, cell: SweepCell):
        if cell.scenario not in self._specs:
            from repro.orchestration.registry import get_scenario

            self._specs[cell.scenario] = get_scenario(cell.scenario)
        return self._specs[cell.scenario]

    def _cell_key(self, cell: SweepCell) -> Tuple[str, str]:
        if cell not in self._keys:
            spec_hash = self._spec(cell).spec_hash()
            self._keys[cell] = (cache_key(spec_hash, cell.seed, cell.engine), spec_hash)
        return self._keys[cell]

    def run_cells(self, cells: Sequence[SweepCell]) -> Iterator[CellResult]:
        """Yield one :class:`CellResult` per cell, in the order given.

        Cache hits are yielded as soon as they are reached; misses are
        submitted to the pool upfront so they compute concurrently while
        earlier cells stream out.

        With a bounded :attr:`budget` the misses instead flow through a
        :class:`~repro.orchestration.governor.SweepGovernor`: hits come
        first (they are free), fresh results follow in the governor's
        adaptive order, and budget-refused cells trail as explicit skipped
        results.  A budget changes scheduling only: every cell it admits
        yields the same records and cache entry as with no budget.
        """
        hits = {cell: self._lookup(cell) for cell in cells}
        misses = [cell for cell in cells if hits[cell] is None]
        # Captured once and shipped to every worker: workers must not rely
        # on spawn-time (or fork-time) module state for the process-wide
        # default engine.
        default_engine = get_default_engine()
        self._load_solver_before_fork(misses)
        if self.budget is not None and self.budget.bounded:
            yield from self._run_governed(cells, hits, misses, default_engine)
            return
        fresh = self._execute(misses, default_engine)
        try:
            for cell in cells:
                entry = hits[cell]
                yield next(fresh) if entry is None else self._hit_result(cell, entry)
        finally:
            fresh.close()

    def _run_governed(
        self,
        cells: Sequence[SweepCell],
        hits: Dict[SweepCell, Optional[CacheEntry]],
        misses: List[SweepCell],
        default_engine: Optional[str],
    ) -> Iterator[CellResult]:
        """The bounded-budget arm of :meth:`run_cells`.

        Cache hits stream first, in the given order -- they spend nothing,
        and their persisted telemetry seeds the governor's estimator
        (advisory tier).  The misses are then pulled one at a time from
        :meth:`SweepGovernor.next_cell` through a *windowed*
        :func:`pool_map_ordered`, so every completion's fresh telemetry
        reaches the governor before it commits to the next admission.
        Budget-refused cells trail the stream as explicit ``skip_reason ==
        "budget"`` results and are never written to the cache.
        """
        governor = self._governor = SweepGovernor(self.budget, workers=self.workers)
        for cell in cells:
            if hits[cell] is not None:
                governor.seed(cell, hits[cell][1])
                yield self._hit_result(cell, hits[cell])
        governor.schedule(misses)
        # The window bounds how many admissions can be in flight ahead of
        # the telemetry feedback loop -- enough to keep every worker busy,
        # small enough that budget overshoot stays a handful of cells.
        window = max(2, 2 * self.workers)
        fresh = self._execute(iter(governor.next_cell, None), default_engine, window)
        try:
            for result in fresh:
                if result.skipped is None:
                    governor.observe(
                        result.cell,
                        elapsed_s=result.elapsed_s,
                        maxrss_kb=result.maxrss_kb,
                        bits=result.bits,
                    )
                yield result
        finally:
            fresh.close()
        for cell, reason in governor.drain_skips():
            yield self._result(cell, [], 0.0, skipped=reason, skip_reason="budget")

    def _lookup(self, cell: SweepCell) -> Optional[CacheEntry]:
        """The cell's cache entry ``(records, meta)``, or ``None`` to execute."""
        if self.cache is None or self.refresh:
            return None
        return self.cache.get_entry(self._cell_key(cell)[0])

    def _result(
        self,
        cell: SweepCell,
        records: List[ExperimentRecord],
        duration_s: float,
        from_cache: bool = False,
        **fields,
    ) -> CellResult:
        key, spec_hash = self._cell_key(cell)
        return CellResult(
            cell=cell,
            records=records,
            from_cache=from_cache,
            duration_s=duration_s,
            key=key,
            spec_hash=spec_hash,
            **fields,
        )

    def _hit_result(self, cell: SweepCell, entry: CacheEntry) -> CellResult:
        records, meta = entry
        return self._result(
            cell,
            records,
            0.0,
            from_cache=True,
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            maxrss_kb=int(meta.get("maxrss_kb", 0)),
            bits=int(meta.get("bits", 0)),
        )

    def _execute(
        self,
        cells: Iterable[SweepCell],
        default_engine: Optional[str],
        window: Optional[int] = None,
    ) -> Iterator[CellResult]:
        """Execute ``cells`` through :func:`pool_map_ordered`, yielding one
        fresh :class:`CellResult` per cell in submission order and writing
        each completed cell to the cache before it is yielded.

        ``cells`` is drawn lazily, one submission at a time, so a trace
        file is reset only when the first cell writing to it is submitted:
        a refused cell leaves no file behind, and cells sharing one
        explicit ``--trace`` file accumulate into it.  Each invocation owns
        its trace files -- run ids are only unique per process, so
        appending a re-run into a stale file would collide.
        """
        submitted: Deque[SweepCell] = deque()
        reset: set = set()

        def jobs() -> Iterator[Tuple]:
            for cell in cells:
                trace_path = self._trace_path(cell)
                if trace_path is not None and trace_path not in reset:
                    reset.add(trace_path)
                    target = Path(trace_path)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text("")
                submitted.append(cell)
                yield (
                    self._spec(cell),
                    cell.seed,
                    cell.engine,
                    default_engine,
                    trace_path,
                    self.shards,
                )

        stream = pool_map_ordered(_execute_cell_job, jobs(), self.workers, window=window)
        try:
            for payload, duration in stream:
                cell = submitted.popleft()
                if "skipped" in payload:
                    # Capability-skip marker: surface it, never cache it.
                    cell_key = payload.get("cell")
                    yield self._result(
                        cell,
                        [],
                        duration,
                        skipped=payload["skipped"],
                        skipped_cell=None if cell_key is None else tuple(cell_key),
                    )
                    continue
                records = [record_from_dict(entry) for entry in payload["records"]]
                result = self._result(
                    cell,
                    records,
                    duration,
                    elapsed_s=float(payload.get("elapsed_s", duration)),
                    maxrss_kb=int(payload.get("maxrss_kb", 0)),
                    bits=sum(record.total_bits for record in records),
                )
                if self.cache is not None:
                    self.cache.put(
                        result.key,
                        records,
                        meta={
                            "scenario": cell.scenario,
                            "seed": cell.seed,
                            "engine": cell.engine,
                            "spec_hash": result.spec_hash,
                            "elapsed_s": result.elapsed_s,
                            "maxrss_kb": result.maxrss_kb,
                            "bits": result.bits,
                        },
                    )
                yield result
        finally:
            stream.close()

    def _load_solver_before_fork(self, misses: Sequence[SweepCell]) -> None:
        """Import the LP/MILP stack in this process before a pool starts,
        when a cell about to execute estimates OPT with it: every OPT mode
        but the free counting bound (``opt_mode="degree"``).

        Forked workers then inherit the loaded modules instead of each
        importing them again (about half a second of CPU per worker per
        pool).  Degree-OPT sweeps, inline (``workers=1``) sweeps and
        duck-typed specs without an ``opt_mode`` never load it here; a cell
        that needs it imports it on its first solve.
        """
        if self.workers > 1 and any(
            getattr(self._spec(cell), "opt_mode", "degree") != "degree" for cell in misses
        ):
            load_lp_solver()

    def budget_summary(self) -> Optional[str]:
        """The last governed run's one-line budget summary (``None`` when
        no bounded budget has driven a sweep yet)."""
        if self._governor is None:
            return None
        return self._governor.summary()

    def _trace_path(self, cell: SweepCell) -> Optional[str]:
        """The per-cell trace file: an explicit ``trace_paths`` entry wins
        (``repro run --trace FILE`` names the exact file), else a
        sanitised name under ``trace_dir``, else ``None``."""
        explicit = self.trace_paths.get(cell)
        if explicit is not None:
            return explicit
        if self.trace_dir is None:
            return None
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "-" for ch in cell.scenario
        )
        name = f"{safe}__seed{cell.seed}__{cell.engine}.jsonl"
        return str(Path(self.trace_dir) / name)

    def sweep(
        self,
        scenarios: Iterable[str],
        seeds: Sequence[int] = (0,),
        engines: Optional[Sequence[str]] = None,
    ) -> List[CellResult]:
        """Run the full scenario x seed x engine grid and return all results."""
        return list(self.run_cells(expand_cells(scenarios, seeds, engines)))
