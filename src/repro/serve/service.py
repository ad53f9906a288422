"""The long-lived execution service behind ``repro serve``.

:class:`RunService` is the transport-free core (the HTTP layer in
:mod:`repro.serve.http` is a thin shell around it, and tests drive it
directly): a persistent :class:`~repro.run.session.Session` fronted by the
canonical wire codec and three layers of work avoidance --

1. **compiled-graph sharing** -- the graph portion of every request
   (graph + weights + graph_seed, hashed in canonical wire form) is
   interned in an LRU: requests naming the same graph are rewritten onto
   the one resident source object, so the session's identity-keyed
   compiled-state cache (network, CSR layout, degeneracy bound) hits
   across requests; evicted entries are invalidated out of the session so
   memory is bounded by the LRU capacity;
2. **in-flight deduplication** -- identical requests racing each other
   share one future: the first arrival executes, the rest await the same
   outcome (success *and* failure), so a thundering herd costs one run;
3. **content-addressed response cache** -- completed responses are stored
   in the same :class:`~repro.orchestration.cache.ResultCache` root the
   sweep runner uses, keyed by the canonical wire hash (plus the code
   version), so repeats -- across requests *and* across server restarts --
   are answered from disk without executing anything.

Every response carries a metrics envelope: the engine that ran, rounds,
whether the answer was a cache ``hit`` / ``miss`` / ``inflight`` join,
whether the compiled graph was shared, and the request's wall time.
Responses embed the full :class:`~repro.run.result.DominatingSetResult`
(pickle, base64) alongside the JSON summary, which is what makes the
service's byte-parity contract checkable end to end:
``result_bytes(decode_result_b64(response)) ==
result_bytes(Session().run(spec))``.

Execution runs on a single worker thread: the session's compiled state is
deliberately not thread-safe, and the service's concurrency story is
dedup + caches, not parallel simulation.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import pickle
import sys
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.congest.errors import CongestError, EngineCapabilityError
from repro.obs.metrics import MetricsRegistry
from repro.orchestration.cache import ResultCache, cache_key
from repro.run import RunSpec, Session
from repro.run.result import DominatingSetResult
from repro.run.wire import WireFormatError, spec_wire_hash

__all__ = [
    "RequestError",
    "RunService",
    "ServiceStats",
    "decode_result_b64",
    "encode_result_b64",
    "summarize_result",
]


class RequestError(Exception):
    """A request the service rejects, with an HTTP status and JSON body."""

    def __init__(self, status: int, error: Dict[str, Any]):
        self.status = status
        self.body = {"ok": False, "error": error}
        super().__init__(error.get("message", "request error"))


def _json_node(node: Any) -> Any:
    return node if isinstance(node, (int, str)) and not isinstance(node, bool) else repr(node)


def summarize_result(result: DominatingSetResult) -> Dict[str, Any]:
    """The JSON-facing summary of a run result (sorted, deterministic)."""
    return {
        "algorithm": result.algorithm,
        "dominating_set": sorted(
            (_json_node(node) for node in result.dominating_set), key=repr
        ),
        "size": len(result.dominating_set),
        "weight": result.weight,
        "rounds": result.rounds,
        "is_valid": result.is_valid,
        "guarantee": result.guarantee,
        "engine_used": result.engine_used,
    }


def encode_result_b64(result: DominatingSetResult) -> str:
    """The full result object, pickled and base64-wrapped for the wire."""
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def decode_result_b64(payload: str) -> DominatingSetResult:
    """Inverse of :func:`encode_result_b64` (for parity checks and clients)."""
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


@dataclass
class ServiceStats:
    """Monotonic counters exposed at ``/stats`` (and asserted by CI smoke)."""

    requests: int = 0
    results: int = 0
    errors: int = 0
    executions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    inflight_joins: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    graph_evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class RunService:
    """A persistent session serving RunSpec wire payloads.

    Parameters
    ----------
    cache:
        Response cache (:class:`ResultCache` or ``None`` to disable); safe
        to share a root with sweep record entries.
    graph_capacity:
        How many distinct (graph, weights, graph_seed) sources stay
        compiled; least-recently-used entries beyond it are evicted and
        invalidated out of the session.
    engine:
        Default engine for specs that leave ``engine`` null.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        graph_capacity: int = 8,
        engine: Optional[str] = None,
    ):
        if graph_capacity < 1:
            raise ValueError(f"graph_capacity must be >= 1, got {graph_capacity}")
        self.session = Session(engine=engine)
        self.cache = cache
        self.graph_capacity = graph_capacity
        self.stats = ServiceStats()
        self.metrics = MetricsRegistry()
        self._graphs: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
        self._inflight: Dict[str, "asyncio.Future[Tuple[str, Any]]"] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-run"
        )

    # -- request decoding --------------------------------------------------

    def _normalize(self, payload: Any) -> Tuple[RunSpec, Dict[str, Any]]:
        """Decode, validate, and re-encode to the canonical wire form.

        The round through ``to_dict`` fills defaults and normalises field
        order, so two requests that *mean* the same run hash to the same
        graph/run keys however sparse their JSON was.
        """
        try:
            spec = RunSpec.from_dict(payload)
            return spec, spec.to_dict()
        except WireFormatError as error:
            raise RequestError(
                400,
                {
                    "kind": "wire",
                    "field": error.field,
                    "message": str(error),
                },
            ) from None

    # -- compiled-graph interning -----------------------------------------

    def _graph_key(self, wire: Mapping[str, Any]) -> str:
        return spec_wire_hash(
            {
                "graph": wire["graph"],
                "weights": wire["weights"],
                "graph_seed": wire["graph_seed"],
            }
        )

    def _intern_graph(self, spec: RunSpec, wire: Mapping[str, Any]) -> Tuple[RunSpec, str]:
        key = self._graph_key(wire)
        entry = self._graphs.get(key)
        if entry is not None:
            self._graphs.move_to_end(key)
            self.stats.graph_hits += 1
            graph, weights = entry
            if graph is not spec.graph or weights is not spec.weights:
                spec = dataclasses.replace(spec, graph=graph, weights=weights)
            return spec, "hit"
        self.stats.graph_misses += 1
        self._graphs[key] = (spec.graph, spec.weights)
        while len(self._graphs) > self.graph_capacity:
            _, (evicted, _weights) = self._graphs.popitem(last=False)
            self.session.invalidate(evicted)
            self.stats.graph_evictions += 1
        return spec, "miss"

    # -- execution ---------------------------------------------------------

    def _run_key(self, wire: Mapping[str, Any]) -> str:
        engine = wire["engine"] if wire["engine"] is not None else "default"
        return cache_key(spec_wire_hash(wire), wire["seed"], f"serve:{engine}")

    def _execute(self, spec: RunSpec) -> Dict[str, Any]:
        self.stats.executions += 1
        result = self.session.run(spec)
        return {
            "summary": summarize_result(result),
            "result_b64": encode_result_b64(result),
        }

    @staticmethod
    def _execution_error(error: BaseException) -> RequestError:
        if isinstance(error, EngineCapabilityError):
            algorithm, engine, fault_model = error.cell
            return RequestError(
                422,
                {
                    "kind": "capability",
                    "message": str(error),
                    "cell": {
                        "algorithm": algorithm,
                        "engine": engine,
                        "fault_model": fault_model,
                    },
                },
            )
        if isinstance(error, CongestError):
            return RequestError(
                422,
                {
                    "kind": "execution",
                    "error_type": type(error).__name__,
                    "message": str(error),
                },
            )
        return RequestError(
            500, {"kind": "internal", "error_type": type(error).__name__, "message": str(error)}
        )

    def _envelope(
        self, stored: Mapping[str, Any], origin: str, graph_origin: Optional[str],
        run_key: str, started: float,
    ) -> Dict[str, Any]:
        summary = stored["summary"]
        self.stats.results += 1
        return {
            "ok": True,
            "result": summary,
            "result_b64": stored["result_b64"],
            "metrics": {
                "cache": origin,
                "graph_cache": graph_origin,
                "engine_used": summary["engine_used"],
                "rounds": summary["rounds"],
                "wall_time_s": round(time.perf_counter() - started, 6),
                "run_key": run_key,
            },
        }

    async def run(self, payload: Any) -> Dict[str, Any]:
        """Serve one RunSpec payload; returns the response envelope.

        Raises :class:`RequestError` for anything the caller did wrong
        (undecodable payload, capability-matrix miss, failed execution);
        the HTTP layer maps it onto the status and body verbatim.

        Every request lands in the Prometheus registry twice: a count under
        its outcome label (``hit``/``inflight``/``executed``/``error``) and
        an observation in the request-latency histogram -- the ``/metrics``
        counterpart of the per-response metrics envelope.
        """
        started = time.perf_counter()
        outcome = "error"
        try:
            envelope = await self._run_request(payload, started)
            outcome = {"hit": "hit", "inflight": "inflight"}.get(
                envelope["metrics"]["cache"], "executed"
            )
            return envelope
        finally:
            self.metrics.counter(
                "repro_serve_requests_total",
                "Requests served, by outcome.",
                outcome=outcome,
            ).inc()
            self.metrics.histogram(
                "repro_serve_request_seconds",
                "Request wall time, seconds.",
            ).observe(time.perf_counter() - started)

    async def _run_request(self, payload: Any, started: float) -> Dict[str, Any]:
        self.stats.requests += 1
        try:
            spec, wire = self._normalize(payload)
            run_key = self._run_key(wire)
            if self.cache is not None:
                stored = self.cache.get_payload(run_key)
                if stored is not None:
                    self.stats.cache_hits += 1
                    return self._envelope(stored, "hit", None, run_key, started)
                self.stats.cache_misses += 1
            pending = self._inflight.get(run_key)
            if pending is not None:
                self.stats.inflight_joins += 1
                outcome, value = await pending
                if outcome == "error":
                    raise RequestError(value.status, dict(value.body["error"]))
                return self._envelope(value, "inflight", None, run_key, started)
            spec, graph_origin = self._intern_graph(spec, wire)
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[Tuple[str, Any]]" = loop.create_future()
            self._inflight[run_key] = future
            try:
                try:
                    stored = await loop.run_in_executor(
                        self._executor, self._execute, spec
                    )
                except BaseException as error:
                    request_error = self._execution_error(error)
                    future.set_result(("error", request_error))
                    raise request_error from error
                future.set_result(("ok", stored))
            finally:
                self._inflight.pop(run_key, None)
            if self.cache is not None:
                self.cache.put_payload(
                    run_key,
                    dict(stored),
                    meta={
                        "kind": "serve-run",
                        "algorithm": wire["algorithm"],
                        "engine": wire["engine"] or "default",
                        "seed": wire["seed"],
                    },
                )
            return self._envelope(stored, "miss", graph_origin, run_key, started)
        except RequestError:
            self.stats.errors += 1
            raise

    # -- introspection -----------------------------------------------------

    def capabilities(self) -> Dict[str, Any]:
        """What this server can run -- names usable in wire payloads."""
        from repro.congest.engine import available_engines
        from repro.faults import FAULT_MODELS
        from repro.graphs.ingest import available_graphs
        from repro.orchestration.registry import FAMILY_BUILDERS, WEIGHT_SCHEMES
        from repro.run.algorithms import available_algorithms
        from repro.run.spec import VALIDATION_POLICIES
        from repro.run.wire import WIRE_VERSION

        return {
            "wire_version": WIRE_VERSION,
            "algorithms": list(available_algorithms()),
            "engines": list(available_engines()),
            "fault_models": sorted(FAULT_MODELS),
            "graph_families": sorted(FAMILY_BUILDERS),
            "weight_schemes": sorted(WEIGHT_SCHEMES),
            "graphs": list(available_graphs()),
            "validation_policies": list(VALIDATION_POLICIES),
        }

    def stats_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "ok": True,
            "stats": self.stats.as_dict(),
            "graphs_resident": len(self._graphs),
            "inflight": len(self._inflight),
            "compiled_graphs": self.session.compiled_count,
        }
        if self.cache is not None:
            payload["cache"] = {
                "root": str(self.cache.root),
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "writes": self.cache.stats.writes,
            }
        return payload

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        Request counters and the latency histogram accumulate in
        :meth:`run`; the point-in-time gauges (graph LRU, in-flight dedup,
        compiled session state, result-cache traffic) are refreshed here at
        scrape time.
        """
        gauge = self.metrics.gauge
        gauge(
            "repro_serve_graphs_resident",
            "Distinct graph sources interned in the LRU.",
        ).set(len(self._graphs))
        gauge(
            "repro_serve_inflight",
            "Requests currently executing or awaited by joiners.",
        ).set(len(self._inflight))
        gauge(
            "repro_serve_compiled_graphs",
            "Graphs compiled in the resident session.",
        ).set(self.session.compiled_count)
        gauge(
            "repro_serve_inflight_joins",
            "Requests that joined an identical in-flight execution.",
        ).set(self.stats.inflight_joins)
        if self.cache is not None:
            for op, value in (
                ("hits", self.cache.stats.hits),
                ("misses", self.cache.stats.misses),
                ("writes", self.cache.stats.writes),
            ):
                gauge(
                    "repro_serve_result_cache",
                    "Result-cache traffic, by operation.",
                    op=op,
                ).set(value)
        text = self.metrics.render()
        # The sharded tier keeps its own registry (runs/rounds/halo bytes);
        # expose it on the same scrape when the tier has been imported --
        # never import it just to render zeros.
        sharded = sys.modules.get("repro.congest.sharded.engine")
        if sharded is not None:
            extra = sharded.sharded_metrics.render()
            if extra.strip():
                text = text + extra
        return text

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        self.session.invalidate()
        self._graphs.clear()

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
