"""Spans recorded from outside the program, for the traced runs.

A traced run wraps the public functions that ``Session.run``,
``RunService`` and ``SweepRunner`` call into -- the program itself is not
changed.  Each call becomes a span (name, start, end, parent), kept in
memory and written as JSON lines when the run ends.  Parents follow a
context variable, so spans nest correctly per asyncio task; the serve
executor is swapped for one that carries the submitting task's context into
its thread, so a request's execution is a child of that request.

A span's *self time* is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Collects spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": next(self._ids),
            "parent": self._current.get(),
            "name": name,
            **attrs,
        }
        token = self._current.set(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def wrap(
        self,
        fn: Callable,
        name: str,
        annotate: Optional[Callable[[Dict[str, Any], Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``annotate(span, result)``
        may copy facts from the result onto the span."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name) as record:
                    result = await fn(*args, **kwargs)
                    if annotate is not None:
                        annotate(record, result)
                    return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(record, result)
                return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as sink:
            for record in self.spans:
                sink.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: Path) -> List[Dict[str, Any]]:
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


class _ContextExecutor(ThreadPoolExecutor):
    """A thread pool that runs each job in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _serve_annotate(record: Dict[str, Any], envelope: Any) -> None:
    record["cache"] = envelope["metrics"]["cache"]


def layer_targets(recorder: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, replacement)`` for every wrapped layer boundary."""
    import repro.congest.kernels as kernels
    import repro.congest.kernels.baseline as baseline
    import repro.congest.kernels.forest as forest
    import repro.congest.kernels.grid as grid
    import repro.congest.kernels.interleaved as interleaved
    import repro.congest.kernels.primal_dual as primal_dual
    import repro.faults.session as fault_session
    import repro.faults.spec as fault_spec
    import repro.orchestration.cache as cache
    import repro.run.session as session
    import repro.serve.service as service

    wrap = recorder.wrap
    original_kernel_for = kernels.kernel_for

    def kernel_for(algorithm):
        kernel = original_kernel_for(algorithm)
        return None if kernel is None else wrap(kernel, "kernels.execute")

    default_alpha = session.CompiledGraph.__dict__["default_alpha"]
    for_csr = fault_session.FaultSession.__dict__["for_csr"]
    targets: List[Tuple[Any, str, Any]] = [
        (session.Session, "run", wrap(session.Session.run, "run.session")),
        (session.Session, "compile", wrap(session.Session.compile, "run.compile")),
        (
            session.CompiledGraph,
            "default_alpha",
            property(wrap(default_alpha.fget, "run.default_alpha")),
        ),
        (session, "package_result_csr", wrap(session.package_result_csr, "run.package")),
        (grid, "grid_from_csr", wrap(grid.grid_from_csr, "kernels.grid")),
        (kernels, "kernel_for", kernel_for),
        (
            fault_spec.FaultSpec,
            "materialize",
            wrap(fault_spec.FaultSpec.materialize, "faults.materialize"),
        ),
        (
            fault_session.FaultSession,
            "for_csr",
            classmethod(wrap(for_csr.__func__, "faults.session")),
        ),
        (cache.ResultCache, "get_payload", wrap(cache.ResultCache.get_payload, "cache.get_payload")),
        (cache.ResultCache, "put_payload", wrap(cache.ResultCache.put_payload, "cache.put_payload")),
        (cache.ResultCache, "put", wrap(cache.ResultCache.put, "cache.put")),
        (service.RunService, "_normalize", wrap(service.RunService._normalize, "serve.normalize")),
        (service, "encode_result_b64", wrap(service.encode_result_b64, "serve.encode")),
        (
            service.RunService,
            "run",
            wrap(service.RunService.run, "serve.request", annotate=_serve_annotate),
        ),
        (service, "ThreadPoolExecutor", _ContextExecutor),
    ]
    # output_dicts is bound by name inside each kernel module.
    for module in (primal_dual, forest, baseline, interleaved):
        targets.append((module, "output_dicts", wrap(module.output_dicts, "kernels.outputs")))
    return targets


class Wrappers:
    """Installs and removes the layer wrappers (so runs can alternate)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._targets = layer_targets(recorder)
        self._originals = [
            (owner, attribute, owner.__dict__[attribute])
            for owner, attribute, _ in self._targets
        ]

    def install(self) -> None:
        for owner, attribute, replacement in self._targets:
            setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class SpanTree:
    """Parent/child index over recorded spans."""

    def __init__(self, spans: List[Dict[str, Any]]) -> None:
        self.spans = spans
        self.children: Dict[Optional[int], List[Dict[str, Any]]] = {}
        for record in spans:
            self.children.setdefault(record["parent"], []).append(record)

    def roots(self, name: str) -> List[Dict[str, Any]]:
        return [record for record in self.children.get(None, []) if record["name"] == name]

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [record for record in self.spans if record["name"] == name]

    def descendants(self, record: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        for child in self.children.get(record["id"], []):
            yield child
            yield from self.descendants(child)

    def self_time(self, record: Dict[str, Any]) -> float:
        start, end = record["start"], record["end"]
        intervals = sorted(
            (max(start, child["start"]), min(end, child["end"]))
            for child in self.children.get(record["id"], [])
        )
        covered = 0.0
        reach = start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def total(self, record: Dict[str, Any], name: str, own: bool = False) -> float:
        """Seconds spent in ``name`` spans below ``record`` (self time if ``own``)."""
        return sum(
            self.self_time(child) if own else child["end"] - child["start"]
            for child in self.descendants(record)
            if child["name"] == name
        )


def duration(record: Dict[str, Any]) -> float:
    return record["end"] - record["start"]
