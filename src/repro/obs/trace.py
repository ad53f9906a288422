"""Round-level execution tracing: span records, JSONL sink, schema tools.

A trace is a flat stream of JSON records (one per line in a
:class:`FileTracer` file) describing a tree of spans:

``run`` span
    One per :meth:`repro.run.Session.run` execution: algorithm, graph size,
    seed, engine, rounds, total wall time, and the process peak RSS
    (``resource.getrusage``).  Carries the canonical metrics serialization
    (:meth:`repro.congest.metrics.RunMetrics.to_dict`).
``phase`` spans
    ``compile`` (graph canonicalisation + algorithm resolution),
    ``execute`` (the engine's round loop) and ``package`` (validation +
    result assembly), each with its wall time, keyed to the run by
    ``run_id``.
``round`` records
    One per communication round, emitted from the run's
    :class:`~repro.congest.metrics.RoundMetrics` -- messages delivered,
    dropped and delayed, payload bits, active/crashed nodes.  Because the
    per-round metrics are byte-identical across the execution tiers (the
    parity discipline of the congest test-suite), the emitted span tree is
    identical whichever engine executed the run; only the timing fields
    differ.  Each record also carries ``t_start_s`` -- the round's start
    time relative to the run span, stamped live by the round loop.

Round start times come from one stamp list per run.
:meth:`repro.run.Session.run` installs a fresh list in
:data:`ROUND_STAMPS` around every execution, traced or not, and every round
loop -- the reference and batched plain loops, the shared hooked loop
(``Engine._execute_hooked``), the kernel driver
(:class:`~repro.congest.kernels.faults.FaultedRun`) and the sharded
coordinator -- calls :func:`stamp_round` once per executed round, where it
creates that round's metrics.  Traced and untraced runs therefore take the
same code path on every tier; a tracer only decides whether the stamps are
emitted.  Outside a session run no list is installed and
:func:`stamp_round` does nothing.

``python -m repro.obs.trace FILE.jsonl`` validates a trace against the
schema (the CI smoke job runs it after ``repro run --trace``).
"""

from __future__ import annotations

import itertools
import json
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Sequence, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "FileTracer",
    "ROUND_STAMPS",
    "stamp_round",
    "emit_run_trace",
    "load_trace",
    "validate_trace",
    "span_tree",
    "main",
]

#: Bumped when the record layout changes; stamped on every ``run`` span.
TRACE_SCHEMA_VERSION = 2

#: The record types a valid trace may contain.
_RECORD_TYPES = ("run", "phase", "round", "event")

#: The phase names a ``run`` span decomposes into.
_PHASES = ("compile", "execute", "package")


class Tracer:
    """Span/event sink protocol.

    Implementations override :meth:`emit`; ``enabled`` is the zero-overhead
    switch -- every integration point checks it (or checks ``tracer is
    None``) *once per run*, never per round, so a disabled tracer costs
    nothing on the hot paths.
    """

    enabled: bool = True

    #: Process-wide run-id source: distinct tracers appending to one file
    #: never collide *within a process*.  Across processes ids restart at 0,
    #: so whoever owns the file must start it fresh (the sweep runner
    #: truncates every trace target before executing).
    _run_ids = itertools.count()

    def next_run_id(self) -> int:
        """A process-unique monotonic id tying one run's records together."""
        return next(Tracer._run_ids)

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point-in-time annotation record."""
        self.emit({"type": "event", "name": name, **fields})


class NullTracer(Tracer):
    """The no-op default: ``enabled`` is false, :meth:`emit` discards."""

    enabled = False

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class FileTracer(Tracer):
    """JSONL tracer: one sorted-key JSON object per line, appended.

    Usable as a context manager; :meth:`close` is idempotent.  Records are
    flushed per emit so a trace survives a crashed (or killed) run up to
    the last complete span.
    """

    def __init__(self, path: Union[str, Path]):
        super().__init__()
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    def emit(self, record: Dict[str, Any]) -> None:
        if self._stream is None:
            raise ValueError(f"FileTracer({self.path}) is closed")
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "FileTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: The current run's ``perf_counter`` round stamps, or ``None`` outside a run.
ROUND_STAMPS: ContextVar[Optional[List[float]]] = ContextVar(
    "repro_round_stamps", default=None
)


def stamp_round() -> None:
    """Stamp the start of one executed round into the current run's list."""
    stamps = ROUND_STAMPS.get()
    if stamps is not None:
        stamps.append(time.perf_counter())


def emit_run_trace(
    tracer: Tracer,
    *,
    algorithm: str,
    n: int,
    seed: int,
    result: Any,
    phase_seconds: Dict[str, float],
    wall_s: float,
    round_starts: Sequence[float] = (),
    fault_model: Optional[str] = None,
) -> int:
    """Emit one run's complete span tree; returns the assigned ``run_id``.

    The round records are derived from ``result.metrics.per_round`` *after*
    the run, which is what guarantees identical trees across engines: the
    engines' metrics are byte-identical by the parity discipline, so the
    only per-engine differences in a trace are ``engine_used`` and the
    timing fields.  ``round_starts`` holds each executed round's start in
    seconds since the run span began; a round without one (an engine that
    never calls :func:`stamp_round`) gets ``t_start_s`` null, which
    :func:`validate_trace` rejects.
    """
    metrics = result.metrics
    run_id = tracer.next_run_id()
    tracer.emit(
        {
            "type": "run",
            "trace_schema": TRACE_SCHEMA_VERSION,
            "run_id": run_id,
            "algorithm": algorithm,
            "n": n,
            "seed": seed,
            "fault_model": fault_model,
            "engine_used": metrics.engine_used,
            "rounds": metrics.rounds,
            "wall_s": round(wall_s, 6),
            "ru_maxrss_kb": _peak_rss_kb(),
            "metrics": metrics.to_dict(),
        }
    )
    for phase in _PHASES:
        tracer.emit(
            {
                "type": "phase",
                "run_id": run_id,
                "phase": phase,
                "wall_s": round(phase_seconds.get(phase, 0.0), 6),
            }
        )
    for index, round_metrics in enumerate(metrics.per_round):
        record: Dict[str, Any] = {"type": "round", "run_id": run_id}
        record.update(round_metrics.to_dict())
        record["t_start_s"] = (
            round(round_starts[index], 6) if index < len(round_starts) else None
        )
        tracer.emit(record)
    return run_id


def _peak_rss_kb() -> Optional[int]:
    """The process memory high-water in KiB, or ``None`` where unavailable.

    Unit handling (Linux KiB vs macOS bytes) lives in exactly one place:
    :func:`repro.obs.metrics.peak_rss_kib`.
    """
    from repro.obs.metrics import peak_rss_kib

    return peak_rss_kib() or None


# ---------------------------------------------------------------------------
# Reading and validating traces
# ---------------------------------------------------------------------------


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into its record list."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise ValueError(f"{path}:{line_number}: not valid JSON: {error}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_number}: record is not an object")
            records.append(record)
    return records


_RUN_REQUIRED = ("run_id", "algorithm", "n", "seed", "rounds", "wall_s", "metrics")
_ROUND_REQUIRED = (
    "run_id",
    "round_index",
    "messages",
    "bits",
    "max_message_bits",
    "active_nodes",
    "dropped_messages",
    "delayed_messages",
    "crashed_nodes",
    "t_start_s",
)


def validate_trace(records: List[Dict[str, Any]]) -> List[str]:
    """Check a record stream against the trace schema; returns problems.

    An empty list means the trace is valid.  Checks are structural: record
    types, required fields, the schema version stamp, phase names, that
    every ``phase``/``round`` record points at an emitted ``run`` span with
    a consistent round count, and that every round's ``t_start_s`` is a
    non-negative number no lower than the previous round's in its run.
    """
    problems: List[str] = []
    runs: Dict[int, Dict[str, Any]] = {}
    rounds_seen: Dict[int, int] = {}
    last_start: Dict[int, float] = {}
    for index, record in enumerate(records):
        kind = record.get("type")
        where = f"record {index}"
        if kind not in _RECORD_TYPES:
            problems.append(f"{where}: unknown type {kind!r}")
            continue
        if kind == "run":
            if record.get("trace_schema") != TRACE_SCHEMA_VERSION:
                problems.append(
                    f"{where}: trace_schema is {record.get('trace_schema')!r}, "
                    f"expected {TRACE_SCHEMA_VERSION}"
                )
            missing = [field for field in _RUN_REQUIRED if field not in record]
            if missing:
                problems.append(f"{where}: run span missing fields {missing}")
                continue
            if record["run_id"] in runs:
                problems.append(
                    f"{where}: duplicate run_id {record['run_id']!r} "
                    "(rounds of colliding runs would pool)"
                )
                continue
            runs[record["run_id"]] = record
        elif kind == "phase":
            if record.get("phase") not in _PHASES:
                problems.append(f"{where}: unknown phase {record.get('phase')!r}")
            if record.get("run_id") not in runs:
                problems.append(f"{where}: phase for unknown run_id {record.get('run_id')!r}")
        elif kind == "round":
            missing = [field for field in _ROUND_REQUIRED if field not in record]
            if missing:
                problems.append(f"{where}: round record missing fields {missing}")
                continue
            run_id = record["run_id"]
            if run_id not in runs:
                problems.append(f"{where}: round for unknown run_id {run_id!r}")
                continue
            rounds_seen[run_id] = rounds_seen.get(run_id, 0) + 1
            start = record["t_start_s"]
            if isinstance(start, bool) or not isinstance(start, (int, float)):
                problems.append(f"{where}: t_start_s is {start!r}, expected a number")
            elif start < 0:
                problems.append(f"{where}: t_start_s {start!r} is negative")
            elif start < last_start.get(run_id, 0.0):
                problems.append(
                    f"{where}: t_start_s {start!r} is lower than the previous "
                    f"round's {last_start[run_id]!r}"
                )
            else:
                last_start[run_id] = start
    for run_id, run in runs.items():
        expected = run["rounds"]
        seen = rounds_seen.get(run_id, 0)
        if seen != expected:
            problems.append(
                f"run {run_id}: {seen} round records for a {expected}-round run"
            )
    return problems


def span_tree(records: List[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    """Group a flat record stream into per-run trees.

    Returns ``{run_id: {"run": <run span>, "phases": [...], "rounds":
    [...]}}`` with phases and rounds in emission order.
    """
    tree: Dict[int, Dict[str, Any]] = {}
    for record in records:
        run_id = record.get("run_id")
        if run_id is None:
            continue
        entry = tree.setdefault(run_id, {"run": None, "phases": [], "rounds": []})
        kind = record.get("type")
        if kind == "run":
            entry["run"] = record
        elif kind == "phase":
            entry["phases"].append(record)
        elif kind == "round":
            entry["rounds"].append(record)
    return tree


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.trace FILE...`` -- validate trace files."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Validate JSONL trace files against the span schema.",
    )
    parser.add_argument("paths", nargs="+", metavar="FILE.jsonl")
    arguments = parser.parse_args(argv)
    status = 0
    for path in arguments.paths:
        try:
            records = load_trace(path)
        except (OSError, ValueError) as error:
            print(f"{path}: UNREADABLE: {error}", file=sys.stderr)
            status = 1
            continue
        problems = validate_trace(records)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            runs = sum(1 for record in records if record.get("type") == "run")
            print(f"{path}: ok ({len(records)} records, {runs} runs)")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    import sys

    sys.exit(main())
