"""The tracing layer: byte parity with tracing on, span-tree identity,
live round stamps on every tier, and the JSONL schema validator.

The load-bearing contract: attaching a tracer never changes what a run
computes.  ``result_bytes`` covers the full result -- per-node outputs,
weights, validation flags, and the complete ``RunMetrics`` trace -- so
"traced == plain" here means byte-identical executions, on all four
tiers, with and without a fault plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import RunSpec, Session
from repro.congest.errors import NonConvergenceError
from repro.congest.simulator import run_algorithm
from repro.core.unweighted import UnweightedMDSAlgorithm
from repro.faults import AdversarialEngine, fault_model
from repro.faults.session import FaultSession
from repro.graphs import large_scale
from repro.graphs.generators import forest_union_graph
from repro.obs.trace import (
    ROUND_STAMPS,
    TRACE_SCHEMA_VERSION,
    FileTracer,
    NullTracer,
    load_trace,
    span_tree,
    stamp_round,
    validate_trace,
)
from repro.run.result import result_bytes

ENGINES = ("reference", "batched", "kernel")

#: Traced-parity tiers: ``(engine, shards, CSR input)``.
TIERS = {
    "reference": ("reference", None, False),
    "batched": ("batched", None, False),
    "kernel": ("kernel", None, False),
    "kernel-csr": ("kernel", None, True),
    "sharded": ("sharded", 2, False),
}

#: Fields that legitimately differ between engines (or between runs) in a
#: trace: the executing engine and everything wall-clock.
_ENGINE_FIELDS = ("run_id", "engine_used", "wall_s", "ru_maxrss_kb")


def _graph():
    return forest_union_graph(60, alpha=3, seed=9)


def _crash5():
    return dataclasses.replace(fault_model("crash5"), seed=5)


def _structural(entry):
    """A span tree with engine identity and timing stripped."""
    run = {k: v for k, v in entry["run"].items() if k not in _ENGINE_FIELDS}
    run["metrics"] = {
        k: v for k, v in entry["run"]["metrics"].items() if k != "engine_used"
    }
    phases = [
        {k: v for k, v in phase.items() if k not in ("run_id", "wall_s")}
        for phase in entry["phases"]
    ]
    rounds = [
        {k: v for k, v in record.items() if k not in ("run_id", "t_start_s")}
        for record in entry["rounds"]
    ]
    return run, phases, rounds


def _live_starts(path, rounds):
    """The one run's round start times, checked valid, live and ordered."""
    records = load_trace(path)
    assert validate_trace(records) == []
    (entry,) = span_tree(records).values()
    starts = [record["t_start_s"] for record in entry["rounds"]]
    assert len(starts) == rounds
    assert all(isinstance(start, float) and start >= 0.0 for start in starts)
    assert starts == sorted(starts)
    return starts


class TestTracedByteParity:
    @pytest.mark.parametrize(
        "faulted,tier",
        [(False, tier) for tier in TIERS]
        + [(True, tier) for tier in TIERS if tier != "sharded"],
        ids=lambda value: {False: "fault-free", True: "crash5"}.get(value, value),
    )
    def test_traced_run_is_byte_identical_to_plain(self, tmp_path, faulted, tier):
        engine, shards, csr = TIERS[tier]
        spec = RunSpec(
            graph=large_scale.large_grid(8, 8) if csr else _graph(),
            algorithm="deterministic",
            alpha=2 if csr else 3,
            seed=11,
            engine=engine,
            shards=shards,
            faults=_crash5() if faulted else None,
        )
        plain = Session().run(spec)
        with FileTracer(tmp_path / "trace.jsonl") as tracer:
            traced = Session().run(spec, tracer=tracer)
        assert result_bytes(traced) == result_bytes(plain)
        _live_starts(tmp_path / "trace.jsonl", traced.rounds)

    def test_null_tracer_takes_the_untraced_path(self):
        spec = RunSpec(graph=_graph(), algorithm="deterministic", alpha=3, seed=3)
        plain = Session().run(spec)
        nulled = Session(tracer=NullTracer()).run(spec)
        assert result_bytes(nulled) == result_bytes(plain)

    def test_traced_fault_free_run_builds_no_fault_session(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fault-free run built fault machinery")

        monkeypatch.setattr(AdversarialEngine, "__init__", refuse)
        monkeypatch.setattr(FaultSession, "__init__", refuse)
        spec = RunSpec(graph=_graph(), algorithm="deterministic", alpha=3, seed=5)
        with FileTracer(tmp_path / "plain.jsonl") as tracer:
            result = Session().run(spec, tracer=tracer)
        _live_starts(tmp_path / "plain.jsonl", result.rounds)

    def test_traced_csr_kernel_run_is_byte_identical(self, tmp_path):
        # The weighted primal-dual program on a streamed CSR graph: the
        # fault-free fast path whose broadcasts are never expanded into
        # edges stamps its rounds live like every other tier.
        csr = large_scale.random_integer_weights(
            large_scale.large_preferential_attachment(300, attachment=3, seed=4),
            seed=4,
        )
        spec = RunSpec(graph=csr, algorithm="weighted", alpha=3, engine="kernel")
        plain = Session().run(spec)
        with FileTracer(tmp_path / "csr.jsonl") as tracer:
            traced = Session().run(spec, tracer=tracer)
        assert result_bytes(traced) == result_bytes(plain)
        _live_starts(tmp_path / "csr.jsonl", traced.rounds)


class TestRoundStamps:
    def test_no_stamp_list_outside_a_run(self):
        assert ROUND_STAMPS.get() is None
        stamp_round()  # a no-op, not an error
        assert ROUND_STAMPS.get() is None

    @pytest.mark.parametrize("engine", ENGINES + ("sharded",))
    def test_failed_run_leaves_no_stamp_list_installed(self, tmp_path, engine):
        spec = RunSpec(
            graph=_graph(), algorithm="deterministic", alpha=3, seed=4, engine=engine
        )
        with pytest.raises(NonConvergenceError):
            Session().run(dataclasses.replace(spec, max_rounds=1))
        assert ROUND_STAMPS.get() is None
        with FileTracer(tmp_path / "after.jsonl") as tracer:
            result = Session().run(spec, tracer=tracer)
        _live_starts(tmp_path / "after.jsonl", result.rounds)

    @pytest.mark.parametrize(
        "faulted,engine",
        [(False, engine) for engine in ENGINES + ("sharded",)]
        + [(True, engine) for engine in ENGINES],
        ids=lambda value: {False: "fault-free", True: "crash5"}.get(value, value),
    )
    def test_every_round_loop_stamps_each_executed_round(self, faulted, engine):
        if faulted:
            engine = AdversarialEngine(_crash5().materialize(_graph()), inner=engine)
        stamps = []
        token = ROUND_STAMPS.set(stamps)
        try:
            result = run_algorithm(
                _graph(), UnweightedMDSAlgorithm(), alpha=3, engine=engine
            )
        finally:
            ROUND_STAMPS.reset(token)
        assert len(stamps) == result.metrics.rounds
        assert stamps == sorted(stamps)


class TestSpanTreeIdentity:
    @pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "crash5"])
    def test_identical_trees_across_engines(self, tmp_path, faulted):
        path = tmp_path / "grid.jsonl"
        for engine in ENGINES:
            spec = RunSpec(
                graph=_graph(),
                algorithm="deterministic",
                alpha=3,
                seed=11,
                engine=engine,
                faults=_crash5() if faulted else None,
            )
            with FileTracer(path) as tracer:
                Session().run(spec, tracer=tracer)
        records = load_trace(path)
        assert validate_trace(records) == []
        tree = span_tree(records)
        assert len(tree) == len(ENGINES)
        shapes = [_structural(entry) for entry in tree.values()]
        assert all(shape == shapes[0] for shape in shapes)

    def test_run_span_contents(self, tmp_path):
        path = tmp_path / "one.jsonl"
        spec = RunSpec(graph=_graph(), algorithm="deterministic", alpha=3, seed=2)
        with FileTracer(path) as tracer:
            result = Session().run(spec, tracer=tracer)
        (entry,) = span_tree(load_trace(path)).values()
        run = entry["run"]
        assert run["algorithm"] == "deterministic"
        assert run["n"] == 60
        assert run["seed"] == 2
        assert run["rounds"] == result.rounds
        assert run["metrics"]["total_messages"] == result.metrics.total_messages
        assert run["ru_maxrss_kb"] is None or run["ru_maxrss_kb"] > 0
        assert [phase["phase"] for phase in entry["phases"]] == [
            "compile",
            "execute",
            "package",
        ]
        _live_starts(path, result.rounds)


class TestFileTracerAndValidator:
    def test_closed_tracer_refuses_to_emit(self, tmp_path):
        tracer = FileTracer(tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            tracer.emit({"type": "event", "name": "x"})

    def test_run_ids_are_process_unique_across_tracers(self, tmp_path):
        first = FileTracer(tmp_path / "a.jsonl")
        second = FileTracer(tmp_path / "b.jsonl")
        ids = {first.next_run_id(), second.next_run_id(), first.next_run_id()}
        first.close()
        second.close()
        assert len(ids) == 3

    def test_validator_flags_duplicate_run_ids(self):
        run = _run_span(7, rounds=0)
        problems = validate_trace([run, dict(run)])
        assert any("duplicate run_id" in problem for problem in problems)

    def test_validator_flags_orphans_and_round_count_drift(self):
        orphan_phase = {"type": "phase", "run_id": 99, "phase": "execute", "wall_s": 0.0}
        problems = validate_trace([_run_span(0, rounds=2), _round(0), orphan_phase])
        assert any("unknown run_id" in problem for problem in problems)
        assert any("1 round records for a 2-round run" in problem for problem in problems)

    def test_validator_accepts_live_non_decreasing_starts(self):
        records = [_run_span(0, rounds=3), _round(0, 0.0), _round(1, 0.5), _round(2, 0.5)]
        assert validate_trace(records) == []

    def test_validator_rejects_a_missing_start(self):
        record = _round(0)
        del record["t_start_s"]
        problems = validate_trace([_run_span(0, rounds=1), record])
        assert any("missing fields ['t_start_s']" in problem for problem in problems)

    def test_validator_rejects_a_null_start(self):
        problems = validate_trace([_run_span(0, rounds=1), _round(0, None)])
        assert any("t_start_s is None" in problem for problem in problems)

    def test_validator_rejects_a_negative_start(self):
        problems = validate_trace([_run_span(0, rounds=1), _round(0, -0.001)])
        assert any("negative" in problem for problem in problems)

    def test_validator_rejects_a_start_before_the_previous_round(self):
        records = [_run_span(0, rounds=2), _round(0, 0.2), _round(1, 0.1)]
        problems = validate_trace(records)
        assert any("lower than the previous round" in problem for problem in problems)
        # Order is checked per run: another run may start its clock lower.
        records += [_run_span(1, rounds=1), _round(0, 0.0, run_id=1)]
        assert len(validate_trace(records)) == len(problems)

    def test_module_cli_validates_a_real_trace(self, tmp_path, capsys):
        from repro.obs.trace import main

        path = tmp_path / "cli.jsonl"
        spec = RunSpec(graph=_graph(), algorithm="deterministic", alpha=3, seed=1)
        with FileTracer(path) as tracer:
            Session().run(spec, tracer=tracer)
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out
        path.write_text('{"type": "nope"}\n')
        assert main([str(path)]) == 1

    def test_module_cli_rejects_an_empty_file(self, tmp_path, capsys):
        from repro.obs.trace import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        assert "EMPTY" in captured.err and "ok" not in captured.out
        # The library check still reads an empty record list as a valid trace.
        assert validate_trace([]) == []


def _run_span(run_id, *, rounds):
    return {
        "type": "run",
        "trace_schema": TRACE_SCHEMA_VERSION,
        "run_id": run_id,
        "algorithm": "a",
        "n": 1,
        "seed": 0,
        "rounds": rounds,
        "wall_s": 0.0,
        "metrics": {},
    }


def _round(round_index, t_start_s=0.0, *, run_id=0):
    return {
        "type": "round",
        "run_id": run_id,
        "round_index": round_index,
        "messages": 0,
        "bits": 0,
        "max_message_bits": 0,
        "active_nodes": 0,
        "dropped_messages": 0,
        "delayed_messages": 0,
        "crashed_nodes": 0,
        "t_start_s": t_start_s,
    }
