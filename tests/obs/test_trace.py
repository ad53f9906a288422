"""The tracing layer: byte parity with tracing on, span-tree identity,
hooks delegation, and the JSONL schema validator.

The load-bearing contract: attaching a tracer never changes what a run
computes.  ``result_bytes`` covers the full result -- per-node outputs,
weights, validation flags, and the complete ``RunMetrics`` trace -- so
"traced == plain" here means byte-identical executions, across all three
engines, with and without a fault plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import RunSpec, Session
from repro.faults import fault_model
from repro.graphs import large_scale
from repro.graphs.generators import forest_union_graph
from repro.obs.trace import (
    FileTracer,
    NullTracer,
    RoundTimer,
    TracingHooks,
    load_trace,
    span_tree,
    validate_trace,
)
from repro.run.result import result_bytes

ENGINES = ("reference", "batched", "kernel")

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


class TestTracedByteParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "crash5"])
    def test_traced_run_is_byte_identical_to_plain(self, tmp_path, engine, faulted):
        spec = RunSpec(
            graph=_graph(),
            algorithm="deterministic",
            alpha=3,
            seed=11,
            engine=engine,
            faults=_crash5() if faulted else None,
        )
        plain = Session().run(spec)
        with FileTracer(tmp_path / "trace.jsonl") as tracer:
            traced = Session().run(spec, tracer=tracer)
        assert result_bytes(traced) == result_bytes(plain)

    def test_null_tracer_takes_the_untraced_path(self):
        spec = RunSpec(graph=_graph(), algorithm="deterministic", alpha=3, seed=3)
        plain = Session().run(spec)
        nulled = Session(tracer=NullTracer()).run(spec)
        assert result_bytes(nulled) == result_bytes(plain)

    def test_traced_csr_kernel_run_is_byte_identical(self, tmp_path):
        csr = large_scale.large_grid(8, 8)
        spec = RunSpec(graph=csr, algorithm="deterministic", alpha=2, engine="kernel")
        plain = Session().run(spec)
        with FileTracer(tmp_path / "csr.jsonl") as tracer:
            traced = Session().run(spec, tracer=tracer)
        assert result_bytes(traced) == result_bytes(plain)
        records = load_trace(tmp_path / "csr.jsonl")
        assert validate_trace(records) == []
        (entry,) = span_tree(records).values()
        # The unfaulted CSR path runs hook-free (its programs must not be
        # distorted at 10^5-node scale), so rounds are derived post-run and
        # carry no live timestamps.
        assert all(record["t_start_s"] is None for record in entry["rounds"])

    def test_traced_faulted_csr_run_carries_live_round_times(self, tmp_path):
        csr = large_scale.large_grid(8, 8)
        spec = RunSpec(
            graph=csr,
            algorithm="deterministic",
            alpha=2,
            engine="kernel",
            faults=_crash5(),
        )
        plain = Session().run(spec)
        with FileTracer(tmp_path / "csr-faulted.jsonl") as tracer:
            traced = Session().run(spec, tracer=tracer)
        assert result_bytes(traced) == result_bytes(plain)
        (entry,) = span_tree(load_trace(tmp_path / "csr-faulted.jsonl")).values()
        assert all(record["t_start_s"] is not None for record in entry["rounds"])


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
        assert len(entry["rounds"]) == result.rounds
        # Network engines run the hooked loop under a tracer: every round
        # carries a live start time, non-decreasing in round order.
        starts = [record["t_start_s"] for record in entry["rounds"]]
        assert all(start is not None for start in starts)
        assert starts == sorted(starts)


class TestTracingHooks:
    def test_begin_round_timestamps_then_delegates(self):
        calls = []

        class Hooks:
            stop_at_limit = True

            def begin_round(self, round_index):
                calls.append(round_index)
                return f"inner-{round_index}"

        timer = RoundTimer()
        proxy = TracingHooks(Hooks(), timer)
        assert proxy.begin_round(0) == "inner-0"
        assert proxy.begin_round(1) == "inner-1"
        assert calls == [0, 1]
        assert [index for index, _ in timer.starts] == [0, 1]
        # Everything else passes straight through.
        assert proxy.stop_at_limit is True

    def test_relative_starts_first_mark_wins(self):
        timer = RoundTimer()
        timer.starts = [(0, 10.0), (1, 11.0), (1, 12.0)]
        assert timer.relative_starts(9.0) == {0: 1.0, 1: 2.0}


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
        run = {
            "type": "run",
            "trace_schema": 1,
            "run_id": 7,
            "algorithm": "a",
            "n": 1,
            "seed": 0,
            "rounds": 0,
            "wall_s": 0.0,
            "metrics": {},
        }
        problems = validate_trace([run, dict(run)])
        assert any("duplicate run_id" in problem for problem in problems)

    def test_validator_flags_orphans_and_round_count_drift(self):
        run = {
            "type": "run",
            "trace_schema": 1,
            "run_id": 0,
            "algorithm": "a",
            "n": 1,
            "seed": 0,
            "rounds": 2,
            "wall_s": 0.0,
            "metrics": {},
        }
        round_record = {
            "type": "round",
            "run_id": 0,
            "round_index": 0,
            "messages": 0,
            "bits": 0,
            "max_message_bits": 0,
            "active_nodes": 0,
            "dropped_messages": 0,
            "delayed_messages": 0,
            "crashed_nodes": 0,
        }
        orphan_phase = {"type": "phase", "run_id": 99, "phase": "execute", "wall_s": 0.0}
        problems = validate_trace([run, round_record, orphan_phase])
        assert any("unknown run_id" in problem for problem in problems)
        assert any("1 round records for a 2-round run" in problem for problem in problems)

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
