"""sweep-batched: cells of ``SweepRunner(workers=2)`` over a benchmark scenario.

The scenario is registered by the benchmark: one small networkx graph per
cell and the four recipes that have no kernel, on ``engine="batched"``, with
the free degree bound for OPT.  Every pass runs the same cells through a
fresh (cold) result cache, so every cell executes in a worker process and is
written to the cache by the coordinator.

Before anything is timed, the benchmark runs each cell's solves itself, in
this process, and checks every dominating set against the graph.  The
records of every pooled pass must then match those verified solves and
digest identically to the first pass.
"""

from __future__ import annotations

import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from perfbench.common import (
    SETUP_REPS,
    WORK,
    Clock,
    GraphCheck,
    Report,
    combined_digest,
    load_pinned,
    sha256_hex,
    vmhwm_mib,
)

SIZES = {"full": {"n": 60, "cells": 24}, "tiny": {"n": 16, "cells": 4}}
WORKERS = 2
SOLVERS = ("randomized", "general", "unknown-arboricity", "msw-combinatorial")
SCENARIO = "perfbench/sweep-batched"
ENGINE = "batched"


def scenario(n: int):
    from repro.orchestration.registry import GraphSpec, ScenarioSpec, SolverSpec

    return ScenarioSpec(
        name=SCENARIO,
        experiment="perfbench-sweep",
        description="uniform small cells of the recipes without a kernel",
        graphs=[GraphSpec("bounded-arboricity", {"n": n, "alpha": 2})],
        solvers=[SolverSpec(solver) for solver in SOLVERS],
        opt_mode="degree",
    )


def verified_solves(spec, seed: int) -> List[Tuple[List[str], Tuple]]:
    """Run one cell's solves in this process and check each result.

    Returns, per solve, the problems found (empty when the result is right)
    and the facts its record must repeat: algorithm, weight and rounds.
    """
    from repro.run import Session

    session = Session()
    solves = []
    for instance in spec.build_instances(seed):
        check = GraphCheck.from_networkx(instance.graph)
        for solver in spec.solvers:
            result = session.run(solver.make_runspec(instance, seed, ENGINE))
            solves.append((check.failures(result), (result.algorithm, result.weight, result.rounds)))
    return solves


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        report: Report, import_s: float) -> Dict[str, float]:
    del workload
    from repro.orchestration.cache import ResultCache, records_to_bytes
    from repro.orchestration.registry import register_scenario
    from repro.orchestration.runner import SweepCell, SweepRunner

    sizes = SIZES[size]
    spec = register_scenario(scenario(sizes["n"]), replace=True)
    cells = [SweepCell(SCENARIO, seed * 1000 + i, ENGINE) for i in range(sizes["cells"])]
    tally = report.tally
    expected = {cell: verified_solves(spec, cell.seed) for cell in cells}

    recorder = wrappers = None
    if trace:
        from perfbench.spans import SpanRecorder, Wrappers

        recorder = SpanRecorder()
        wrappers = Wrappers(recorder)
        wrappers.install()

    reference: Dict[SweepCell, str] = {}
    counts = {"kernels.rounds": 0, "congest.messages": 0, "congest.bits": 0}

    def sweep_pass(name: str):
        """One pooled pass through a cold cache; checks every cell."""
        cache_dir = WORK / f"sweep-{name}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        runner = SweepRunner(cache=ResultCache(cache_dir), workers=WORKERS)
        started = time.perf_counter()
        with recorder.span("pass") if recorder is not None else nullcontext():
            results = list(runner.run_cells(cells))
        wall = time.perf_counter() - started
        for result in results:
            problems = []
            if result.skipped or result.from_cache:
                problems.append(f"cell skipped or cached: {result.skipped}")
            solves = expected[result.cell]
            if len(result.records) != len(solves):
                problems.append(f"{len(result.records)} records for {len(solves)} solves")
            for record, (solve_problems, facts) in zip(result.records, solves):
                problems += solve_problems
                if (record.algorithm, record.weight, record.rounds) != facts:
                    problems.append(f"record {record.algorithm} differs from the verified solve")
                if not record.is_dominating:
                    problems.append(f"record {record.algorithm} is not dominating")
            digest = sha256_hex(records_to_bytes(result.records))
            if reference.setdefault(result.cell, digest) != digest:
                problems.append("records differ from the first pass")
            tally.record(problems, f"{name} cell {result.cell.seed}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return results, wall

    setup_times = []
    for rep in range(SETUP_REPS):
        started = time.perf_counter()
        results, _ = sweep_pass(f"setup-{rep}")
        setup_times.append(time.perf_counter() - started)
        if rep == 0:
            for result in results:
                for record in result.records:
                    counts["kernels.rounds"] += record.rounds
                    counts["congest.messages"] += record.messages
                    counts["congest.bits"] += record.total_bits

    cell_s: List[float] = []
    walls: List[float] = []
    executed_first = 0
    clock = Clock(seconds)
    while not walls or not clock.expired():
        results, wall = sweep_pass(f"pass-{len(walls)}")
        if not walls:
            executed_first = sum(1 for result in results if not result.from_cache)
        walls.append(wall)
        cell_s += [result.elapsed_s for result in results]
    if wrappers is not None:
        wrappers.remove()

    digest = combined_digest(reference[cell] for cell in cells)
    report.pin(load_pinned("sweep-batched", seed, size), digest, counts)
    report.note(f"cells per pass={len(cells)} passes={len(walls)} workers={WORKERS}")
    if not trace:
        report.metric("setup_s", import_s + statistics.median(setup_times), "s",
                      f"imports {import_s:.3f} s + median of {SETUP_REPS} warm passes")
        report.metric("ops_per_s", len(cell_s) / sum(walls), "1/s", "cells")
        report.percentile("op_ms_p50", [1000.0 * t for t in cell_s], 0.5)
        report.metric("peak_rss_mib", vmhwm_mib(), "MiB", "coordinator process")
        return {}

    from perfbench.spans import SpanTree

    recorder.write(WORK / "sweep-batched-spans.jsonl")
    tree = SpanTree(recorder.spans)
    timed = [p for p in tree.roots("pass") if p["start"] >= clock.started]
    puts = [1000.0 * (s["end"] - s["start"]) for p in timed for s in tree.descendants(p)
            if s["name"] == "cache.put"]
    layers = {
        "orchestration.cell_ms_p50": 1000.0 * statistics.median(cell_s),
        "orchestration.idle_frac": 1.0 - sum(cell_s) / (WORKERS * sum(walls)),
        "orchestration.cache_put_ms": statistics.median(puts),
        "orchestration.cells_executed": executed_first,
    }
    layers.update(counts)
    return layers
