"""E15 -- fault injection on the kernel tier: faulted vs plain kernel runs.

The kernel tier applies a fault plan without leaving array land: the
compiled :class:`~repro.faults.session.FaultSession` exposes per-round
edge-fate arrays, and the round driver (:mod:`repro.congest.kernels.faults`)
replays the hooked round loop as whole-graph scatter/fold operations over an
explicit columnar mailbox.  A plain run executes the *same* program under
the same driver, but with no edge fates to apply it never expands a
broadcast into per-edge entries: the inbox stays a sender mask plus payload
columns, read through CSR segment operations.  So a faulted kernel run
cannot be free -- it builds the entries the plain run skips -- but the
overhead must stay a small constant factor, comparable to the 1.3-6.4x
envelope E12 measured for the batched engine's fault path, rather than
degenerating into per-message costs.

Measured here at kernel scale (n=10^4, the CSR-direct path): wall time for
the plain kernel run, for a kernel run under an *empty* plan (the cost of
expanding every delivery, byte-identical results enforced), and under real
lossy/chaos plans (expansion plus fault work, with the dropped/delayed
traffic reported alongside).

A second table covers building the plan itself at n=10^5: materialising
the ``chaos`` regime on a streamed BA graph and compiling it
(:meth:`~repro.faults.session.FaultSession.for_csr`).  Both stay columnar
on CSR graphs -- no Python object per crash or churn event, no per-edge
dict -- so the pair must finish well under the kernel run it precedes.
The recorded tables are ``benchmarks/results/E15_kernel_faults.txt``.
"""

from __future__ import annotations

import pickle
import resource
import time
import tracemalloc

import pytest

from repro import RunSpec, execute
from repro.analysis.tables import format_table
from repro.faults import FAULT_MODELS, FaultPlan
from repro.faults.session import FaultSession
from repro.graphs.large_scale import (
    large_grid,
    large_preferential_attachment,
    random_integer_weights,
)

#: Timing repetitions per (instance, plan); the minimum is reported.
REPEATS = 3


def _time_run(csr, algorithm, plan):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = execute(
            RunSpec(
                graph=csr, algorithm=algorithm, alpha=csr.alpha,
                engine="kernel", faults=plan, seed=0,
            )
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure(name, csr, algorithm, plan_name, plan):
    plain_time, plain = _time_run(csr, algorithm, None)
    faulty_time, faulty = _time_run(csr, algorithm, plan)
    assert faulty.engine_used == "kernel", name  # never the fallback tier
    if plan.is_empty():
        # The empty plan only expands the deliveries: results must not move
        # a bit relative to the plain run.
        assert faulty.outputs == plain.outputs, name
        assert pickle.dumps(faulty.metrics) == pickle.dumps(plain.metrics), name
    return {
        "instance": name,
        "plan": plan_name,
        "n": csr.n,
        "m": csr.m,
        "rounds": faulty.rounds,
        "dropped": faulty.metrics.total_dropped_messages,
        "delayed": faulty.metrics.total_delayed_messages,
        "kernel_s": round(plain_time, 4),
        "faulted_s": round(faulty_time, 4),
        "overhead_x": round(faulty_time / plain_time, 2),
    }


def _plan_at_scale(bench_seed):
    """Materialise + compile time and memory of a chaos plan at n=10^5."""
    csr = large_preferential_attachment(100_000, attachment=4, seed=bench_seed)
    spec = FAULT_MODELS["chaos"]
    start = time.perf_counter()
    plan = spec.materialize(csr, bench_seed)
    built = time.perf_counter()
    FaultSession.for_csr(plan, csr)
    compiled = time.perf_counter()
    # A second, traced pass measures the allocation peak of the pair
    # (tracing slows allocation, so it is not the timed pass).
    tracemalloc.start()
    FaultSession.for_csr(spec.materialize(csr, bench_seed + 1), csr)
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "instance": "BA n=10^5",
        "plan": "chaos",
        "n": csr.n,
        "m": csr.m,
        "churn_events": len(plan.columns.churn_round),
        "materialize_s": round(built - start, 3),
        "compile_s": round(compiled - built, 3),
        "plan_alloc_peak_mib": round(alloc_peak / 2**20, 1),
        "process_peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def _run(bench_seed):
    scale = _plan_at_scale(bench_seed)
    rows = []

    grid = large_grid(100, 100)
    ba = random_integer_weights(
        large_preferential_attachment(10_000, attachment=4, seed=bench_seed),
        1, 30, seed=11,
    )

    for name, csr, algorithm in (
        ("grid 100x100", grid, "deterministic"),
        ("BA n=10^4 weighted", ba, "weighted"),
    ):
        for plan_name, plan in (
            ("empty", FaultPlan()),
            ("lossy10", FAULT_MODELS["lossy10"].materialize(csr, bench_seed)),
            ("chaos", FAULT_MODELS["chaos"].materialize(csr, bench_seed)),
        ):
            rows.append(_measure(name, csr, algorithm, plan_name, plan))
    return rows, scale


@pytest.mark.bench
def test_e15_kernel_fault_overhead(benchmark, record_experiment, bench_seed):
    rows, scale = benchmark.pedantic(_run, args=(bench_seed,), rounds=1, iterations=1)

    # A faulted run materialises messages the plain run never builds, so a
    # constant factor is expected -- the ceiling guards against
    # a regression to per-message costs while staying safe on noisy CI
    # machines (E12's batched-engine envelope was 1.3-6.4x).
    for row in rows:
        assert row["overhead_x"] <= 12.0, row

    # Fault work happened where a fault plan was active.
    assert all(row["dropped"] > 0 for row in rows if row["plan"] != "empty")

    # Columnar plans: about 0.7 s on a 2-CPU VM, against 8-10 s when every
    # churn event was an object and every directed edge a dict entry.  The
    # ceiling leaves room for slow CI machines.
    assert scale["materialize_s"] + scale["compile_s"] <= 3.0, scale

    record_experiment(
        "E15_kernel_faults",
        "Faulted kernel runs vs plain kernel runs at n=10^4 (CSR path)",
        format_table(rows)
        + "\n\nBuilding a chaos plan at n=10^5 (materialise + compile; peak RSS "
        "is the process high-water mark after the pair, set-up graph included)\n\n"
        + format_table([scale]),
    )
