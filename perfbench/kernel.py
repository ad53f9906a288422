"""kernel-ba and kernel-faulted: back-to-back ``Session.run`` calls in this process.

kernel-ba repeats one spec -- the paper's weighted algorithm on a streamed
Barabasi-Albert ``CSRGraph`` -- on one ``Session``, so the closed-form
kernel, the per-node output dicts and packaging dominate.  kernel-faulted
runs the deterministic algorithm under the ``chaos`` fault plan with a fresh
seed per op, so every op materialises a fresh plan and runs the vectorised
fault driver.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from typing import Dict

from perfbench.common import (
    SETUP_REPS,
    WORK,
    Clock,
    GraphCheck,
    Report,
    combined_digest,
    load_pinned,
    result_digest,
    vmhwm_mib,
)

SIZES = {
    "full": {"kernel-ba": 50_000, "kernel-faulted": 4_000},
    "tiny": {"kernel-ba": 2_000, "kernel-faulted": 300},
}
#: The first ops of the timed phase whose digests and counts are pinned.
WINDOW = 8
#: ``peak_rss_mib`` is read after set-up and this many timed ops, so runs of
#: different speed report the same amount of work (kernel-faulted's session
#: keeps every fault plan it materialised, so its footprint grows per op).
PEAK_OPS = 16
#: A run times at least this many ops, so its median has 10 samples beyond it.
MIN_OPS = 21
#: The topology is the same for every seed, so every run does the same
#: amount of work: a Barabasi-Albert graph's fold cost follows its maximum
#: degree, which varies by a third between seeds.  ``--seed`` draws the
#: weights (kernel-ba) and the fault plans (kernel-faulted).
GRAPH_SEED = 0


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        report: Report, import_s: float) -> Dict[str, float]:
    from repro.graphs.large_scale import large_preferential_attachment, random_integer_weights
    from repro.run import RunSpec, Session

    recorder = wrappers = None
    if trace:
        from perfbench.spans import SpanRecorder, Wrappers

        recorder = SpanRecorder()
        wrappers = Wrappers(recorder)
        wrappers.install()

    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    faulted = workload == "kernel-faulted"
    n = SIZES[size][workload]

    def build():
        graph = large_preferential_attachment(n, attachment=4, seed=GRAPH_SEED)
        return graph if faulted else random_integer_weights(graph, seed=seed + 1)

    def spec_for(graph, index: int) -> RunSpec:
        if faulted:
            return RunSpec(graph=graph, algorithm="deterministic", engine="kernel",
                           faults="chaos", seed=seed * 100_000 + index)
        return RunSpec(graph=graph, algorithm="weighted", engine="kernel", seed=seed)

    tally = report.tally
    setup_times = []
    graph = session = check = reference = None
    for rep in range(SETUP_REPS):
        graph = session = None  # drop the previous set-up before timing the next
        started = time.perf_counter()
        with span("setup"):
            with span("graphs.build"):
                graph = build()
            session = Session()
            warm = session.run(spec_for(graph, 90_000 + rep))
        setup_times.append(time.perf_counter() - started)
        check = GraphCheck.from_csr(graph)
        digest = result_digest(warm)
        problems = check.failures(warm)
        if reference is not None and not faulted and digest != reference:
            problems.append("warm-up digest differs between set-ups")
        reference = digest
        tally.record(problems, f"warm-up {rep}")
        del warm

    op_times, traced_times, untraced_times = [], [], []
    window_digests = []
    counts = dict.fromkeys(
        ("kernels.rounds", "congest.messages", "congest.bits", "faults.dropped", "faults.delayed"), 0
    )
    peak_mib = 0.0
    clock = Clock(seconds)
    index = 0
    while index < MIN_OPS or not clock.expired():
        traced = trace and index % 2 == 1
        if trace:
            (wrappers.install if traced else wrappers.remove)()
        spec = spec_for(graph, index)
        started = time.perf_counter()
        try:
            with span("op") if traced else nullcontext():
                result = session.run(spec)
        except Exception as error:  # an op that raises is a failed op
            tally.record([f"{type(error).__name__}: {error}"], f"op {index}")
            index += 1
            continue
        elapsed = time.perf_counter() - started
        op_times.append(elapsed)
        (traced_times if traced else untraced_times).append(elapsed)
        problems = check.failures(result)
        digest = result_digest(result)
        if not faulted and digest != reference:
            problems.append("digest differs from the first op with this spec")
        tally.record(problems, f"op {index}")
        if index < WINDOW:
            window_digests.append(digest)
            metrics = result.metrics
            counts["kernels.rounds"] += result.rounds
            counts["congest.messages"] += metrics.total_messages
            counts["congest.bits"] += metrics.total_bits
            counts["faults.dropped"] += metrics.total_dropped_messages
            counts["faults.delayed"] += metrics.total_delayed_messages
        del result
        index += 1
        if index == PEAK_OPS:
            peak_mib = vmhwm_mib()
    if wrappers is not None:
        wrappers.remove()

    digest = combined_digest(window_digests)
    report.pin(load_pinned(workload, seed, size), digest, counts)
    report.note(f"graph n={graph.n} m={graph.m} ops={len(op_times)}")
    if not trace:
        report.metric("setup_s", import_s + statistics.median(setup_times), "s",
                      f"imports {import_s:.3f} s + median of {SETUP_REPS} set-ups")
        report.metric("ops_per_s", len(op_times) / sum(op_times), "1/s")
        report.percentile("op_ms_p50", [1000.0 * t for t in op_times], 0.5)
        report.metric("peak_rss_mib", peak_mib, "MiB", f"after set-up and {PEAK_OPS} ops")
        return {}

    from perfbench.spans import SpanTree, duration

    recorder.write(WORK / f"{workload}-spans.jsonl")
    tree = SpanTree(recorder.spans)
    setups = tree.roots("setup")
    ops = tree.roots("op")

    def per_setup(*names: str) -> float:
        return statistics.median(sum(tree.total(s, name) for name in names) for s in setups)

    def per_op_ms(*names: str, own: bool = False) -> float:
        return 1000.0 * statistics.median(
            sum(tree.total(op, name, own=own) for name in names) for op in ops
        )

    overhead = statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    layers = {
        "graphs.build_s": statistics.median(duration(s) for s in tree.named("graphs.build")),
        "run.compile_s": per_setup("run.compile", "run.default_alpha"),
        "kernels.grid_s": per_setup("kernels.grid"),
        "run.package_ms": per_op_ms("run.package"),
        "kernels.execute_ms": per_op_ms("kernels.execute", own=True),
        "kernels.outputs_ms": per_op_ms("kernels.outputs"),
        "faults.plan_ms": per_op_ms("faults.materialize", "faults.session"),
        "trace.overhead_frac": overhead,
    }
    layers.update(counts)
    report.note(
        f"traced ops {len(traced_times)}, untraced ops {len(untraced_times)}, "
        f"overhead {100 * overhead:+.2f}%"
    )
    return layers
