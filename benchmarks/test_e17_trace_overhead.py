"""E17 -- telemetry cost and fidelity: zero-overhead-when-off tracing,
byte-identical traced runs, and a /metrics histogram that tracks reality.

The observability layer (:mod:`repro.obs`) rides the same hot paths the
E14 kernel tier was built to protect, so it carries three gates:

* **off is free** -- a :class:`~repro.obs.trace.NullTracer` run of the
  E14 kernel workload lands within 2% of a tracer-less run (total wall
  time over interleaved, GC-pinned repeats of one shared session, so
  the arms differ in nothing but the tracer).  The disabled branch is
  one attribute check per *run*, never per round.
* **on is honest** -- with a live :class:`~repro.obs.trace.FileTracer`,
  ``result_bytes`` is byte-identical to the plain run on all four tiers,
  and the emitted JSONL validates cleanly (schema v2: every round carries
  a live, non-decreasing ``t_start_s``).  A tracer observes a run; it
  never participates in one.
* **/metrics is real** -- the ``repro_serve_request_seconds`` histogram
  scraped from a live server agrees with the load generator's own
  client-side p50/p99 to within one bucket (the histogram quantile is an
  upper bound tight to one bucket; the client adds only socket overhead).

The tracing-*on* kernel overhead is reported but not gated.  Every run
stamps its rounds whether or not a tracer is attached (the off arms pay
for the stamps too), so the on arm's extra cost is emitting one span tree
per run, round start times included.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time

import pytest

from repro import RunSpec, Session
from repro.analysis.tables import format_table
from repro.graphs.generators import forest_union_graph
from repro.graphs.large_scale import large_preferential_attachment
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS
from repro.obs.trace import FileTracer, NullTracer, load_trace, validate_trace
from repro.run.result import result_bytes

#: Interleaved timing repetitions per gated arm per batch.
REPEATS = 40
#: Extra sample batches a noisy box may take before the gate is final.
MAX_BATCHES = 3
#: Repetitions for the reported (ungated) tracing-on arm.
ON_REPEATS = 9
#: The E14 kernel workload scale used for the overhead measurement (the
#: smallest E14 size: more repeats per box-noise phase beats longer runs).
OVERHEAD_N = 10_000
#: Acceptance: tracing-off wall time within this fraction of tracer-less.
OFF_OVERHEAD_CEILING = 0.02

#: Traced byte-parity tiers: ``(engine, shards)``.
TIERS = (("reference", None), ("batched", None), ("kernel", None), ("sharded", 2))


def _kernel_spec(bench_seed):
    csr = large_preferential_attachment(OVERHEAD_N, attachment=4, seed=bench_seed)
    return RunSpec(graph=csr, algorithm="deterministic", alpha=4, engine="kernel")


def _measure_overhead(bench_seed, tmp_path):
    """Total wall time for tracer-less / NullTracer / FileTracer arms.

    A 2% gate on a sub-100ms workload demands care against noise sources
    that were each observed to dwarf the quantity under measurement:

    * one shared :class:`Session` runs all three arms (the tracer is
      passed per call), so the arms differ in *nothing* but the tracer --
      separate sessions compile separate state and pick up persistent
      few-percent allocation-layout skews;
    * the arm order rotates every repeat -- running immediately after an
      identical run is measurably faster, so a fixed order hands one arm
      a systematic advantage;
    * the GC is disabled across the timed region (with an explicit
      collect between samples), so collection pauses land between runs
      instead of inside a random arm's timing.

    The compared statistic is the *sum* over all repeats: shared boxes
    drift through multi-second slow/fast phases, and because the two
    gated arms strictly alternate (ping-pong, order flipped every
    repeat, so each arm follows itself and the other equally often),
    each phase contributes equally to both totals -- unlike per-arm
    minima or medians, which cherry-pick phases and flake at the
    few-percent level.  If the gate is still unresolved after a batch,
    sampling continues (up to ``MAX_BATCHES``): totals keep averaging
    noise down, while a real >2% branch cost is in every off sample and
    cannot be averaged away.  The tracing-*on* arm is timed in its own
    loop afterwards -- it is reported, not gated, so it must not
    perturb the gated interleave.
    """
    spec = _kernel_spec(bench_seed)
    session = Session()
    null = NullTracer()
    session.run(spec)  # warm the compiled-graph cache before timing

    def _timed(arm_tracer):
        gc.collect()
        start = time.perf_counter()
        if arm_tracer is None:
            session.run(spec)
        else:
            session.run(spec, tracer=arm_tracer)
        return time.perf_counter() - start

    totals = {"plain": 0.0, "off": 0.0, "on": 0.0}
    count = 0
    tracer = FileTracer(tmp_path / "overhead.jsonl")
    gc.disable()
    try:
        for _batch in range(MAX_BATCHES):
            for repeat in range(REPEATS):
                pair = [("plain", None), ("off", null)]
                if repeat % 2:
                    pair.reverse()
                for arm, arm_tracer in pair:
                    totals[arm] += _timed(arm_tracer)
            count += REPEATS
            if totals["off"] <= totals["plain"] * (1.0 + OFF_OVERHEAD_CEILING):
                break
        for _ in range(ON_REPEATS):
            totals["on"] += _timed(tracer)
    finally:
        gc.enable()
    tracer.close()
    records = load_trace(tmp_path / "overhead.jsonl")
    assert validate_trace(records) == []
    measured = {
        "plain": totals["plain"] / count,
        "off": totals["off"] / count,
        "on": totals["on"] / ON_REPEATS,
        "samples": count,
    }
    return measured


def _parity_rows(bench_seed, tmp_path):
    """Traced vs plain ``result_bytes`` on every tier, fault-free."""
    graph = forest_union_graph(200, alpha=3, seed=bench_seed)
    rows = []
    path = tmp_path / "parity.jsonl"
    for engine, shards in TIERS:
        spec = RunSpec(
            graph=graph, algorithm="deterministic", alpha=3, seed=7,
            engine=engine, shards=shards,
        )
        plain = Session().run(spec)
        with FileTracer(path) as tracer:
            traced = Session().run(spec, tracer=tracer)
        identical = result_bytes(traced) == result_bytes(plain)
        assert identical, f"traced run diverged on engine={engine}"
        rows.append(
            {"engine": engine, "rounds": traced.rounds, "traced == plain": "yes"}
        )
    assert validate_trace(load_trace(path)) == []
    return rows


def _start_server(cache_dir):
    from repro.orchestration.cache import ResultCache
    from repro.serve.http import HttpServer
    from repro.serve.service import RunService

    service = RunService(cache=ResultCache(cache_dir), graph_capacity=4)
    server = HttpServer(service, host="127.0.0.1", port=0)
    started = threading.Event()
    loop_holder = {}

    def run_loop():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        asyncio.set_event_loop(loop)

        async def main():
            await server.start()
            started.set()
            await server.serve_until_stopped()

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    assert started.wait(timeout=60)
    return server, thread, loop_holder


def _bucket_index(seconds):
    """The histogram bucket a raw observation falls into (last = overflow)."""
    for index, bound in enumerate(DEFAULT_SECONDS_BUCKETS):
        if seconds <= bound:
            return index
    return len(DEFAULT_SECONDS_BUCKETS)


def _measure_serve_histogram(tmp_path):
    """Drive loadgen at a live server; compare /metrics to client timing."""
    from repro.serve.loadgen import ServeClient, run_load

    server, thread, loop_holder = _start_server(tmp_path / "serve-cache")
    try:
        # repeats=2 keeps cache hits a minority of the sample: with hits in
        # the majority, the client's p50 lands on a sub-millisecond cached
        # response where HTTP transport (~0.5ms) spans several of the
        # fine-grained low-end buckets, and the within-one-bucket claim
        # compares transport, not the histogram.
        report = run_load(port=server.port, seeds=3, repeats=2, dedup_clients=4)
        assert report.errors == 0, report.error_samples
        client = ServeClient(port=server.port)
        status, exposition = client.get_text("/metrics")
        client.close()
        histogram = server.service.metrics.histogram("repro_serve_request_seconds")
        agreement = []
        for label, q, client_ms in (
            ("p50", 0.50, report.p50_ms),
            ("p99", 0.99, report.p99_ms),
        ):
            server_bucket = histogram.quantile_bucket(q)
            client_bucket = _bucket_index(client_ms / 1000.0)
            agreement.append(
                {
                    "quantile": label,
                    "loadgen (client)": f"{client_ms:.2f} ms",
                    "histogram bound": f"{histogram.quantile(q) * 1000.0:.2f} ms",
                    "bucket delta": abs(server_bucket - client_bucket),
                }
            )
    finally:
        loop_holder["loop"].call_soon_threadsafe(server.stop)
        thread.join(timeout=60)

    assert status == 200
    assert f"repro_serve_request_seconds_count {report.requests}" in exposition
    assert histogram.count == report.requests
    return report, agreement


@pytest.mark.bench
def test_e17_trace_overhead(benchmark, record_experiment, bench_seed, tmp_path):
    def _run():
        return _measure_overhead(bench_seed, tmp_path)

    measured = benchmark.pedantic(_run, rounds=1, iterations=1)
    off_overhead = measured["off"] / measured["plain"] - 1.0
    on_overhead = measured["on"] / measured["plain"] - 1.0

    parity_rows = _parity_rows(bench_seed, tmp_path)
    report, agreement = _measure_serve_histogram(tmp_path)

    timing_rows = [
        {
            "tracer": label,
            "mean_s": round(measured[arm], 4),
            "vs plain": f"{(measured[arm] / measured['plain'] - 1.0) * +100.0:+.2f}%",
        }
        for label, arm in (
            ("none (tracer-less)", "plain"),
            ("NullTracer (off)", "off"),
            ("FileTracer (on)", "on"),
        )
    ]
    body = (
        f"Workload: BA n={OVERHEAD_N} m=4 on engine='kernel', one shared "
        f"session, mean over {measured['samples']} interleaved GC-pinned "
        "repeats per arm.\n\n"
        + format_table(timing_rows)
        + f"\n\ngate: tracing-off overhead {off_overhead * 100.0:+.2f}% "
        f"(ceiling {OFF_OVERHEAD_CEILING * 100.0:.0f}%); tracing-on "
        f"{on_overhead * 100.0:+.2f}% (reported, not gated -- every arm stamps\n"
        "its rounds live; the on arm also emits the span tree).\n\n"
        "Traced-run byte parity (result_bytes, fault-free forest n=200):\n"
        + format_table(parity_rows)
        + "\n\n/metrics vs loadgen over one live server "
        f"({report.requests} requests, {report.rps:.1f} req/s):\n"
        + format_table(agreement)
        + "\ngate: bucket delta <= 1 at p50 and p99 (histogram quantiles are\n"
        "upper bounds tight to one bucket; the client adds socket overhead).\n"
    )
    record_experiment(
        "E17_trace",
        "Telemetry cost: tracing off is free, on is byte-identical, /metrics is honest",
        body,
    )
    benchmark.extra_info["off_overhead"] = round(off_overhead, 4)

    assert off_overhead <= OFF_OVERHEAD_CEILING, measured
    for row in agreement:
        assert row["bucket delta"] <= 1, row
