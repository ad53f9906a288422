"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernel-ba --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Every metric is printed on its own line
with its unit (and, for a percentile, its sample count and the number of
samples beyond it); the last line is one JSON object::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (see perfbench/README.md).  ``--size
tiny`` shrinks every input for the benchmark's own tests.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("kernel-ba", "kernel-faulted", "serve-mix", "sweep-batched")

#: The end-to-end metrics every ``--trace 0`` run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mib": "MiB",
}

#: The per-layer metrics every ``--trace 1`` run prints.  A layer that a
#: workload bypasses reads 0.
PER_LAYER = {
    "graphs.build_s": "s",
    "run.compile_s": "s",
    "kernels.grid_s": "s",
    "run.package_ms": "ms",
    "kernels.execute_ms": "ms",
    "kernels.outputs_ms": "ms",
    "faults.plan_ms": "ms",
    "serve.normalize_ms": "ms",
    "serve.cache_get_ms": "ms",
    "serve.response_kib": "KiB",
    "serve.transport_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.cache_put_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.hit_ms_p90": "ms",
    "serve.miss_ms_p50": "ms",
    "serve.miss_ms_p90": "ms",
    "orchestration.cell_ms_p50": "ms",
    "orchestration.idle_frac": "frac",
    "orchestration.cache_put_ms": "ms",
    "kernels.rounds": "count",
    "congest.messages": "count",
    "congest.bits": "count",
    "faults.dropped": "count",
    "faults.delayed": "count",
    "serve.executions": "count",
    "serve.cache_hits": "count",
    "serve.inflight_joins": "count",
    "serve.graph_hits": "count",
    "orchestration.cells_executed": "count",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    import repro  # noqa: F401  (the import is part of set-up time)
    from perfbench import common

    import_s = time.perf_counter() - STARTED
    common.WORK.mkdir(exist_ok=True)
    report = common.Report()
    load_before = common.loadavg()
    if args.workload in ("kernel-ba", "kernel-faulted"):
        from perfbench import kernel as module
    elif args.workload == "serve-mix":
        from perfbench import serve as module
    else:
        from perfbench import sweep as module
    layers = module.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.size, report, import_s)

    if args.trace:
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        for name, unit in PER_LAYER.items():
            if name in layers:
                report.metric(name, layers[name], unit)
            else:
                report.metric(name, 0.0, unit, "layer not measured on this workload")
    else:
        printed = {name: unit for name, (_, unit) in report.metrics.items()}
        if printed != END_TO_END:
            raise RuntimeError(f"end-to-end metrics {printed} != {END_TO_END}")

    meta = common.run_metadata()
    meta["loadavg_before"] = load_before
    meta["loadavg_after"] = common.loadavg()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in report.lines:
        print(line)
    tally = report.tally
    print(f"ops attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={tally.failed / max(1, tally.attempted):.6g}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps(report.result_line(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
