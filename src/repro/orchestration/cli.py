"""The ``python -m repro`` command line.

Five subcommands replace the copy-pasted benchmark boilerplate:

``list``
    Show the scenario registry (name, experiment, sizes, tags, spec hash);
    ``--json`` emits the same registry machine-readably.
``run``
    Run one scenario at one seed and print its paper-claim-vs-measured
    table (through the cache unless ``--no-cache``).  ``--spec FILE.json``
    instead runs one declarative :class:`repro.RunSpec` from a wire-format
    file -- decoded by the *same* codec the ``serve`` endpoint uses
    (:mod:`repro.run.wire`), so a spec file and a service request can never
    drift apart.
``sweep``
    Run a grid of (scenario, seed, engine) cells through the parallel,
    cache-aware runner; ``--smoke`` is the CI entry point -- it runs the
    smoke-tagged scenarios under *both* engines and byte-compares the
    record streams.
``report``
    Render tables for already-cached cells without running anything.
``serve``
    Start the long-lived HTTP run service (see :mod:`repro.serve`).

``run`` and ``sweep`` accept ``--faults <model>`` (a name from
:data:`repro.faults.FAULT_MODELS`), which overlays the named adversarial
regime onto every selected scenario: each is re-registered as
``<name>+<model>`` with the fault spec attached, turning any scenario into
one cell of the algorithm x family x fault-model grid.

Execution goes through the unified run API: every (instance, solver) pair
of a scenario cell is a declarative :class:`repro.RunSpec` executed by one
compiled :class:`repro.Session` per cell (see
:meth:`repro.orchestration.registry.SolverSpec.make_runspec`), so solvers
sharing an instance reuse its compiled network and adjacency state.

Exit codes: 0 on success, 1 when any record violates its guarantee (or an
engine-parity check fails), 2 on usage errors such as unknown scenarios or
missing cache entries.  Records of *fault* scenarios are measurements of
degradation -- a non-dominating output under an adversary is the finding,
not a bug -- so they are reported as ``degraded`` and never fail the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import ExperimentRecord, aggregate_records
from repro.congest.errors import EngineCapabilityError
from repro.analysis.tables import render_records, render_summary
from repro.faults import FAULT_MODELS
from repro.orchestration.cache import ResultCache, cache_key, code_version, records_to_bytes
from repro.orchestration.registry import get_scenario, list_scenarios, register_scenario
from repro.orchestration.runner import (
    DEFAULT_SWEEP_ENGINE,
    CellResult,
    SweepBudget,
    SweepCell,
    SweepRunner,
    aggregate_skips,
    expand_cells,
    format_skip_cell,
)
from repro.orchestration.scenarios import register_builtin_scenarios

__all__ = ["main", "build_parser"]

#: The two universally applicable engines (the ``--smoke``/``both`` pair).
_ENGINES = ("batched", "reference")

#: The ``--engine all`` grid.  ``kernel`` executes the hot algorithms --
#: fault scenarios included -- as node-loop-free array programs (other
#: solvers fall back to batched, recorded via ``RunMetrics.engine_used``);
#: it is opt-in rather than part of ``both`` purely to keep the smoke pair
#: small.  Cells an engine genuinely cannot run surface as explicit
#: ``skipped`` results in the sweep summary.
_ALL_ENGINES = ("batched", "kernel", "reference")

#: Everything ``--engine`` accepts.  ``sharded`` (the multi-process
#: partitioned-CSR tier) is selectable but deliberately *not* part of
#: ``--engine all``: it cannot run fault plans, so folding it into the
#: ``all`` grid would turn every fault scenario into a skip.  Select it
#: explicitly (optionally with ``--shards N``); unsupported cells surface
#: as structured skips.
_SELECTABLE_ENGINES = _ALL_ENGINES + ("sharded",)


class _UsageError(Exception):
    """A user-facing argument problem (unknown scenario name, ...)."""


def _resolve_scenario(name: str):
    """`get_scenario` with unknown names turned into usage errors.

    Only name resolution is downgraded this way -- an unexpected exception
    anywhere else in a handler must surface as a traceback, not be dressed
    up as a usage error.
    """
    try:
        return get_scenario(name)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Experiment orchestration for the Dory-Ghaffari-Ilchi reproduction: "
                    "scenario registry, cached parallel sweeps, result tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="show the scenario registry")
    list_parser.add_argument("--tag", help="only scenarios carrying this tag")
    list_parser.add_argument(
        "--verbose", action="store_true", help="include the one-line description"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit the registry as machine-readable JSON"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one scenario (or one --spec FILE.json) and print the results"
    )
    run_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="registered scenario name (omit when using --spec)",
    )
    run_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE.json",
        help="run one RunSpec wire-format file instead of a scenario "
        "(same codec as the serve endpoint; other run options are ignored)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="sweep cell seed (default 0)")
    _add_cache_arguments(run_parser)
    run_parser.add_argument(
        "--engine", choices=_SELECTABLE_ENGINES, default=DEFAULT_SWEEP_ENGINE,
        help="simulation engine (default: batched)",
    )
    _add_shards_argument(run_parser)
    run_parser.add_argument(
        "--trace", default=None, metavar="FILE.jsonl",
        help="write a JSONL span trace of the cell's runs (forces execution: "
             "cache reads are skipped, results are still written back)",
    )
    _add_faults_argument(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a scenario x seed x engine grid in parallel, through the cache"
    )
    sweep_parser.add_argument(
        "scenarios", nargs="*", help="scenario names (empty with --tag/--all/--smoke)"
    )
    sweep_parser.add_argument("--tag", help="add every scenario carrying this tag")
    sweep_parser.add_argument("--all", action="store_true", help="add every registered scenario")
    sweep_parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: smoke-tagged scenarios, both engines, cross-engine parity check",
    )
    sweep_parser.add_argument(
        "--seeds", type=int, default=1, metavar="N", help="run seeds 0..N-1 (default 1)"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1 = serial)"
    )
    sweep_parser.add_argument(
        "--engine", choices=_SELECTABLE_ENGINES + ("both", "all"),
        default=DEFAULT_SWEEP_ENGINE,
        help="simulation engine; 'both' runs batched+reference per cell, 'all' "
             "adds the kernel tier (the sharded tier is select-explicitly only)",
    )
    _add_shards_argument(sweep_parser)
    sweep_parser.add_argument(
        "--report", action="store_true", help="print the full record tables, not just totals"
    )
    sweep_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one JSONL span trace per executed cell into DIR "
             "(cache hits have nothing to trace)",
    )
    _add_faults_argument(sweep_parser)
    _add_cache_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget for the whole sweep; cells the budget "
             "governor cannot fit are skipped (budget) and never cached",
    )
    sweep_parser.add_argument(
        "--budget-bytes", type=int, default=None, metavar="B",
        help="aggregate message-volume budget (bytes of records' total_bits) "
             "for freshly executed cells",
    )
    sweep_parser.add_argument(
        "--cell-max-rss", type=int, default=None, metavar="KIB",
        help="per-cell memory ceiling in KiB; a (scenario, engine) class "
             "observed above it this sweep has its remaining cells skipped",
    )

    report_parser = subparsers.add_parser(
        "report", help="render tables for cached cells without running anything"
    )
    report_parser.add_argument("scenarios", nargs="+", help="scenario names")
    report_parser.add_argument("--seed", type=int, default=0, help="cell seed (default 0)")
    report_parser.add_argument(
        "--engine", choices=_SELECTABLE_ENGINES, default=DEFAULT_SWEEP_ENGINE,
        help="simulation engine the cells were run under",
    )
    report_parser.add_argument("--cache-dir", default=None, help="cache directory")
    report_parser.add_argument(
        "--plots", action="store_true",
        help="also render scaling/fault-frontier figures from the cached "
             "records (requires matplotlib)",
    )
    report_parser.add_argument(
        "--plots-dir", default=None, metavar="DIR",
        help="where --plots writes figures (default: results/plots)",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="parse an edge-list file -- or download a pinned SNAP dataset -- "
             "into canonical CSR form and print its profile",
    )
    ingest_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="edge-list file, SNAP style, optionally .gz (omit with --download/--list)",
    )
    ingest_parser.add_argument(
        "--download", default=None, metavar="NAME",
        help="fetch + sha256-verify a pinned dataset (see --list), then ingest it",
    )
    ingest_parser.add_argument(
        "--list", action="store_true", dest="list_datasets",
        help="list the pinned downloadable datasets",
    )
    ingest_parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="where downloads live (default: data/snap)",
    )
    ingest_parser.add_argument(
        "--force", action="store_true",
        help="re-download even when a verified copy exists",
    )
    ingest_parser.add_argument(
        "--json", action="store_true", help="emit the ingest profile as JSON"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="start the long-lived HTTP run service (see repro.serve)"
    )
    from repro.serve.http import add_serve_arguments

    add_serve_arguments(serve_parser)
    return parser


def _add_shards_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker-process count for --engine sharded (results are "
             "shard-count-independent; default: the sharded tier's own)",
    )


def _resolve_shards(arguments: argparse.Namespace) -> Optional[int]:
    """Validate the ``--shards``/``--engine`` pairing as a usage error."""
    shards = getattr(arguments, "shards", None)
    if shards is None:
        return None
    if shards < 1:
        raise _UsageError(f"--shards must be >= 1, got {shards}")
    if arguments.engine != "sharded":
        raise _UsageError(
            f"--shards requires --engine sharded (got --engine {arguments.engine})"
        )
    return shards


def _resolve_budget(arguments: argparse.Namespace) -> Optional[SweepBudget]:
    """Build the sweep budget from the CLI flags, as a usage error when bad."""
    try:
        budget = SweepBudget(
            seconds=arguments.budget_seconds,
            bytes=arguments.budget_bytes,
            cell_max_rss_kb=arguments.cell_max_rss,
        )
    except ValueError as error:
        raise _UsageError(str(error))
    return budget if budget.bounded else None


def _add_faults_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", choices=sorted(FAULT_MODELS), default=None, metavar="MODEL",
        help="overlay a named fault model onto every selected scenario "
             f"(one of: {', '.join(sorted(FAULT_MODELS))})",
    )


def _overlay_faults(names: List[str], model: Optional[str]) -> List[str]:
    """Re-register each scenario as ``<name>+<model>`` with faults attached.

    Scenarios that already carry a fault spec are left untouched (their
    registered adversary is the experiment); the derived specs hash
    differently from their fault-free parents, so cached results never mix.
    """
    if model is None:
        return names
    fault_spec = FAULT_MODELS[model]
    derived: List[str] = []
    for name in names:
        spec = get_scenario(name)
        if spec.faults is not None:
            derived.append(name)
            continue
        overlaid = dataclasses.replace(
            spec,
            name=f"{name}+{model}",
            faults=fault_spec,
            tags=tuple(spec.tags) + ("faults",),
        )
        register_scenario(overlaid, replace=True)
        derived.append(overlaid.name)
    return derived


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute everything, write nothing"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    register_builtin_scenarios()
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "list": _command_list,
        "run": _command_run,
        "sweep": _command_sweep,
        "report": _command_report,
        "serve": _command_serve,
        "ingest": _command_ingest,
    }
    try:
        return handlers[arguments.command](arguments)
    except _UsageError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2


def _command_ingest(arguments: argparse.Namespace) -> int:
    """Ingest a file (or a pinned downloadable dataset) and print its profile."""
    from repro.graphs import datasets as ds
    from repro.graphs.ingest import ingest_edge_list

    data_dir = arguments.data_dir or ds.DEFAULT_DATA_DIR
    if arguments.list_datasets:
        if arguments.path is not None or arguments.download is not None:
            raise _UsageError("--list takes no file path or --download")
        print(f"{len(ds.DATASETS)} pinned datasets (data dir: {data_dir}):")
        width = max(len(name) for name in ds.DATASETS)
        for name in ds.available_datasets():
            spec = ds.DATASETS[name]
            pin = spec.sha256[:12] if spec.sha256 else "first-download"
            print(
                f"  {name.ljust(width)}  ~{spec.nodes:>9,} nodes "
                f"~{spec.edges:>11,} edges  sha256: {pin:<14}  {spec.description}"
            )
        return 0
    if (arguments.path is None) == (arguments.download is None):
        raise _UsageError("give an edge-list path or --download NAME (or --list)")
    if arguments.download is not None:
        try:
            path = ds.download_dataset(
                arguments.download, data_dir=data_dir, force=arguments.force
            )
        except KeyError as error:
            raise _UsageError(error.args[0]) from None
        except ds.DatasetVerificationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except OSError as error:
            raise _UsageError(f"download failed: {error}") from None
        graph = ingest_edge_list(path, name=arguments.download)
        digest = ds.sha256_file(path)
    else:
        path = arguments.path
        try:
            graph = ingest_edge_list(path)
        except OSError as error:
            raise _UsageError(str(error)) from None
        except ValueError as error:
            raise _UsageError(f"{path}: {error}") from None
        digest = ds.sha256_file(path)
    profile = {
        "name": graph.name,
        "path": str(path),
        "sha256": digest,
        "nodes": graph.n,
        "edges": graph.m,
        "max_degree": graph.max_degree,
        "lines": graph.params.get("lines"),
        "self_loops_dropped": graph.params.get("self_loops_dropped"),
        "duplicates_dropped": graph.params.get("duplicates_dropped"),
    }
    if arguments.json:
        print(json.dumps(profile, indent=2, sort_keys=True))
        return 0
    print(f"ingested {graph.name}: {path}")
    print(f"  sha256      {digest}")
    print(f"  nodes       {graph.n:,}")
    print(f"  edges       {graph.m:,} (max degree {graph.max_degree})")
    print(
        f"  dropped     {profile['self_loops_dropped']} self-loops, "
        f"{profile['duplicates_dropped']} duplicate listings "
        f"({profile['lines']} data lines)"
    )
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.serve.http import serve_command

    return serve_command(arguments)


def _command_list(arguments: argparse.Namespace) -> int:
    specs = list_scenarios(tag=arguments.tag)
    if arguments.json:
        payload = {
            "code_version": code_version(),
            "scenarios": [
                {
                    "name": spec.name,
                    "experiment": spec.experiment,
                    "description": spec.description,
                    "graphs": len(spec.graphs),
                    "solvers": len(spec.solvers),
                    "tags": list(spec.tags),
                    "faults": None if spec.faults is None else spec.faults.display_label,
                    "spec_hash": spec.spec_hash(),
                }
                for spec in specs
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not specs:
        print("(no scenarios match)" if arguments.tag else "(registry is empty)")
        return 0
    width = max(len(spec.name) for spec in specs)
    print(f"{len(specs)} scenarios (code version {code_version()}):")
    for spec in specs:
        tags = ",".join(spec.tags) or "-"
        line = (
            f"  {spec.name.ljust(width)}  {spec.experiment:<13} "
            f"{len(spec.graphs):>2} graphs x {len(spec.solvers)} solvers  "
            f"[{tags}]  {spec.spec_hash()}"
        )
        print(line)
        if arguments.verbose:
            print(f"  {' ' * width}  {spec.description}")
    return 0


def _make_cache(arguments: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(arguments, "no_cache", False):
        return None
    return ResultCache(arguments.cache_dir)


def _print_cell_tables(result: CellResult) -> None:
    spec = get_scenario(result.scenario)
    if result.from_cache:
        # Cached cells still report what the computation originally cost
        # (persisted in the entry meta); pre-telemetry entries show plain
        # "cache".
        origin = "cache" if not result.elapsed_s else f"cache, ran in {result.elapsed_s:.2f}s"
    else:
        origin = f"{result.duration_s:.2f}s"
    faults = "" if spec.faults is None else f", faults {spec.faults.display_label}"
    print(
        f"\n== {result.scenario} (experiment {spec.experiment}, seed {result.seed}, "
        f"engine {result.engine}{faults}, {origin}) =="
    )
    print(render_records(result.records))
    print()
    print(render_summary(aggregate_records(result.records)))


def _violations(records: Sequence[ExperimentRecord]) -> int:
    return sum(
        1
        for record in records
        if not record.is_dominating or record.within_guarantee is False
    )


def _is_fault_scenario(name: str) -> bool:
    return get_scenario(name).faults is not None


def _run_spec_file(path: str) -> int:
    """Run one wire-format RunSpec file; prints the JSON result summary.

    One parser for files and for the service: the file goes through
    :meth:`repro.RunSpec.from_json` -- the exact codec behind ``POST /run``
    -- so error messages (bad field, unknown key) match the server's 400s.
    """
    from repro.run import RunSpec, Session
    from repro.run.wire import WireFormatError
    from repro.serve.service import summarize_result

    try:
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
    except OSError as error:
        raise _UsageError(str(error)) from None
    try:
        spec = RunSpec.from_json(text)
    except WireFormatError as error:
        raise _UsageError(str(error)) from None
    result = Session().run(spec)
    print(json.dumps(summarize_result(result), indent=2, sort_keys=True))
    return 1 if result.is_valid is False else 0


def _command_run(arguments: argparse.Namespace) -> int:
    if arguments.spec is not None:
        if arguments.scenario is not None:
            raise _UsageError("give a scenario name or --spec FILE.json, not both")
        return _run_spec_file(arguments.spec)
    if arguments.scenario is None:
        raise _UsageError("a scenario name (or --spec FILE.json) is required")
    _resolve_scenario(arguments.scenario)  # fail fast on unknown names
    shards = _resolve_shards(arguments)
    (name,) = _overlay_faults([arguments.scenario], arguments.faults)
    runner = SweepRunner(cache=_make_cache(arguments), workers=1, shards=shards)
    if arguments.trace is not None:
        # A trace of a cache hit would be empty: force execution (results
        # are still written back so later runs hit the cache again).
        runner.refresh = True
        cell = SweepCell(scenario=name, seed=arguments.seed, engine=arguments.engine)
        runner.trace_paths[cell] = arguments.trace
    try:
        (result,) = runner.sweep([name], seeds=[arguments.seed],
                                 engines=[arguments.engine])
    except EngineCapabilityError as error:
        # A capability error raised outside the cell body (e.g. while
        # resolving the engine) is an argument problem, not a bug -- report
        # it as the documented exit-2 usage error.
        raise _UsageError(str(error)) from None
    if result.skipped is not None:
        # An unsupported (scenario, engine) cell: same usage-error contract.
        raise _UsageError(result.skipped)
    _print_cell_tables(result)
    if _is_fault_scenario(name):
        degraded = _violations(result.records)
        if degraded:
            print(f"degraded: {degraded}/{len(result.records)} records (adversarial run)")
        return 0
    return 1 if _violations(result.records) else 0


def _select_scenarios(arguments: argparse.Namespace) -> List[str]:
    names: List[str] = list(arguments.scenarios)
    if arguments.smoke:
        names.extend(spec.name for spec in list_scenarios(tag="smoke"))
    if arguments.tag:
        names.extend(spec.name for spec in list_scenarios(tag=arguments.tag))
    if arguments.all:
        names.extend(spec.name for spec in list_scenarios())
    unique: List[str] = []
    for name in names:
        _resolve_scenario(name)  # fail fast on unknown names
        if name not in unique:
            unique.append(name)
    return unique


def _command_sweep(arguments: argparse.Namespace) -> int:
    names = _select_scenarios(arguments)
    if not names:
        print("error: no scenarios selected (give names, --tag, --all or --smoke)",
              file=sys.stderr)
        return 2
    names = _overlay_faults(names, arguments.faults)
    shards = _resolve_shards(arguments)
    if arguments.engine == "all":
        engines: Sequence[str] = _ALL_ENGINES
    elif arguments.smoke or arguments.engine == "both":
        engines = _ENGINES
    else:
        engines = (arguments.engine,)
    seeds = list(range(max(1, arguments.seeds)))
    cells = expand_cells(names, seeds, engines)
    cache = _make_cache(arguments)
    budget = _resolve_budget(arguments)
    runner = SweepRunner(
        cache=cache,
        workers=max(1, arguments.workers),
        trace_dir=arguments.trace_dir,
        shards=shards,
        budget=budget,
    )

    results: List[CellResult] = []
    total_violations = 0
    total_degraded = 0
    total_skipped = 0
    budget_skipped = 0
    for result in runner.run_cells(cells):
        results.append(result)
        origin = "cache " if result.from_cache else f"{result.duration_s:5.2f}s"
        if result.skipped is not None:
            # A cell the sweep could not run: either an unsupported
            # (scenario, engine) combination or one the budget governor
            # refused.  Reported, counted in the summary, never cached --
            # and never silently dropped.
            if result.skip_reason == "budget":
                budget_skipped += 1
            else:
                total_skipped += 1
            print(
                f"[{origin}] {result.scenario} seed={result.seed} "
                f"engine={result.engine} skipped: {result.skipped}"
            )
            continue
        flagged = _violations(result.records)
        if _is_fault_scenario(result.scenario):
            # Adversarial cells measure degradation; a broken guarantee is
            # the data point, not a failure.
            total_degraded += flagged
            status = "" if flagged == 0 else f"  degraded={flagged}"
        else:
            total_violations += flagged
            status = "" if flagged == 0 else f"  VIOLATIONS={flagged}"
        print(
            f"[{origin}] {result.scenario} seed={result.seed} engine={result.engine} "
            f"{len(result.records)} records{status}"
        )

    parity_failures = 0
    if len(engines) > 1:
        parity_failures = _check_engine_parity(results)

    cached = sum(1 for result in results if result.from_cache)
    degraded_note = f", {total_degraded} degraded (adversarial)" if total_degraded else ""
    skipped_note = f", {total_skipped} skipped (unsupported cells)" if total_skipped else ""
    budget_note = f", {budget_skipped} skipped (budget)" if budget_skipped else ""
    print(
        f"\n{len(results)} cells, {cached} from cache "
        f"({100.0 * cached / len(results):.0f}%), "
        f"{sum(len(result.records) for result in results)} records, "
        f"{total_violations} violations{degraded_note}{skipped_note}{budget_note}"
    )
    if budget is not None:
        summary = runner.budget_summary()
        if summary is not None:
            print(summary)
    if total_skipped:
        # The structured (algorithm, engine, fault_model) skip aggregation:
        # which capability-matrix cells this sweep actually asked for.
        counts = aggregate_skips(results)
        rendered = ", ".join(
            f"{format_skip_cell(cell)} x{count}"
            for cell, count in sorted(counts.items(), key=lambda item: format_skip_cell(item[0]))
        )
        print(f"skipped capability cells: {rendered}")
    if cache is not None:
        print(f"cache: {cache.root} ({cache.entry_count()} entries)")
    if arguments.report:
        for result in results:
            if result.skipped is None:
                _print_cell_tables(result)
    return 1 if (total_violations or parity_failures) else 0


def _check_engine_parity(results: Sequence[CellResult]) -> int:
    """Byte-compare record streams across engines for each (scenario, seed)."""
    grouped: Dict[tuple, Dict[str, bytes]] = {}
    for result in results:
        if result.skipped is not None:
            # A skipped cell produced no record stream to compare.
            continue
        grouped.setdefault((result.scenario, result.seed), {})[result.engine] = (
            records_to_bytes(result.records)
        )
    failures = 0
    for (scenario, seed), by_engine in sorted(grouped.items()):
        if len(by_engine) < 2:
            continue
        reference = list(by_engine.values())[0]
        if all(blob == reference for blob in by_engine.values()):
            print(f"parity OK: {scenario} seed={seed} ({', '.join(sorted(by_engine))})")
        else:
            failures += 1
            print(f"parity FAILED: {scenario} seed={seed}", file=sys.stderr)
    return failures


def _command_report(arguments: argparse.Namespace) -> int:
    cache = ResultCache(arguments.cache_dir)
    missing = []
    all_records: List[ExperimentRecord] = []
    for name in arguments.scenarios:
        spec = _resolve_scenario(name)
        key = cache_key(spec.spec_hash(), arguments.seed, arguments.engine)
        entry = cache.get_entry(key)
        if entry is None:
            missing.append(name)
            continue
        records, meta = entry
        all_records.extend(records)
        result = CellResult(
            cell=SweepCell(scenario=name, seed=arguments.seed, engine=arguments.engine),
            records=records,
            from_cache=True,
            duration_s=0.0,
            key=key,
            spec_hash=spec.spec_hash(),
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            maxrss_kb=int(meta.get("maxrss_kb", 0)),
        )
        _print_cell_tables(result)
    if missing:
        print(
            "error: no cached results for: " + ", ".join(missing)
            + f" (seed {arguments.seed}, engine {arguments.engine}, cache {cache.root}); "
            "run `python -m repro sweep` first",
            file=sys.stderr,
        )
        return 2
    if arguments.plots:
        return _render_report_plots(all_records, arguments.plots_dir)
    return 0


def _render_report_plots(
    records: List[ExperimentRecord], plots_dir: Optional[str]
) -> int:
    from repro.obs.report import DEFAULT_PLOTS_DIR, matplotlib_available, render_plots

    if not matplotlib_available():
        print(
            "error: --plots needs matplotlib, which is not installed "
            "(pip install matplotlib); tables above are unaffected",
            file=sys.stderr,
        )
        return 2
    written = render_plots(records, plots_dir or DEFAULT_PLOTS_DIR)
    for path in written:
        print(f"plot: {path}")
    if not written:
        print("no plots rendered (no applicable data in the cached records)")
    return 0
