"""Byte-parity smoke for the unified execution API.

``python -m repro.run.smoke`` byte-compares one-shot :func:`repro.execute`
runs against :meth:`repro.Session.run_many` batches fanned out over two
worker processes, on the reference and batched engines, with and without a
fault model.  On a streamed :class:`~repro.graphs.large_scale.CSRGraph` it
does the same on the kernel tier (fault-free and under ``lossy10``) and
holds a two-shard ``engine="sharded"`` batch to one-shot kernel runs.  It
is deliberately small -- a few seconds -- because its job is wiring, not
coverage: the exhaustive algorithm x family grids live in ``tests/run/``
and ``tests/congest/``.

Exit code 0 when every comparison matches, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Optional, Sequence

import repro
from repro.graphs.generators import forest_union_graph
from repro.graphs.large_scale import csr_from_networkx
from repro.graphs.weights import assign_random_weights
from repro.run.result import result_bytes

__all__ = ["main"]

SEEDS = (0, 1, 2, 3)


def _check(label: str, batch, one_shot, failures: list) -> None:
    same = [result_bytes(result) for result in batch] == [
        result_bytes(result) for result in one_shot
    ]
    print(f"  {label:<64} {'OK' if same else 'MISMATCH'}")
    if not same:
        failures.append(label)


def _compare(label: str, base: repro.RunSpec, failures: list, reference=None) -> None:
    """``run_many(workers=2)`` over :data:`SEEDS` vs one ``execute`` per seed
    (of ``reference`` when given, else of ``base`` itself)."""
    with repro.Session() as session:
        batch = list(session.run_many(base=base, seeds=SEEDS, workers=2))
    expected = base if reference is None else reference
    one_shot = [repro.execute(dataclasses.replace(expected, seed=seed)) for seed in SEEDS]
    _check(f"run_many x{len(SEEDS)} (2 workers) vs execute, {label}", batch, one_shot, failures)


def main(argv: Optional[Sequence[str]] = None) -> int:
    del argv
    graph = forest_union_graph(n=120, alpha=3, seed=5)
    assign_random_weights(graph, 1, 25, seed=7)
    failures: list = []

    for engine in ("reference", "batched"):
        print(f"engine={engine}:")
        base = repro.RunSpec(
            graph=graph, algorithm="randomized", params={"t": 2}, alpha=3, engine=engine
        )
        _compare("randomized", base, failures)
        faulted = repro.RunSpec(
            graph=graph, algorithm="deterministic", params={"epsilon": 0.2},
            alpha=3, engine=engine, faults="lossy10",
        )
        _compare("deterministic + lossy10", faulted, failures)

    print("CSRGraph:")
    csr = csr_from_networkx(graph)
    kernel = repro.RunSpec(
        graph=csr, algorithm="weighted", params={"epsilon": 0.2}, alpha=3, engine="kernel"
    )
    _compare("kernel", kernel, failures)
    _compare(
        "kernel + lossy10", dataclasses.replace(kernel, faults="lossy10"), failures
    )
    _compare(
        "sharded (2 shards) vs kernel",
        dataclasses.replace(kernel, engine="sharded", shards=2),
        failures,
        reference=kernel,
    )

    if failures:
        print(f"\n{len(failures)} parity failure(s): {failures}", file=sys.stderr)
        return 1
    print("\nall batched, sharded and one-shot executions byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
