"""Shared fixtures for the benchmark harness.

Every benchmark file regenerates one experiment (E1..E10 reproduce the
paper's claims).  Besides the timing numbers collected by
pytest-benchmark, each experiment writes its "paper claim vs measured" table
to ``benchmarks/results/<experiment>.txt`` so the quantitative outcome is
inspectable after a plain ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.congest.engine import set_default_engine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCHMARKS_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Mark everything collected from benchmarks/ with the ``bench`` marker.

    ``pytest.ini`` deselects ``bench`` by default, so tier-1 runs (and CI)
    never execute benchmarks by accident; run them explicitly with
    ``pytest benchmarks/ -m bench``.
    """
    del config
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - defensive
            continue
        if BENCHMARKS_DIR.resolve() in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(autouse=True)
def _use_batched_engine():
    """Run every benchmark on the batched engine.

    The benchmarks measure the paper's *round/approximation* claims, which
    are engine-independent (``tests/congest/test_engine_parity.py``), so they
    default to the fast path; E11 is the exception that compares engines
    explicitly.  The default is restored after each test so that unit tests
    collected in the same pytest session keep exercising the reference
    engine.
    """
    previous = set_default_engine("batched")
    try:
        yield
    finally:
        set_default_engine(previous)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_experiment(results_dir):
    """Return a callable that persists one experiment's rendered table."""

    def _record(experiment_id: str, title: str, body: str) -> None:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(f"{experiment_id}: {title}\n\n{body}\n")
        # Also echo to stdout so `pytest -s` shows the tables inline.
        print(f"\n{experiment_id}: {title}\n{body}\n")

    return _record


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """A single seed shared by every experiment, for reproducibility."""
    return 2022  # the paper's publication year
