"""Budget-governed adaptive sweep scheduling.

Sweeps used to run *open-loop*: every cell of the scenario x seed x engine
grid executed, however long it took and however much memory it ate.  The
telemetry layer (PR 8) persists what each cell actually cost -- in-worker
wall time, the worker's peak memory, the run's message volume -- but nothing
consumed it.  This module closes the loop.

A :class:`SweepBudget` declares the resources one sweep invocation may
spend: wall-clock seconds, aggregate message bytes, and a per-cell memory
ceiling.  A :class:`SweepGovernor` sits between
:meth:`~repro.orchestration.runner.SweepRunner.run_cells` and the process
pool and keeps consumption strictly under that budget *by adapting the
schedule*, borrowing the peak-hold load-estimator idea from adaptive
sparsification throttles: per (scenario, engine) **cost class** it holds the
worst cost ever observed (a :class:`PeakHoldEstimator`, seeded from cached
entries' persisted telemetry, ratcheted by fresh in-sweep observations) and

* **admits** a cell only while its class's peak-hold cost still fits in the
  remaining budget;
* **reorders** pending cells cheapest-class-first once the projected cost of
  everything pending no longer fits, so the budget buys as many cells as
  possible;
* **downsamples** a class's pending seed list when that class *alone* would
  blow the remaining wall-clock budget;
* **early-stops** everything left once a budget is exhausted.

Cells the governor refuses surface as explicit skipped
:class:`~repro.orchestration.runner.CellResult` records (``skip_reason
== "budget"``) -- the same never-cached machinery capability skips use, so a
later, bigger-budget sweep re-runs them.

Two hard rules keep the governor honest:

* **An absent budget is absent.**  A :class:`SweepRunner` with no (or an
  unbounded) budget is ungoverned: it yields the same records, cache bytes
  and cell order as one that never heard of budgets.
* **Cached memory telemetry is advisory.**  ``maxrss_kb`` written by older
  code could carry the *coordinator's* copy-on-write footprint rather than
  the cell's own (see :class:`repro.obs.metrics.PeakRssMeter`); cached
  values therefore only seed the estimator and never, on their own, trigger
  the per-cell memory ceiling -- a class is only vetoed on memory evidence
  observed fresh in this sweep.

Governor decisions are counted in :data:`governor_metrics` (Prometheus text
via :meth:`~repro.obs.metrics.MetricsRegistry.render`) and summarised in the
one-line :meth:`SweepGovernor.summary` the sweep report prints.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SweepBudget",
    "PeakHoldEstimator",
    "SweepGovernor",
    "governor_metrics",
]

#: Process-local decision counters for the sweep governor (admissions,
#: budget skips by reason, reorders, downsampled classes, estimator seeds).
governor_metrics = MetricsRegistry()


@dataclass(frozen=True)
class SweepBudget:
    """Declared resource limits for one sweep invocation.

    Every field is optional; ``None`` means unlimited.  A budget with every
    field ``None`` is *unbounded* and must behave exactly like no budget at
    all -- :class:`~repro.orchestration.runner.SweepRunner` checks
    :attr:`bounded` and runs ungoverned in that case (same records, bytes
    and order as with no budget).

    Attributes
    ----------
    seconds:
        Wall-clock budget for the whole sweep, measured from the moment the
        governor starts scheduling.  Cache hits are free; only fresh
        execution spends it.
    bytes:
        Aggregate message-volume budget: the sum over freshly executed
        cells of their records' ``total_bits``, in bytes.
    cell_max_rss_kb:
        Per-cell memory ceiling in KiB.  A cost class whose *freshly
        observed* peak exceeds it has its remaining cells skipped; cached
        (advisory) telemetry never triggers this.
    """

    seconds: Optional[float] = None
    bytes: Optional[int] = None
    cell_max_rss_kb: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("seconds", "bytes", "cell_max_rss_kb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"budget {name} must be positive, got {value}")

    @property
    def bounded(self) -> bool:
        """Whether any limit is actually set."""
        return (
            self.seconds is not None
            or self.bytes is not None
            or self.cell_max_rss_kb is not None
        )

    # -- wire form ---------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form (the CLI/registry wire format)."""
        return {
            "seconds": self.seconds,
            "bytes": self.bytes,
            "cell_max_rss_kb": self.cell_max_rss_kb,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepBudget":
        unknown = set(payload) - {"seconds", "bytes", "cell_max_rss_kb"}
        if unknown:
            raise ValueError(f"unknown budget fields: {sorted(unknown)}")
        seconds = payload.get("seconds")
        raw_bytes = payload.get("bytes")
        ceiling = payload.get("cell_max_rss_kb")
        return cls(
            seconds=None if seconds is None else float(seconds),
            bytes=None if raw_bytes is None else int(raw_bytes),
            cell_max_rss_kb=None if ceiling is None else int(ceiling),
        )

    def describe(self) -> str:
        parts = []
        if self.seconds is not None:
            parts.append(f"{self.seconds:g}s wall")
        if self.bytes is not None:
            parts.append(f"{self.bytes:,} bytes")
        if self.cell_max_rss_kb is not None:
            parts.append(f"{self.cell_max_rss_kb:,} KiB/cell")
        return ", ".join(parts) if parts else "unbounded"


class PeakHoldEstimator:
    """Per-class peak-hold cost estimates: the worst cost ever seen, held.

    The estimator is deliberately pessimistic and deliberately simple --
    values only ratchet upward (``tests/orchestration/test_governor.py``
    holds monotonicity under arbitrary observation streams), because an
    estimate that decays optimistically is exactly how a governor overruns
    its budget.

    Two evidence tiers: :meth:`seed` feeds *advisory* telemetry (persisted
    by possibly-older code -- in particular ``maxrss_kb`` from before the
    worker-RSS fix could be coordinator-sized), :meth:`observe` feeds
    *fresh* in-sweep measurements.  Both ratchet the estimates; only fresh
    evidence marks the memory estimate trustworthy
    (:meth:`rss_is_fresh`), which is what gates memory-based vetoes.
    """

    def __init__(self) -> None:
        self._elapsed_s: Dict[Hashable, float] = {}
        self._bits: Dict[Hashable, int] = {}
        self._rss_kb: Dict[Hashable, int] = {}
        self._rss_fresh: Dict[Hashable, bool] = {}

    def _ratchet(self, key: Hashable, elapsed_s: float, maxrss_kb: int, bits: int) -> None:
        self._elapsed_s[key] = max(self._elapsed_s.get(key, 0.0), float(elapsed_s))
        self._bits[key] = max(self._bits.get(key, 0), int(bits))
        self._rss_kb[key] = max(self._rss_kb.get(key, 0), int(maxrss_kb))

    def seed(self, key: Hashable, elapsed_s: float = 0.0, maxrss_kb: int = 0,
             bits: int = 0) -> None:
        """Ratchet from persisted (advisory) telemetry, e.g. a cache entry."""
        self._ratchet(key, elapsed_s, maxrss_kb, bits)
        self._rss_fresh.setdefault(key, False)

    def observe(self, key: Hashable, elapsed_s: float = 0.0, maxrss_kb: int = 0,
                bits: int = 0) -> None:
        """Ratchet from a fresh in-sweep measurement."""
        self._ratchet(key, elapsed_s, maxrss_kb, bits)
        self._rss_fresh[key] = True

    def elapsed_s(self, key: Hashable) -> float:
        """Peak-hold wall-time estimate for ``key`` (0.0 when unseen)."""
        return self._elapsed_s.get(key, 0.0)

    def bits(self, key: Hashable) -> int:
        """Peak-hold message-volume estimate for ``key`` (0 when unseen)."""
        return self._bits.get(key, 0)

    def maxrss_kb(self, key: Hashable) -> int:
        """Peak-hold memory estimate for ``key`` (0 when unseen)."""
        return self._rss_kb.get(key, 0)

    def rss_is_fresh(self, key: Hashable) -> bool:
        """Whether the memory estimate carries in-sweep (non-advisory) evidence."""
        return self._rss_fresh.get(key, False)

    def known(self, key: Hashable) -> bool:
        return key in self._elapsed_s


#: A cost class: cells of one (scenario, engine) share instance sizes and
#: solver sets, so one peak-hold estimate covers all of its seeds.
ClassKey = Tuple[str, str]


def _class_key(cell) -> ClassKey:
    return (cell.scenario, cell.engine)


class SweepGovernor:
    """Adaptive scheduler holding one sweep under a :class:`SweepBudget`.

    Protocol (driven by :class:`~repro.orchestration.runner.SweepRunner`):

    1. :meth:`seed` once per cache hit with the entry's persisted telemetry;
    2. :meth:`schedule` with the cells that still need execution, then
       :meth:`start` when execution is about to begin;
    3. :meth:`next_cell` repeatedly -- each call returns the next admitted
       cell (possibly after reordering or vetoing queued ones) or ``None``
       once nothing else fits;
    4. :meth:`observe` once per completed fresh cell;
    5. :meth:`drain_skips` for the ``(cell, reason)`` list of everything the
       budget refused, and :meth:`summary` for the report line.

    Admission is predictive *and* reactive: a cell is refused up front when
    its class's peak-hold cost no longer fits the remaining budget, and
    everything pending is dropped the moment a budget is actually
    exhausted.  With parallel workers the projected cost of pending work is
    divided by the worker count (cells overlap), but exhaustion checks use
    real wall-clock -- overshoot is bounded by the cells already in flight,
    which the bounded submission window keeps small.
    """

    def __init__(
        self,
        budget: SweepBudget,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not budget.bounded:
            raise ValueError("an unbounded budget needs no governor")
        self.budget = budget
        self.workers = max(1, int(workers))
        self.estimator = PeakHoldEstimator()
        self._clock = clock
        self._started_at: Optional[float] = None
        self._pending: Deque[object] = deque()
        self._skips: List[Tuple[object, str]] = []
        self._spent_bits = 0
        self._admitted = 0
        self._skipped_total = 0
        self._completed = 0
        self._reorders = 0
        self._downsampled: Dict[ClassKey, int] = {}
        self._quota: Dict[ClassKey, int] = {}
        self._order_dirty = True

    # -- inputs ------------------------------------------------------------

    def seed(self, cell, meta: Dict[str, object]) -> None:
        """Feed one cache entry's persisted telemetry into the estimator."""
        self.estimator.seed(
            _class_key(cell),
            elapsed_s=float(meta.get("elapsed_s", 0.0) or 0.0),
            maxrss_kb=int(meta.get("maxrss_kb", 0) or 0),
            bits=int(meta.get("bits", 0) or 0),
        )
        governor_metrics.counter(
            "repro_governor_estimator_seeds_total",
            "Cache entries whose telemetry seeded the peak-hold estimator",
        ).inc()

    def schedule(self, cells: Sequence[object]) -> None:
        """Hand the governor the cells that still need execution, in order."""
        self._pending = deque(cells)
        self._order_dirty = True

    def start(self) -> None:
        """Start the wall clock (idempotent; called when execution begins)."""
        if self._started_at is None:
            self._started_at = self._clock()

    def observe(self, cell, elapsed_s: float, maxrss_kb: int, bits: int) -> None:
        """Record one freshly executed cell's measured cost."""
        self._completed += 1
        self._spent_bits += max(0, int(bits))
        self.estimator.observe(
            _class_key(cell), elapsed_s=elapsed_s, maxrss_kb=maxrss_kb, bits=bits
        )
        # Fresh evidence can change every projection: re-plan on next pull.
        self._order_dirty = True

    # -- accounting --------------------------------------------------------

    def elapsed_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return max(0.0, self._clock() - self._started_at)

    def spent_bytes(self) -> int:
        return self._spent_bits // 8

    def _remaining_seconds(self) -> Optional[float]:
        if self.budget.seconds is None:
            return None
        return self.budget.seconds - self.elapsed_s()

    def _remaining_bits(self) -> Optional[int]:
        if self.budget.bytes is None:
            return None
        return self.budget.bytes * 8 - self._spent_bits

    def _exhausted_reason(self) -> Optional[str]:
        remaining_s = self._remaining_seconds()
        if remaining_s is not None and remaining_s <= 0:
            return (
                f"budget: wall-clock budget exhausted "
                f"({self.elapsed_s():.2f}s of {self.budget.seconds:g}s spent)"
            )
        remaining_bits = self._remaining_bits()
        if remaining_bits is not None and remaining_bits <= 0:
            return (
                f"budget: byte budget exhausted "
                f"({self.spent_bytes():,} of {self.budget.bytes:,} bytes spent)"
            )
        return None

    # -- scheduling --------------------------------------------------------

    def _projected_pending_seconds(self) -> float:
        total = sum(self.estimator.elapsed_s(_class_key(cell)) for cell in self._pending)
        return total / self.workers

    def _replan(self) -> None:
        """Reorder pending cheapest-class-first once the budget gets tight.

        Only fires when the projected cost of everything pending exceeds
        the remaining wall-clock budget: while everything fits, submission
        order is preserved (stable output, no churn); once it stops
        fitting, running cheap classes first maximises how many cells the
        remaining budget buys.  The sort is stable, so cells inside one
        class keep their seed order.
        """
        self._order_dirty = False
        remaining_s = self._remaining_seconds()
        if remaining_s is None or len(self._pending) < 2:
            return
        if self._projected_pending_seconds() <= remaining_s:
            return
        before = list(self._pending)
        reordered = sorted(
            before, key=lambda cell: self.estimator.elapsed_s(_class_key(cell))
        )
        if reordered != before:
            self._pending = deque(reordered)
            self._reorders += 1
            governor_metrics.counter(
                "repro_governor_reorders_total",
                "Pending-cell reorders (cheapest class first) under budget pressure",
            ).inc()
        self._maybe_downsample()

    def _maybe_downsample(self) -> None:
        """Cap classes whose pending seed list alone would blow the budget.

        When the peak-hold estimate says a single class's remaining cells
        cannot all fit in the remaining wall-clock budget even with every
        worker on them, the class's seed list is downsampled: only the
        prefix that fits keeps its admission quota, the tail is vetoed at
        pull time.  Quotas only shrink (re-planning never resurrects a
        dropped seed), mirroring the estimator's monotonicity.
        """
        remaining_s = self._remaining_seconds()
        if remaining_s is None:
            return
        counts: Dict[ClassKey, int] = {}
        for cell in self._pending:
            key = _class_key(cell)
            counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            estimate = self.estimator.elapsed_s(key)
            if estimate <= 0:
                continue
            projected = estimate * count / self.workers
            if projected <= remaining_s:
                continue
            quota = max(0, int(remaining_s * self.workers / estimate))
            previous = self._quota.get(key, count)
            if quota < previous:
                if key not in self._downsampled:
                    governor_metrics.counter(
                        "repro_governor_downsampled_classes_total",
                        "Cost classes whose seed list was downsampled to fit the budget",
                    ).inc()
                self._downsampled[key] = self._downsampled.get(key, 0)
                self._quota[key] = quota

    def _veto(self, cell) -> Optional[Tuple[str, str]]:
        """A ``(reason, metric_label)`` veto for ``cell``, or ``None`` to admit."""
        key = _class_key(cell)
        quota = self._quota.get(key)
        if quota is not None and quota <= 0:
            return (
                f"budget: seed list of {cell.scenario!r} ({cell.engine}) downsampled "
                f"-- the class alone would exceed the remaining wall-clock budget",
                "downsampled",
            )
        ceiling = self.budget.cell_max_rss_kb
        if (
            ceiling is not None
            and self.estimator.rss_is_fresh(key)
            and self.estimator.maxrss_kb(key) > ceiling
        ):
            return (
                f"budget: observed cell memory {self.estimator.maxrss_kb(key):,} KiB "
                f"exceeds the {ceiling:,} KiB per-cell ceiling",
                "memory-ceiling",
            )
        remaining_s = self._remaining_seconds()
        if remaining_s is not None and self.estimator.elapsed_s(key) > remaining_s:
            return (
                f"budget: estimated cell cost {self.estimator.elapsed_s(key):.2f}s "
                f"exceeds the remaining {max(0.0, remaining_s):.2f}s wall-clock budget",
                "wont-fit",
            )
        remaining_bits = self._remaining_bits()
        if remaining_bits is not None and self.estimator.bits(key) > remaining_bits:
            return (
                f"budget: estimated cell volume {self.estimator.bits(key) // 8:,} bytes "
                f"exceeds the remaining {max(0, remaining_bits) // 8:,} byte budget",
                "wont-fit",
            )
        return None

    def _skip(self, cell, reason: str, metric_reason: str) -> None:
        self._skips.append((cell, reason))
        self._skipped_total += 1
        governor_metrics.counter(
            "repro_governor_cells_skipped_total",
            "Cells refused by the sweep governor",
            reason=metric_reason,
        ).inc()

    def next_cell(self):
        """The next admitted cell, or ``None`` once nothing else fits.

        ``None`` is final: everything still pending at that point has been
        moved to the skip list (:meth:`drain_skips`).
        """
        self.start()
        while self._pending:
            exhausted = self._exhausted_reason()
            if exhausted is not None:
                metric = (
                    "exhausted-bytes" if "byte budget" in exhausted
                    else "exhausted-wall-clock"
                )
                while self._pending:
                    self._skip(self._pending.popleft(), exhausted, metric)
                return None
            if self._order_dirty:
                self._replan()
            cell = self._pending.popleft()
            veto = self._veto(cell)
            if veto is not None:
                reason, metric = veto
                if metric == "downsampled":
                    self._downsampled[_class_key(cell)] += 1
                self._skip(cell, reason, metric)
                continue
            quota = self._quota.get(_class_key(cell))
            if quota is not None:
                self._quota[_class_key(cell)] = quota - 1
            self._admitted += 1
            governor_metrics.counter(
                "repro_governor_cells_admitted_total",
                "Cells admitted for execution by the sweep governor",
            ).inc()
            return cell
        return None

    # -- outputs -----------------------------------------------------------

    def drain_skips(self) -> List[Tuple[object, str]]:
        """The ``(cell, reason)`` list of everything the budget refused."""
        drained = self._skips
        self._skips = []
        return drained

    def summary(self) -> str:
        """One line for the sweep report: spend vs budget plus decisions."""
        parts = []
        if self.budget.seconds is not None:
            parts.append(f"{self.elapsed_s():.1f}s/{self.budget.seconds:g}s wall")
        if self.budget.bytes is not None:
            parts.append(f"{self.spent_bytes():,}/{self.budget.bytes:,} bytes")
        if self.budget.cell_max_rss_kb is not None:
            parts.append(f"cell ceiling {self.budget.cell_max_rss_kb:,} KiB")
        parts.append(f"{self._admitted} admitted")
        parts.append(f"{self._skipped_total} skipped (budget)")
        if self._downsampled:
            noun = "class" if len(self._downsampled) == 1 else "classes"
            parts.append(f"{len(self._downsampled)} {noun} downsampled")
        if self._reorders:
            noun = "reorder" if self._reorders == 1 else "reorders"
            parts.append(f"{self._reorders} {noun}")
        return "budget: " + ", ".join(parts)

    def skipped_count(self) -> int:
        return self._skipped_total

    def admitted_count(self) -> int:
        return self._admitted
