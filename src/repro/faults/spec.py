"""Declarative, graph-agnostic fault specifications for the scenario registry.

A :class:`FaultSpec` describes an adversarial *regime* -- "crash 20% of the
nodes at round 2", "drop 10% of messages per link", "churn 15% of the edges
every 4 rounds" -- without naming concrete nodes or edges.  It is the fault
analogue of :class:`repro.orchestration.registry.WeightSpec`: plain,
JSON-serialisable (``as_dict`` feeds the scenario content hash), picklable
across sweep worker processes, and *materialised* against a concrete graph
and sweep-cell seed into a :class:`~repro.faults.plan.FaultPlan` with real
node/edge identifiers.

Materialisation is deterministic: victims and churned edges are sampled by
position in the graph's node and edge order, with a :class:`random.Random`
seeded from the resolved spec seed (string-seeded, so identical across
processes), and the resulting plan carries the same seed for its per-round
omission/latency draws.  A fixed ``(spec, graph, seed)`` triple therefore
reproduces the identical adversarial schedule everywhere -- the property the
sweep cache and the cross-engine parity gates rely on.

:data:`FAULT_MODELS` names a catalogue of ready-made regimes; the CLI's
``--faults`` flag overlays one of them onto any registered scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

import networkx as nx

from repro.faults.plan import (
    ROUND_LIMIT_POLICIES,
    ChurnEvent,
    CrashFault,
    FaultPlan,
    PlanColumns,
)

__all__ = ["FaultSpec", "FAULT_MODELS", "fault_model"]


@dataclass(frozen=True)
class FaultSpec:
    """A seeded adversarial regime, materialisable against any graph.

    Attributes
    ----------
    crash_fraction / crash_count:
        How many nodes crash (a fraction of ``n``, or an absolute count that
        takes precedence when given).  Victims are sampled uniformly.
    crash_at:
        First round the victims miss.
    recover_after:
        Downtime in rounds; ``None`` means crash-stop (never recover).
    drop_probability:
        Per-link, per-message omission probability (applied to every link).
    latency_max:
        Per-message uniform integer delay in ``[0, latency_max]`` whole
        rounds on every link (0 = synchronous delivery).
    churn_fraction / churn_period / churn_epochs:
        Every ``churn_period`` rounds (for ``churn_epochs`` epochs), a fresh
        ``churn_fraction`` of the input edges is removed; each removed batch
        is re-inserted one period later.
    seed:
        ``None`` derives the fault seed from the sweep cell seed (each cell
        sees a fresh adversary); a fixed integer pins the schedule.
    label:
        Short name recorded in experiment records (defaults to a summary).
    on_round_limit:
        Passed through to the plan; see :class:`FaultPlan`.
    """

    crash_fraction: float = 0.0
    crash_count: Optional[int] = None
    crash_at: int = 1
    recover_after: Optional[int] = None
    drop_probability: float = 0.0
    latency_max: int = 0
    churn_fraction: float = 0.0
    churn_period: int = 0
    churn_epochs: int = 8
    seed: Optional[int] = None
    label: Optional[str] = None
    on_round_limit: str = "stop"

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError(f"crash_fraction must lie in [0, 1], got {self.crash_fraction}")
        if self.crash_count is not None and self.crash_count < 0:
            raise ValueError(f"crash_count must be >= 0, got {self.crash_count}")
        if self.crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.recover_after is not None and self.recover_after < 1:
            raise ValueError(f"recover_after must be >= 1, got {self.recover_after}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must lie in [0, 1], got {self.drop_probability}"
            )
        if self.latency_max < 0:
            raise ValueError(f"latency_max must be >= 0, got {self.latency_max}")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError(f"churn_fraction must lie in [0, 1], got {self.churn_fraction}")
        if self.churn_fraction > 0.0 and self.churn_period < 1:
            raise ValueError("churn_fraction > 0 requires churn_period >= 1")
        if self.churn_epochs < 0:
            raise ValueError(f"churn_epochs must be >= 0, got {self.churn_epochs}")
        if self.on_round_limit not in ROUND_LIMIT_POLICIES:
            raise ValueError(
                f"on_round_limit must be one of {ROUND_LIMIT_POLICIES}, "
                f"got {self.on_round_limit!r}"
            )

    # -- identity ----------------------------------------------------------

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        parts = []
        if self.crash_count is not None or self.crash_fraction:
            amount = (
                str(self.crash_count)
                if self.crash_count is not None
                else f"{self.crash_fraction:.0%}"
            )
            kind = "stop" if self.recover_after is None else f"recover+{self.recover_after}"
            parts.append(f"crash[{amount},{kind}]")
        if self.drop_probability:
            parts.append(f"drop[{self.drop_probability}]")
        if self.latency_max:
            parts.append(f"latency[{self.latency_max}]")
        if self.churn_fraction and self.churn_period:
            parts.append(f"churn[{self.churn_fraction:.0%}/{self.churn_period}r]")
        return "+".join(parts) or "no-faults"

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form; part of the scenario content hash.

        The human ``label`` is excluded, mirroring how scenario descriptions
        and tags are excluded: relabelling must not invalidate caches.
        """
        return {
            "crash_fraction": self.crash_fraction,
            "crash_count": self.crash_count,
            "crash_at": self.crash_at,
            "recover_after": self.recover_after,
            "drop_probability": self.drop_probability,
            "latency_max": self.latency_max,
            "churn_fraction": self.churn_fraction,
            "churn_period": self.churn_period,
            "churn_epochs": self.churn_epochs,
            "seed": self.seed,
            "on_round_limit": self.on_round_limit,
        }

    # -- materialisation ---------------------------------------------------

    def resolved_seed(self, cell_seed: int) -> int:
        return self.seed if self.seed is not None else cell_seed

    def materialize(self, graph: nx.Graph, cell_seed: int = 0) -> FaultPlan:
        """Bind the regime to concrete nodes/edges of ``graph``, seeded.

        Victims and churned edges are sampled *by position* in the graph's
        own node/edge order, which is reproducible for graphs rebuilt from
        the same :class:`~repro.orchestration.registry.GraphSpec`, so
        materialisation is stable across processes.  On a
        :class:`~repro.graphs.large_scale.CSRGraph` the same positions
        index the node range and :meth:`~repro.graphs.large_scale.CSRGraph.edge_arrays`
        (the ``to_networkx()`` node and edge order), so the plan equals the
        one drawn on ``graph.to_networkx()``; it is built columnar
        (:meth:`FaultPlan.from_columns`), with no Python object per crash
        or churn event.
        """
        from repro.graphs.large_scale import CSRGraph

        seed = self.resolved_seed(cell_seed)
        rng = random.Random(f"faultspec:{seed}")
        columnar = isinstance(graph, CSRGraph)

        n = graph.number_of_nodes()
        if self.crash_count is not None:
            victim_count = min(self.crash_count, n)
        else:
            victim_count = min(int(round(self.crash_fraction * n)), n)
        victims = rng.sample(range(n), victim_count) if victim_count else []
        recover = None if self.recover_after is None else self.crash_at + self.recover_after

        # Per epoch, the sampled edge positions; each is removed at the
        # epoch's start and re-inserted one period later.
        epochs = []
        if self.churn_fraction and self.churn_period and self.churn_epochs:
            m = graph.number_of_edges()
            per_epoch = min(int(round(self.churn_fraction * m)), m)
            if per_epoch:
                epochs = [
                    (epoch * self.churn_period, rng.sample(range(m), per_epoch))
                    for epoch in range(1, self.churn_epochs + 1)
                ]

        scalars = dict(
            drop_probability=self.drop_probability,
            latency_high=self.latency_max,
            seed=seed,
            on_round_limit=self.on_round_limit,
        )
        if columnar:
            return FaultPlan.from_columns(
                self._columns(graph, victims, recover, epochs), **scalars
            )
        nodes = list(graph.nodes())
        edges = list(graph.edges()) if epochs else []
        crashes = tuple(
            CrashFault(nodes[i], start=self.crash_at, recover=recover) for i in victims
        )
        churn = []
        for start, picks in epochs:
            for k in picks:
                u, v = edges[k]
                churn.append(ChurnEvent(start, "remove", u, v))
                churn.append(ChurnEvent(start + self.churn_period, "insert", u, v))
        return FaultPlan(crashes=crashes, churn=tuple(churn), **scalars)

    def _columns(self, graph, victims, recover, epochs) -> PlanColumns:
        """The sampled positions as :class:`PlanColumns` of a CSR graph."""
        import numpy as np

        crash_node = np.asarray(victims, dtype=np.int64)
        crash_start = np.full(len(victims), self.crash_at, dtype=np.int64)
        crash_recover = np.full(len(victims), -1 if recover is None else recover, dtype=np.int64)
        picks = np.asarray([k for _, sample in epochs for k in sample], dtype=np.int64)
        starts = np.repeat(
            np.asarray([start for start, _ in epochs], dtype=np.int64),
            [len(sample) for _, sample in epochs],
        )
        # Plan order: each sampled edge's removal, then its re-insertion.
        churn_round = np.stack([starts, starts + self.churn_period], axis=1).ravel()
        churn_insert = np.tile(np.array([False, True]), len(picks))
        if len(picks):
            edge_u, edge_v = graph.edge_arrays()
            churn_u = np.repeat(edge_u[picks], 2)
            churn_v = np.repeat(edge_v[picks], 2)
        else:
            churn_u = churn_v = np.empty(0, dtype=np.int64)
        return PlanColumns(
            crash_node, crash_start, crash_recover, churn_round, churn_u, churn_v, churn_insert
        )


#: Named fault regimes, selectable from the CLI via ``--faults <name>`` and
#: reused by the built-in fault scenarios.  Seeds are left unpinned so each
#: sweep cell faces a fresh adversary drawn from the same regime.
FAULT_MODELS: Dict[str, FaultSpec] = {
    "crash5": FaultSpec(crash_fraction=0.05, crash_at=2, label="crash5"),
    "crash15": FaultSpec(crash_fraction=0.15, crash_at=2, label="crash15"),
    "crash30": FaultSpec(crash_fraction=0.30, crash_at=2, label="crash30"),
    "crash-recover": FaultSpec(
        crash_fraction=0.20, crash_at=2, recover_after=4, label="crash-recover"
    ),
    "lossy2": FaultSpec(drop_probability=0.02, label="lossy2"),
    "lossy10": FaultSpec(drop_probability=0.10, label="lossy10"),
    "lossy25": FaultSpec(drop_probability=0.25, label="lossy25"),
    "latency2": FaultSpec(latency_max=2, label="latency2"),
    "churn": FaultSpec(churn_fraction=0.15, churn_period=4, label="churn"),
    "chaos": FaultSpec(
        crash_fraction=0.10,
        crash_at=3,
        recover_after=3,
        drop_probability=0.05,
        latency_max=1,
        churn_fraction=0.10,
        churn_period=5,
        label="chaos",
    ),
}


def fault_model(name: str) -> FaultSpec:
    """Look up a named fault regime from :data:`FAULT_MODELS`."""
    try:
        return FAULT_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_MODELS))
        raise KeyError(f"unknown fault model {name!r}; known models: {known}") from None
