"""Declarative fault plans: the *what* of adversarial network conditions.

A :class:`FaultPlan` is a concrete, seeded description of every deviation
from the idealized synchronous fault-free CONGEST network, bound to the node
and edge identifiers of one specific input graph:

* **node crashes** (:class:`CrashFault`) -- crash-stop (the node never acts
  again) and crash-recover (the node is down for a window of rounds, then
  resumes with its local state intact, having missed every message that
  arrived while it was down);
* **link faults** (:class:`LinkFault`) -- per-link message omission
  probability and per-link latency distributions that delay delivery by
  whole rounds, with plan-wide defaults for both;
* **topology churn** (:class:`ChurnEvent`) -- scheduled removal and
  re-insertion of input-graph edges.  The algorithm's *knowledge* (its
  neighbor list) is the static input graph; churn only changes which links
  currently deliver messages, the standard dynamic-network-with-static-
  footprint model.

Plans are immutable values: picklable (they cross the sweep runner's
process boundary inside scenario specs), hashable content (``as_dict`` is
JSON-ready), and engine-independent.  A plan holds its crashes and churn
either as tuples of the event classes above or, when materialised on a CSR
graph, as :class:`PlanColumns` arrays with no Python object per event; the
two forms are one value (equal, same hash, same ``as_dict``).  The runtime
that applies a plan inside an engine's round loop is
:class:`repro.faults.session.FaultSession`; the engine wrapper is
:class:`repro.faults.engine.AdversarialEngine`.

Timing model (all rounds are the simulator's global round indices):

* a node with a crash window ``[start, recover)`` executes no round in that
  window; ``recover=None`` means crash-stop;
* a message sent in round ``r`` normally arrives at the start of round
  ``r + 1``; a latency draw of ``d`` extra rounds moves arrival to
  ``r + 1 + d``;
* a send attempt is dropped at *send* time when the link is churned out or
  the omission draw fires, and at *arrival* time when the receiver is
  crashed in the arrival round;
* churn events scheduled for round ``r`` take effect before round ``r``
  executes; inserts are applied before removes within one round.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Dict, Hashable, NamedTuple, Optional, Tuple

__all__ = ["CrashFault", "LinkFault", "ChurnEvent", "FaultPlan", "PlanColumns"]

#: Accepted ``FaultPlan.on_round_limit`` policies.
ROUND_LIMIT_POLICIES = ("stop", "raise")


@dataclass(frozen=True)
class CrashFault:
    """One node-crash window.

    ``start`` is the first round the node misses; ``recover`` is the first
    round it executes again (``None`` = crash-stop, the node is down
    forever).  A recovering node keeps its local state but has missed every
    round and every message delivery inside the window.
    """

    node: Hashable
    start: int = 0
    recover: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"crash start must be >= 0, got {self.start}")
        if self.recover is not None and self.recover <= self.start:
            raise ValueError(
                f"crash recover round {self.recover} must be after start {self.start}"
            )

    @property
    def is_permanent(self) -> bool:
        return self.recover is None

    def as_dict(self) -> Dict[str, object]:
        return {"node": _ident(self.node), "start": self.start, "recover": self.recover}


@dataclass(frozen=True)
class LinkFault:
    """Per-link override of the plan-wide omission/latency defaults.

    The link is the undirected edge ``{u, v}``; the fault applies to both
    directions.  ``latency_low``/``latency_high`` bound a per-message uniform
    integer delay in whole rounds (``0``/``0`` = no extra latency).
    """

    u: Hashable
    v: Hashable
    drop_probability: float = 0.0
    latency_low: int = 0
    latency_high: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must lie in [0, 1], got {self.drop_probability}"
            )
        if self.latency_low < 0 or self.latency_high < self.latency_low:
            raise ValueError(
                f"latency bounds must satisfy 0 <= low <= high, got "
                f"[{self.latency_low}, {self.latency_high}]"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "u": _ident(self.u),
            "v": _ident(self.v),
            "drop_probability": self.drop_probability,
            "latency_low": self.latency_low,
            "latency_high": self.latency_high,
        }


@dataclass(frozen=True)
class ChurnEvent:
    """A scheduled topology change: remove or re-insert one input-graph edge."""

    round_index: int
    action: str  # "remove" | "insert"
    u: Hashable
    v: Hashable

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError(f"churn round must be >= 0, got {self.round_index}")
        if self.action not in ("remove", "insert"):
            raise ValueError(f"churn action must be 'remove' or 'insert', got {self.action!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "round": self.round_index,
            "action": self.action,
            "u": _ident(self.u),
            "v": _ident(self.v),
        }


class PlanColumns(NamedTuple):
    """The crash and churn schedule of a plan as aligned ``int64`` arrays.

    This is how :meth:`repro.faults.spec.FaultSpec.materialize` stores a
    plan drawn on a :class:`~repro.graphs.large_scale.CSRGraph`, whose node
    ids are its indices: one entry per crash window and one per churn event,
    in plan order, with no Python object per event.
    """

    crash_node: Any
    crash_start: Any
    crash_recover: Any  # -1 = crash-stop
    churn_round: Any
    churn_u: Any
    churn_v: Any
    churn_insert: Any  # bool: True = "insert", False = "remove"


#: Field order of :class:`FaultPlan` (constructor, equality, hash, repr).
_FIELDS = (
    "crashes",
    "drop_probability",
    "latency_low",
    "latency_high",
    "links",
    "churn",
    "seed",
    "on_round_limit",
)


class FaultPlan:
    """A complete, seeded adversarial schedule for one network.

    Attributes
    ----------
    crashes:
        Crash windows; a node may appear in several non-overlapping windows.
    drop_probability / latency_low / latency_high:
        Plan-wide per-link defaults (see :class:`LinkFault`).
    links:
        Per-link overrides of the defaults.
    churn:
        Scheduled edge removals/insertions.  Only input-graph edges may be
        churned; the algorithms' neighbor knowledge is the static footprint.
    seed:
        Seed of the per-round omission/latency draws.  A fixed
        ``(plan, network)`` pair reproduces the exact same byte-level
        execution across repeated runs, engines, and processes.
    on_round_limit:
        ``"stop"`` (default) cuts an adversarial run off at the simulator's
        round limit, recording the unfinished nodes as
        ``RunMetrics.stalled_nodes`` -- faults can legitimately starve an
        algorithm of the messages it needs to finish.  ``"raise"`` keeps the
        fault-free behavior (:class:`~repro.congest.errors.NonConvergenceError`).
        Empty plans always raise, so they stay byte-identical to plain runs.

    A plan is immutable and compares, hashes and pickles by content.  It
    has two storage forms with one interface: the tuple form built by this
    constructor, and the columnar form built by :meth:`from_columns` (what
    a plan materialised on a CSR graph uses).  A columnar plan keeps its
    crashes and churn as :class:`PlanColumns` arrays (``columns``, which is
    ``None`` on a tuple-form plan) and builds the
    ``crashes`` / ``churn`` tuples only when they are read; its queries
    (:meth:`is_empty`, :attr:`has_churn`, :meth:`faulty_nodes`,
    :meth:`describe`) read the arrays.
    """

    def __init__(
        self,
        crashes: Tuple[CrashFault, ...] = (),
        drop_probability: float = 0.0,
        latency_low: int = 0,
        latency_high: int = 0,
        links: Tuple[LinkFault, ...] = (),
        churn: Tuple[ChurnEvent, ...] = (),
        seed: int = 0,
        on_round_limit: str = "stop",
    ) -> None:
        self._init_scalars(
            drop_probability, latency_low, latency_high, links, seed, on_round_limit
        )
        crashes = tuple(crashes)
        _set(self, _crashes=crashes, _churn=tuple(churn), columns=None)
        windows: Dict[Hashable, list] = {}
        for crash in crashes:
            windows.setdefault(crash.node, []).append(crash)
        for node, node_windows in windows.items():
            ordered = sorted(node_windows, key=lambda c: c.start)
            for earlier, later in zip(ordered, ordered[1:]):
                if earlier.recover is None or later.start < earlier.recover:
                    raise ValueError(
                        f"node {node!r} has overlapping crash windows "
                        f"({earlier} and {later})"
                    )

    @classmethod
    def from_columns(
        cls,
        columns: PlanColumns,
        drop_probability: float = 0.0,
        latency_low: int = 0,
        latency_high: int = 0,
        links: Tuple[LinkFault, ...] = (),
        seed: int = 0,
        on_round_limit: str = "stop",
    ) -> "FaultPlan":
        """A columnar plan; validated on the arrays, equal to its tuple form."""
        import numpy as np

        plan = cls.__new__(cls)
        plan._init_scalars(
            drop_probability, latency_low, latency_high, links, seed, on_round_limit
        )
        columns = PlanColumns(
            *(np.asarray(column, dtype=np.int64) for column in columns[:-1]),
            np.asarray(columns.churn_insert, dtype=bool),
        )
        node, start, recover = columns.crash_node, columns.crash_start, columns.crash_recover
        if len({len(column) for column in columns[:3]}) > 1 or (
            len({len(column) for column in columns[3:]}) > 1
        ):
            raise ValueError("crash columns and churn columns must each be aligned")
        if len(columns.churn_round) and int(columns.churn_round.min()) < 0:
            raise ValueError(
                f"churn round must be >= 0, got {int(columns.churn_round.min())}"
            )
        if len(start) and int(start.min()) < 0:
            raise ValueError(f"crash start must be >= 0, got {int(start.min())}")
        bad = (recover != -1) & (recover <= start)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"crash recover round {int(recover[i])} must be after start {int(start[i])}"
            )
        order = np.lexsort((start, node))
        node_s, start_s, recover_s = node[order], start[order], recover[order]
        overlap = (node_s[1:] == node_s[:-1]) & (
            (recover_s[:-1] == -1) | (start_s[1:] < recover_s[:-1])
        )
        if overlap.any():
            i = int(np.flatnonzero(overlap)[0])
            earlier, later = (
                CrashFault(int(node_s[j]), int(start_s[j]), _recover(recover_s[j]))
                for j in (i, i + 1)
            )
            raise ValueError(
                f"node {earlier.node!r} has overlapping crash windows "
                f"({earlier} and {later})"
            )
        _set(plan, _crashes=None, _churn=None, columns=columns)
        return plan

    def _init_scalars(
        self, drop_probability, latency_low, latency_high, links, seed, on_round_limit
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must lie in [0, 1], got {drop_probability}"
            )
        if latency_low < 0 or latency_high < latency_low:
            raise ValueError(
                f"latency bounds must satisfy 0 <= low <= high, got "
                f"[{latency_low}, {latency_high}]"
            )
        if on_round_limit not in ROUND_LIMIT_POLICIES:
            raise ValueError(
                f"on_round_limit must be one of {ROUND_LIMIT_POLICIES}, "
                f"got {on_round_limit!r}"
            )
        _set(
            self,
            drop_probability=drop_probability,
            latency_low=latency_low,
            latency_high=latency_high,
            links=tuple(links),
            seed=seed,
            on_round_limit=on_round_limit,
        )

    # -- the tuple views ---------------------------------------------------

    @property
    def crashes(self) -> Tuple[CrashFault, ...]:
        if self._crashes is None:
            columns = self.columns
            _set(
                self,
                _crashes=tuple(
                    CrashFault(node, start, _recover(recover))
                    for node, start, recover in zip(
                        columns.crash_node.tolist(),
                        columns.crash_start.tolist(),
                        columns.crash_recover.tolist(),
                    )
                ),
            )
        return self._crashes

    @property
    def churn(self) -> Tuple[ChurnEvent, ...]:
        if self._churn is None:
            columns = self.columns
            _set(
                self,
                _churn=tuple(
                    ChurnEvent(round_index, "insert" if insert else "remove", u, v)
                    for round_index, insert, u, v in zip(
                        columns.churn_round.tolist(),
                        columns.churn_insert.tolist(),
                        columns.churn_u.tolist(),
                        columns.churn_v.tolist(),
                    )
                ),
            )
        return self._churn

    # -- value semantics ---------------------------------------------------

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"{self.__class__.__name__}({fields})"

    # -- queries -----------------------------------------------------------

    def _crash_count(self) -> int:
        columns = self.columns
        return len(self._crashes) if columns is None else len(columns.crash_node)

    def _churn_count(self) -> int:
        columns = self.columns
        return len(self._churn) if columns is None else len(columns.churn_round)

    def is_empty(self) -> bool:
        """True iff the plan changes nothing about a fault-free execution."""
        return (
            not self._crash_count()
            and self.drop_probability == 0.0
            and self.latency_high == 0
            and not self._churn_count()
            and all(
                link.drop_probability == 0.0 and link.latency_high == 0
                for link in self.links
            )
        )

    @property
    def has_churn(self) -> bool:
        return bool(self._churn_count())

    def faulty_nodes(self) -> Tuple[Hashable, ...]:
        """Sorted tuple of every node with at least one crash window."""
        if self.columns is None:
            nodes = {crash.node for crash in self._crashes}
        else:
            nodes = set(self.columns.crash_node.tolist())
        return tuple(sorted(nodes, key=repr))

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form (used for content hashing)."""
        return {
            "crashes": [crash.as_dict() for crash in self.crashes],
            "drop_probability": self.drop_probability,
            "latency_low": self.latency_low,
            "latency_high": self.latency_high,
            "links": [link.as_dict() for link in self.links],
            "churn": [event.as_dict() for event in self.churn],
            "seed": self.seed,
            "on_round_limit": self.on_round_limit,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = []
        crash_count = self._crash_count()
        if crash_count:
            if self.columns is None:
                permanent = sum(1 for crash in self._crashes if crash.is_permanent)
            else:
                permanent = int((self.columns.crash_recover == -1).sum())
            parts.append(f"crashes={permanent} stop/{crash_count - permanent} recover")
        if self.drop_probability:
            parts.append(f"drop_p={self.drop_probability}")
        if self.latency_high:
            parts.append(f"latency=[{self.latency_low},{self.latency_high}]")
        if self.links:
            parts.append(f"link_overrides={len(self.links)}")
        churn_count = self._churn_count()
        if churn_count:
            parts.append(f"churn_events={churn_count}")
        return "no faults" if not parts else " ".join(parts)


def _set(plan: FaultPlan, **attributes: object) -> None:
    """Write attributes past the frozen ``__setattr__`` (construction only)."""
    for name, value in attributes.items():
        object.__setattr__(plan, name, value)


def _recover(value) -> Optional[int]:
    """A crash column's recover round (``-1`` is crash-stop) as a plan field."""
    return None if value == -1 else int(value)


def _ident(value: Hashable) -> object:
    """JSON-ready form of a node identifier (ints/strs pass through)."""
    if isinstance(value, (int, str, bool, float)) or value is None:
        return value
    return repr(value)
