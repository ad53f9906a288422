"""Exceptions raised by the CONGEST simulator."""

from __future__ import annotations

__all__ = [
    "CongestError",
    "BandwidthViolation",
    "AlgorithmError",
    "NonConvergenceError",
    "EngineCapabilityError",
]


class CongestError(Exception):
    """Base class for all simulator errors."""


class BandwidthViolation(CongestError):
    """A message exceeded the CONGEST per-edge, per-round bit budget.

    Attributes
    ----------
    sender / receiver:
        The endpoints of the offending message (also available together as
        the :attr:`edge` tuple, for log scraping and fault-scenario
        debugging).
    bits / budget:
        The estimated message size and the enforced per-message budget.
    round_index:
        The synchronous round in which the violation occurred, or ``None``
        when the raising context does not track rounds.
    """

    def __init__(self, sender, receiver, bits: int, budget: int, round_index=None):
        self.sender = sender
        self.receiver = receiver
        self.bits = bits
        self.budget = budget
        self.round_index = round_index
        where = "" if round_index is None else f" in round {round_index}"
        super().__init__(
            f"message on edge ({sender!r} -> {receiver!r}){where} needs ~{bits} bits, "
            f"but the CONGEST budget is {budget} bits"
        )

    @property
    def edge(self):
        """The offending ``(sender, receiver)`` link."""
        return (self.sender, self.receiver)


class EngineCapabilityError(CongestError):
    """A run asked an engine for a feature it does not provide.

    Raised instead of silently degrading -- e.g. the sharded engine refuses
    fault-injection hooks rather than executing the plan-free schedule and
    reporting fault-free metrics under an adversary the caller configured.
    :func:`repro.congest.kernels.check_capability` holds the capability
    table and is the one place it is raised.

    ``algorithm`` / ``engine`` / ``fault_model`` (all optional) identify
    the capability-matrix cell that was asked for, so sweep skip records
    and service error responses can aggregate by structured cell key
    instead of scraping the message (see :attr:`cell`).
    """

    def __init__(
        self,
        message: str,
        algorithm=None,
        engine=None,
        fault_model=None,
    ):
        super().__init__(message)
        self.algorithm = algorithm
        self.engine = engine
        self.fault_model = fault_model

    @property
    def cell(self):
        """The ``(algorithm, engine, fault_model)`` capability cell key."""
        return (self.algorithm, self.engine, self.fault_model)


class AlgorithmError(CongestError):
    """An algorithm misused the simulator API (e.g. sent to a non-neighbor)."""


class NonConvergenceError(CongestError):
    """The algorithm did not terminate within the allowed number of rounds.

    ``pending_nodes`` (optional) names the still-running nodes -- adversarial
    runs populate it so that a stall caused by e.g. a crash window spanning a
    node's finish round can be traced to the specific nodes involved.
    """

    def __init__(self, rounds: int, pending: int, pending_nodes=None):
        self.rounds = rounds
        self.pending = pending
        self.pending_nodes = None if pending_nodes is None else tuple(pending_nodes)
        detail = ""
        if self.pending_nodes is not None:
            shown = ", ".join(repr(node) for node in self.pending_nodes[:8])
            if len(self.pending_nodes) > 8:
                shown += ", ..."
            detail = f": {shown}"
        super().__init__(
            f"algorithm did not terminate after {rounds} rounds "
            f"({pending} nodes still running{detail})"
        )
