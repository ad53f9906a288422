"""Per-node view of the network exposed to distributed algorithms."""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Mapping, Tuple

__all__ = ["NodeContext"]


class NodeContext:
    """Everything a node knows locally.

    Instances are created by :class:`repro.congest.network.Network`; an
    algorithm receives them in its ``setup`` and ``round`` methods, stores
    its per-node variables in :attr:`state`, and ends or idles the node with
    :meth:`finish` and :meth:`sleep_until`.

    Attributes
    ----------
    node_id:
        The node's identifier (also usable as an ``O(log n)``-bit name).
    weight:
        The node's weight for the weighted dominating set problem (1 for
        unweighted inputs).
    neighbors:
        Tuple of neighbor identifiers.  In CONGEST a node may address each
        neighbor individually.
    config:
        Read-only mapping of globally known quantities (``n``, ``max_degree``,
        ``alpha`` and any algorithm parameters).  The paper assumes ``Delta``
        and ``alpha`` are global knowledge; Remarks 4.4/4.5 relax this and the
        corresponding algorithms simply ignore those entries.
    state:
        Mutable dictionary for the algorithm's per-node variables.
    rng:
        A :class:`random.Random` seeded deterministically from the network
        seed and the node id, for randomized algorithms.  Created lazily on
        first access: deterministic algorithms never touch it, and seeding a
        ``Random`` hashes the seed string with SHA-512, which is the dominant
        cost of building a large network.
    """

    __slots__ = ("node_id", "weight", "neighbors", "config", "state",
                 "_seed", "_rng", "_finished", "_wake")

    def __init__(
        self,
        node_id: Hashable,
        weight: int,
        neighbors: Tuple[Hashable, ...],
        config: Mapping[str, Any],
        seed: int,
    ):
        self.node_id = node_id
        self.weight = weight
        self.neighbors = neighbors
        self.config = config
        self.state: Dict[str, Any] = {}
        self._seed = seed
        self._rng: random.Random | None = None
        self._finished = False
        self._wake = 0

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            # Seeding with a string is deterministic across processes (the
            # seed is hashed with SHA-512 internally), unlike hash() of a
            # string.
            self._rng = random.Random(f"{self._seed}:{self.node_id!r}")
        return self._rng

    def reseed(self, seed: int) -> None:
        """Reset the private random stream to its start for ``seed``.

        Used when a compiled network is reused for another execution: after
        ``reseed(s)`` the node's stream is indistinguishable from that of a
        freshly built node on a network with seed ``s``.
        """
        self._seed = seed
        self._rng = None

    @property
    def degree(self) -> int:
        """Number of neighbors."""
        return len(self.neighbors)

    @property
    def closed_degree(self) -> int:
        """``|N+(v)| = degree + 1``, as used throughout the paper."""
        return len(self.neighbors) + 1

    def finish(self) -> None:
        """Mark this node as locally terminated.

        A finished node stops sending messages; the simulator stops once all
        nodes are finished (or the round limit is reached).
        """
        self._finished = True

    def sleep_until(self, wake_round: int) -> None:
        """Promise that, before round ``wake_round``, calling the algorithm's
        ``round`` with an *empty* inbox changes no state and sends nothing.

        Mail still wakes the node for the round it arrives in, and a later
        promise replaces this one.  The batched engine skips the quiet calls;
        the reference engine and the faulted loop ignore the promise, so the
        parity grids check that every promise made is sound.
        """
        self._wake = wake_round

    @property
    def finished(self) -> bool:
        return self._finished

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeContext(id={self.node_id!r}, degree={self.degree}, weight={self.weight})"
