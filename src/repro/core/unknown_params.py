"""Remarks 4.4 and 4.5: the settings where ``Delta`` or ``alpha`` are unknown.

The main algorithms assume every node knows the maximum degree ``Delta`` and
the arboricity bound ``alpha``.  The paper sketches two adaptations:

* **Remark 4.4 (unknown Delta).**  Initialise the packing value of ``v`` with
  ``tau_v / max_{u in N+(v)} |N+(u)|`` instead of ``tau_v / (Delta+1)``, and
  interleave an extra step into every iteration: any still-undominated node
  whose packing value already exceeds ``lambda * tau_v`` immediately adds a
  minimum-weight member of its closed neighborhood to the final dominating
  set.  After ``O(log Delta / eps)`` iterations every node is dominated and
  the ``(2*alpha+1)*(1+eps)`` analysis goes through unchanged.

* **Remark 4.5 (unknown alpha).**  First compute a low out-degree orientation
  with the Barenboim--Elkin peeling procedure, let each node use the maximum
  out-degree in its closed neighborhood as a local arboricity estimate
  ``alpha_hat_v``, and run the same interleaved algorithm with the per-node
  threshold ``lambda_v = 1/((2*alpha_hat_v+1)*(1+eps))`` and initial packing
  values ``tau_v / (n+1)``.  The approximation becomes
  ``(2*alpha+1)*(2+O(eps))`` and the round complexity depends on ``log n``
  rather than ``log Delta``.

Reproduction note (documented substitution): Barenboim--Elkin's peeling needs
an upper bound on the arboricity as its threshold.  Since ``alpha`` is
exactly what is unknown here, our implementation follows a fixed doubling
schedule of threshold estimates ``1, 2, 4, ...`` (all nodes know ``n``, so
the schedule is globally agreed without communication).  This preserves the
out-degree guarantee -- every node's out-degree is at most ``(2+eps)`` times
the estimate in force when it is peeled, which is below ``2*(2+eps)*alpha`` --
at the price of a worst-case ``O(log^2 n / eps)`` orientation stage instead
of the remark's ``O(log n / eps)``.  The measured approximation factors are
unaffected, which is what benchmark E7 verifies.  The schedule depends only on
``(n, eps)``, so each node computes it once per run, at setup.  Between
blocks most peel rounds are silent, so nodes sleep through them
(:meth:`~repro.congest.node.NodeContext.sleep_until`).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from repro.congest.algorithm import Outbox, SynchronousAlgorithm
from repro.congest.message import Broadcast
from repro.congest.node import NodeContext
from repro.core.partial import theorem11_lambda

__all__ = ["UnknownDegreeMDSAlgorithm", "UnknownArboricityMDSAlgorithm"]


class _InterleavedPrimalDual(SynchronousAlgorithm):
    """Shared machinery for the interleaved (Remark 4.4 / 4.5) iterations.

    Each iteration of the interleaved algorithm takes three rounds:

    * **round A** -- termination check (a node stops once it and all its
      neighbors are dominated), the *extra step* (an undominated node whose
      packing value exceeds its threshold sends a "selected" message to a
      minimum-weight member of its closed neighborhood, or joins directly if
      it is itself the minimum), and the packing value to every neighbor (a
      broadcast unless one is selected);
    * **round B** -- process selections, compute ``X_v`` and join the partial
      set when saturated, announce joins;
    * **round C** -- absorb join announcements, apply the ``(1+eps)``
      increase to still-undominated nodes, report domination status.

    Subclasses define how many setup rounds precede the iterations (read
    once per node, at :meth:`setup`) and how the per-node packing value and
    threshold are initialised.
    """

    congest = True

    def __init__(self, epsilon: float = 0.1):
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self.epsilon = epsilon

    # -- subclass interface --------------------------------------------- #

    def setup_rounds(self, node: NodeContext) -> int:
        """Number of rounds before the first iteration round."""
        raise NotImplementedError

    def setup_round(self, node: NodeContext, round_index: int, inbox: Dict[Hashable, dict]) -> Outbox:
        """Handle one of the setup rounds; must initialise ``x``, ``tau``, ``lambda``."""
        raise NotImplementedError

    def fallback_setup(self, node: NodeContext) -> None:
        """Initialise ``tau``/``lambda`` for a node that slept through setup.

        Fault-free runs never call this: the setup rounds always run.  Under
        fault injection a crash window can cover the round that learns
        ``tau`` and ``lambda``; the recovering node then falls back to local
        knowledge (its own weight, its locally best arboricity estimate) so
        the run degrades instead of dying on ``None`` arithmetic.
        """
        state = node.state
        if state["tau"] is None:
            state["tau"] = node.weight
        if state["lambda"] is None:
            state["lambda"] = theorem11_lambda(self._fallback_alpha(node), self.epsilon)

    def _fallback_alpha(self, node: NodeContext) -> int:
        """The arboricity estimate used by :meth:`fallback_setup`."""
        return max(1, node.config.get("alpha") or 1)

    # -- shared state ---------------------------------------------------- #

    def setup(self, node: NodeContext) -> None:
        node.state.update(
            {
                "x": 0.0,
                "tau": None,
                "lambda": None,
                "in_s": False,
                "in_s_prime": False,
                "dominated": False,
                "neighbor_weights": {},
                "neighbor_dominated": {neighbor: False for neighbor in node.neighbors},
                "increase_count": 0,
                "iterations_executed": 0,
            }
        )
        node.state["setup_rounds"] = self.setup_rounds(node)

    def round(self, node: NodeContext, round_index: int, inbox: Dict[Hashable, dict]) -> Outbox:
        setup_rounds = node.state["setup_rounds"]
        if round_index < setup_rounds:
            return self.setup_round(node, round_index, inbox)
        offset = (round_index - setup_rounds) % 3
        if offset == 0:
            return self._round_a(node, inbox)
        if offset == 1:
            return self._round_b(node, inbox)
        return self._round_c(node, inbox)

    # -- the three iteration rounds --------------------------------------#

    def _round_a(self, node: NodeContext, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        # Absorb domination reports from the previous round C.
        for neighbor, message in inbox.items():
            if message.get("dominated"):
                state["neighbor_dominated"][neighbor] = True
        if state["dominated"] and all(state["neighbor_dominated"].values()):
            node.finish()
            return None
        if state["lambda"] is None or state["tau"] is None:
            self.fallback_setup(node)
        state["iterations_executed"] += 1

        x = state["x"]
        if not state["dominated"] and x > state["lambda"] * state["tau"]:
            target = self._cheapest_dominator(node)
            if target == node.node_id:
                state["in_s_prime"] = True
                state["dominated"] = True
                state["announce_join"] = True
            else:
                outbox = {neighbor: {"x": x} for neighbor in node.neighbors}
                outbox[target] = {"x": x, "selected": True}
                return outbox
        return Broadcast({"x": x})

    def _round_b(self, node: NodeContext, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        load = state["x"]
        selected = False
        for message in inbox.values():
            load += float(message.get("x", 0.0))
            if message.get("selected"):
                selected = True
        if selected and not state["in_s_prime"]:
            state["in_s_prime"] = True
            state["dominated"] = True
            state["announce_join"] = True
        if not state["in_s"] and load >= node.weight / (1.0 + self.epsilon):
            state["in_s"] = True
            state["dominated"] = True
            state["announce_join"] = True
        if state.pop("announce_join", False):
            return Broadcast({"joined": True})
        return None

    def _round_c(self, node: NodeContext, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        if any(message.get("joined") for message in inbox.values()):
            state["dominated"] = True
        if not state["dominated"]:
            state["x"] *= 1.0 + self.epsilon
            state["increase_count"] += 1
        return Broadcast({"dominated": bool(state["dominated"])})

    # -- helpers ---------------------------------------------------------#

    def _cheapest_dominator(self, node: NodeContext) -> Hashable:
        state = node.state
        best_node = node.node_id
        best_weight = node.weight
        for neighbor, weight in sorted(
            state["neighbor_weights"].items(), key=lambda item: repr(item[0])
        ):
            if weight < best_weight:
                best_node = neighbor
                best_weight = weight
        return best_node

    def output(self, node: NodeContext) -> Dict[str, object]:
        state = node.state
        return {
            "in_ds": bool(state["in_s"] or state["in_s_prime"]),
            "in_partial": bool(state["in_s"]),
            "in_extension": bool(state["in_s_prime"]),
            "x_partial": float(state["x"]),
            "x": float(state["x"]),
            "tau": state["tau"],
            "iterations": int(state["iterations_executed"]),
            "alpha_estimate": state.get("alpha_hat"),
            "fallback_join": False,
        }


class UnknownDegreeMDSAlgorithm(_InterleavedPrimalDual):
    """Remark 4.4: Theorem 1.1 without global knowledge of ``Delta``.

    Requires ``alpha`` to be known (it enters ``lambda``); run it on a network
    created with ``knows_max_degree=False`` to verify that nothing reads
    ``Delta``.
    """

    name = "dory-ghaffari-ilchi-unknown-delta"

    def __init__(self, epsilon: float = 0.1):
        super().__init__(epsilon=epsilon)

    def setup_rounds(self, node: NodeContext) -> int:
        return 2

    def setup_round(self, node: NodeContext, round_index: int, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        if round_index == 0:
            return Broadcast({"weight": node.weight, "closed_degree": node.closed_degree})
        # Round 1: initialise tau, lambda and the packing value.
        alpha = node.config.get("alpha")
        if alpha is None:
            raise ValueError("Remark 4.4 still assumes alpha is global knowledge")
        neighbor_weights = {}
        max_closed_degree = node.closed_degree
        for neighbor, message in inbox.items():
            if "weight" not in message:  # foreign delayed payload (fault injection)
                continue
            neighbor_weights[neighbor] = int(message["weight"])
            max_closed_degree = max(max_closed_degree, int(message["closed_degree"]))
        state["neighbor_weights"] = neighbor_weights
        state["tau"] = min([node.weight] + list(neighbor_weights.values()))
        state["lambda"] = theorem11_lambda(alpha, self.epsilon)
        state["x"] = state["tau"] / max_closed_degree
        return None

    def max_rounds(self, network) -> Optional[int]:
        max_degree = max(1, network.max_degree)
        iterations = int(math.log(max_degree + 1) / math.log1p(self.epsilon)) + 6
        return 2 + 3 * iterations + 6


class UnknownArboricityMDSAlgorithm(_InterleavedPrimalDual):
    """Remark 4.5: ``(2*alpha+1)*(2+O(eps))``-approximation without knowing ``alpha``.

    Every node must know ``n`` (always available in our networks).  The
    algorithm first computes a low out-degree orientation by threshold
    peeling on a fixed doubling schedule (see the module docstring for the
    documented deviation from the remark), derives the local estimate
    ``alpha_hat_v`` = maximum out-degree in the closed neighborhood, and then
    runs the interleaved iterations with ``lambda_v`` built from that local
    estimate and packing values initialised to ``tau_v / (n+1)``.
    """

    name = "dory-ghaffari-ilchi-unknown-alpha"

    def __init__(self, epsilon: float = 0.25):
        super().__init__(epsilon=epsilon)

    # -- schedule --------------------------------------------------------#

    def peel_schedule(self, n: int) -> Tuple[int, int]:
        """``(phases_per_block, peel_rounds)``: each block exhausts a graph whose
        arboricity matches its estimate, and the estimates ``1, 2, 4, ...`` up
        to ``n`` cover every possible arboricity."""
        phases_per_block = max(1, math.ceil(math.log(n + 1) / math.log1p(self.epsilon / 2.0))) + 1
        blocks = max(1, math.ceil(math.log2(max(2, n)))) + 1
        return phases_per_block, blocks * phases_per_block

    def setup_rounds(self, node: NodeContext) -> int:
        return 1 + node.state["peel_rounds"] + 2

    def _fallback_alpha(self, node: NodeContext) -> int:
        # alpha is unknown here; the best local stand-in for a node that
        # slept through the estimate exchange is its own out-degree.
        return max(1, int(node.state.get("out_degree") or 0))

    # -- setup rounds -----------------------------------------------------#

    def setup(self, node: NodeContext) -> None:
        phases_per_block, peel_rounds = self.peel_schedule(node.config["n"])
        node.state.update(
            {
                "phases_per_block": phases_per_block,
                "peel_rounds": peel_rounds,
                "peeled": False,
                "peeled_neighbors": set(),
                "out_degree": 0,
                "neighbor_out_degrees": {},
            }
        )
        super().setup(node)  # reads peel_rounds through setup_rounds

    def setup_round(self, node: NodeContext, round_index: int, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        peel_rounds = state["peel_rounds"]
        if round_index == 0:
            return Broadcast({"weight": node.weight})
        if round_index == 1:
            state["neighbor_weights"] = {
                neighbor: int(message["weight"])
                for neighbor, message in inbox.items()
                if "weight" in message
            }
            state["tau"] = min([node.weight] + list(state["neighbor_weights"].values()))
        if 1 <= round_index <= peel_rounds:
            return self._peeling_round(node, round_index - 1, inbox)
        if round_index == peel_rounds + 1:
            # Peeling is over; absorb the last announcements and publish the out-degree.
            self._absorb_peels(node, inbox)
            return Broadcast({"out_degree": state["out_degree"]})
        # Final setup round: derive the local arboricity estimate and thresholds.
        for neighbor, message in inbox.items():
            if "out_degree" not in message:  # foreign delayed payload (fault injection)
                continue
            state["neighbor_out_degrees"][neighbor] = int(message["out_degree"])
        alpha_hat = max([state["out_degree"]] + list(state["neighbor_out_degrees"].values()))
        alpha_hat = max(1, alpha_hat)
        state["alpha_hat"] = alpha_hat
        state["lambda"] = theorem11_lambda(alpha_hat, self.epsilon)
        if state["tau"] is None:
            # Fault-free runs set tau in round 1; a node whose crash window
            # covered that round falls back to its own weight (always a
            # member of N+(v)) so the run degrades instead of crashing.
            state["tau"] = node.weight
        state["x"] = state["tau"] / (node.config["n"] + 1)
        return None

    def _peeling_round(
        self,
        node: NodeContext,
        phase_index: int,
        inbox: Dict[Hashable, dict],
    ) -> Outbox:
        state = node.state
        if state["peeled"]:
            # Only an unpeeled node reads peeled_neighbors.
            return None
        self._absorb_peels(node, inbox)
        phases_per_block = state["phases_per_block"]
        block = phase_index // phases_per_block
        threshold = (2.0 + self.epsilon) * 2**block
        remaining = node.degree - len(state["peeled_neighbors"])
        if remaining <= threshold:
            state["peeled"] = True
            state["out_degree"] = remaining
            node.sleep_until(state["peel_rounds"] + 1)  # the out-degree exchange
            return Broadcast({"peeled": True})
        # The threshold rises only at the next block (the last one ends at
        # peel_rounds + 1); the remaining degree drops only with mail.
        node.sleep_until(1 + (block + 1) * phases_per_block)
        return None

    def _absorb_peels(self, node: NodeContext, inbox: Dict[Hashable, dict]) -> None:
        for neighbor, message in inbox.items():
            if message.get("peeled"):
                node.state["peeled_neighbors"].add(neighbor)

    def max_rounds(self, network) -> Optional[int]:
        n = max(2, network.n)
        setup = 1 + self.peel_schedule(n)[1] + 2
        iterations = int(math.log(n + 1) / math.log1p(self.epsilon)) + 6
        return setup + 3 * iterations + 6
