"""A combinatorial ``O(alpha)``-flavoured distributed baseline.

The paper compares against Morgan--Solomon--Wein (DISC'21), a randomized
combinatorial ``O(alpha)``-approximation that runs in ``O(alpha * log n)``
CONGEST rounds.  The MSW pseudocode is not reproduced here; instead this
module provides a *documented substitution*: a deterministic combinatorial
algorithm whose quality is ``O(alpha)``-flavoured and that relies on the same
structural fact MSW (and this paper) exploit -- once every node's uncovered
span drops below ``2*alpha + 1``, adding all remaining uncovered nodes costs
at most ``(2*alpha+1) * OPT``.

Algorithm: run the parallel threshold greedy of
:class:`repro.baselines.lenzen_wattenhofer.LWDeterministicAlgorithm`, but
stop the phases early, at threshold ``2*alpha + 1``, and let every node still
uncovered at that point join the dominating set itself.  The greedy prefix
handles the high-span region (contributing an ``O(alpha * log(Delta/alpha))``
term in the worst case, typically much less), the self-join suffix is the
``(2*alpha+1)``-bounded part, and the whole thing takes
``O(log(Delta/alpha))`` rounds.  Unweighted only.

Benchmark E8 labels this baseline ``combinatorial-alpha-baseline`` and uses
it as the stand-in for the combinatorial prior work.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable

from repro.congest.algorithm import Outbox, SynchronousAlgorithm
from repro.congest.message import Broadcast
from repro.congest.node import NodeContext

__all__ = ["MSWStyleAlgorithm"]


class MSWStyleAlgorithm(SynchronousAlgorithm):
    """Threshold greedy stopped at ``2*alpha+1`` plus self-join of the rest."""

    name = "combinatorial-alpha-baseline"

    def setup(self, node: NodeContext) -> None:
        max_degree = node.config.get("max_degree", 0)
        alpha = node.config.get("alpha")
        if alpha is None:
            raise ValueError("this baseline assumes alpha is global knowledge")
        node.state.update(
            {
                "in_ds": False,
                "covered": False,
                "phase": int(math.ceil(math.log2(max_degree + 2))),
                "stop_threshold": 2 * alpha + 1,
            }
        )

    def round(self, node: NodeContext, round_index: int, inbox: Dict[Hashable, dict]) -> Outbox:
        state = node.state
        if round_index % 2 == 0:
            for message in inbox.values():
                if message.get("joined"):
                    state["covered"] = True
            if 2 ** max(state["phase"], 0) < state["stop_threshold"] or state["phase"] < 0:
                # Cleanup step: every node still uncovered dominates itself.
                if not state["covered"]:
                    state["in_ds"] = True
                    state["covered"] = True
                node.finish()
                return None
            return Broadcast({"uncovered": not state["covered"]})
        span = (0 if state["covered"] else 1) + sum(
            1 for message in inbox.values() if message.get("uncovered")
        )
        threshold = 2 ** state["phase"]
        state["phase"] -= 1
        if not state["in_ds"] and span >= threshold:
            state["in_ds"] = True
            state["covered"] = True
            return Broadcast({"joined": True})
        return None

    def output(self, node: NodeContext) -> Dict[str, object]:
        return {"in_ds": bool(node.state["in_ds"])}

    def max_rounds(self, network) -> int:
        return 2 * (int(math.ceil(math.log2(network.max_degree + 2))) + 3)
