"""The engine wrapper that runs any inner engine under a fault plan.

:class:`AdversarialEngine` composes with both built-in engines: it resolves
its inner engine per execution (so ``inner=None`` tracks the process-wide
default), compiles the plan into a fresh
:class:`~repro.faults.session.FaultSession`, and hands the session to the
inner engine's round loop through the ``hooks`` parameter of
:meth:`repro.congest.engine.Engine.execute`.  The reference engine applies
the session per delivery; the batched engine applies it with NumPy masks
over its CSR adjacency -- both produce byte-identical executions for a
fixed ``(plan, network, seed)``.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.engine import Engine, EngineSpec, get_engine
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession

__all__ = ["AdversarialEngine"]


class AdversarialEngine(Engine):
    """Run an inner engine with a :class:`FaultPlan` applied in its round loop.

    Parameters
    ----------
    plan:
        The adversarial schedule; ``None`` means the empty plan, under which
        every execution is byte-identical to the plain inner engine (the
        zero-fault parity guarantee enforced by ``tests/faults/``).
    inner:
        The wrapped engine: a registered name, an :class:`Engine` instance,
        or ``None`` for the process-wide default.  Resolved at each
        :meth:`execute`, like ``engine=None`` on the simulator.
    """

    name = "adversarial"

    def __init__(self, plan: Optional[FaultPlan] = None, inner: EngineSpec = None):
        if isinstance(inner, AdversarialEngine) or (
            isinstance(inner, type) and issubclass(inner, AdversarialEngine)
        ):
            raise ValueError("AdversarialEngine cannot wrap another AdversarialEngine")
        self.plan = plan if plan is not None else FaultPlan()
        self.inner_spec = inner

    @property
    def inner(self) -> Engine:
        """The engine the next :meth:`execute` will wrap."""
        return get_engine(self.inner_spec)

    def execute(self, network, algorithm, *, budget, limit, strict, hooks=None):
        if hooks is not None:
            raise ValueError(
                "AdversarialEngine provides its own hooks and cannot be nested"
            )
        inner = self.inner
        if isinstance(inner, AdversarialEngine):
            raise ValueError("AdversarialEngine cannot wrap another AdversarialEngine")
        return inner.execute(
            network,
            algorithm,
            budget=budget,
            limit=limit,
            strict=strict,
            hooks=FaultSession(self.plan, network),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdversarialEngine({self.plan.describe()}, inner={self.inner_spec!r})"
