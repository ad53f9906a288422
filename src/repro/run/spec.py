"""The declarative run specification.

A :class:`RunSpec` says *what* to execute; a
:class:`~repro.run.session.Session` (or the one-shot
:func:`~repro.run.session.execute`) decides *how*, reusing compiled state
wherever the spec allows it.  Specs are plain dataclasses: cheap to build,
picklable (which is what lets ``Session.run_many`` fan out across worker
processes), and ``dataclasses.replace``-able for multi-seed batches.

Validation happens at construction: unknown algorithm names, engines and
fault models fail immediately with the same listing errors the rest of the
code base raises (see :func:`repro.run.algorithms.registry_lookup`), not
deep inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import networkx as nx

from repro.congest.algorithm import SynchronousAlgorithm
from repro.congest.engine import EngineSpec, get_engine
from repro.congest.simulator import DEFAULT_BANDWIDTH_WORDS, DEFAULT_MAX_ROUNDS
from repro.run.algorithms import ALGORITHMS, registry_lookup

__all__ = ["RunSpec", "VALIDATION_POLICIES"]

#: Validation policies: ``"full"`` re-checks the output independently (the
#: legacy behavior), ``"skip"`` records ``is_valid=None`` and saves the
#: ``O(n + m)`` pass -- for throughput-critical serving where a downstream
#: verifier (or the guarantee itself) is trusted.
VALIDATION_POLICIES = ("full", "skip")


@dataclass(frozen=True)
class RunSpec:
    """One execution, declaratively.

    Attributes
    ----------
    graph:
        The input: a prebuilt :class:`networkx.Graph`, a
        :class:`~repro.graphs.generators.GraphInstance`, a streamed
        :class:`~repro.graphs.large_scale.CSRGraph` (kernel tier only --
        executed without ever building a network), or any object with a
        ``build(seed) -> GraphInstance`` method (e.g. a registry
        :class:`~repro.orchestration.registry.GraphSpec`), materialised with
        ``graph_seed``.
    algorithm:
        A registered algorithm name (see
        :func:`repro.run.algorithms.available_algorithms`) or a
        :class:`~repro.congest.algorithm.SynchronousAlgorithm` instance for
        ad-hoc runs.
    params:
        Keyword parameters for the named algorithm's recipe (``epsilon``,
        ``t``, ``k``, ...).  Ignored for instance algorithms, which are
        already constructed.
    alpha:
        Certified arboricity upper bound.  ``None`` lets the recipe resolve
        it (the compiled degeneracy bound for the alpha-dependent
        algorithms); alpha-free algorithms ignore it.
    weights:
        Optional node-weight source applied to a *copy* of the graph at
        compile time: a mapping ``node -> weight``, or any object with an
        ``apply(graph, seed)`` method (e.g. a registry ``WeightSpec``,
        seeded with ``graph_seed``).
    engine:
        Simulation engine (``"reference"``/``"batched"``/``"kernel"``/
        ``"sharded"``, an engine instance, or ``None`` for the
        session/process default).
    faults:
        Adversarial regime: a materialised
        :class:`~repro.faults.plan.FaultPlan`, a graph-agnostic
        :class:`~repro.faults.spec.FaultSpec`, or a model name from
        :data:`repro.faults.FAULT_MODELS`.  ``None`` runs fault-free.
    fault_seed:
        Seed used to materialise a ``FaultSpec``/model name against the
        graph; ``None`` derives it from ``seed`` (each seed faces a fresh
        adversary drawn from the same regime).
    seed:
        The execution seed: every node's private random stream derives from
        it.
    graph_seed:
        Seed used when ``graph`` is a buildable spec, and the default seed
        for ``weights`` application.
    validate:
        ``"full"`` (default) or ``"skip"`` -- see
        :data:`VALIDATION_POLICIES`.
    max_rounds / bandwidth_words / strict:
        The simulator budget knobs, with the simulator's defaults.
    knows_max_degree:
        Only consulted for instance algorithms (named recipes fix their own
        knowledge model); ``None`` means the default ``True``.
    guarantee:
        Only consulted for instance algorithms: attached verbatim to the
        result (named recipes compute their proven factor).
    config:
        Extra globally-known entries merged into every node's config
        mapping.
    shards:
        Worker-process count for ``engine="sharded"`` (``None`` uses the
        sharded tier's default).  Setting it with any other explicit engine
        is an error -- results are shard-count-independent, so the knob
        only affects process layout, never outputs.
    """

    graph: Union[nx.Graph, Any]
    algorithm: Union[str, SynchronousAlgorithm] = "deterministic"
    params: Dict[str, Any] = field(default_factory=dict)
    alpha: Optional[int] = None
    weights: Optional[Any] = None
    engine: EngineSpec = None
    faults: Optional[Any] = None
    fault_seed: Optional[int] = None
    seed: int = 0
    graph_seed: int = 0
    validate: str = "full"
    max_rounds: int = DEFAULT_MAX_ROUNDS
    bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS
    strict: bool = True
    knows_max_degree: Optional[bool] = None
    guarantee: Optional[float] = None
    config: Optional[Mapping[str, Any]] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.algorithm, str):
            # Fail fast with the shared listing KeyError.
            registry_lookup(ALGORITHMS, self.algorithm, "algorithm")
        elif not isinstance(self.algorithm, SynchronousAlgorithm):
            raise TypeError(
                "algorithm must be a registered name or a SynchronousAlgorithm "
                f"instance, got {type(self.algorithm).__name__}"
            )
        if self.validate not in VALIDATION_POLICIES:
            raise ValueError(
                f"validate must be one of {VALIDATION_POLICIES}, got {self.validate!r}"
            )
        if self.alpha is not None and self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.bandwidth_words < 0:
            raise ValueError(f"bandwidth_words must be >= 0, got {self.bandwidth_words}")
        if isinstance(self.engine, str):
            get_engine(self.engine)  # unknown engine names fail fast
        if self.shards is not None:
            if self.shards < 1:
                raise ValueError(f"shards must be >= 1, got {self.shards}")
            if isinstance(self.engine, str) and self.engine != "sharded":
                raise ValueError(
                    f"shards requires engine='sharded', got engine={self.engine!r}"
                )
        if isinstance(self.faults, str):
            from repro.faults import FAULT_MODELS

            registry_lookup(FAULT_MODELS, self.faults, "fault model")

    @property
    def algorithm_label(self) -> str:
        """The algorithm's registry name, or the instance's own name."""
        if isinstance(self.algorithm, str):
            return self.algorithm
        return getattr(self.algorithm, "name", type(self.algorithm).__name__)

    # -- the canonical wire format (see repro.run.wire) --------------------

    def to_dict(self) -> Dict[str, Any]:
        """Encode as the canonical wire dict (stable field order).

        This is the single codec shared by the ``repro serve`` service, the
        CLI (``--spec FILE.json``) and the service cache keys; specs holding
        objects without a wire form (algorithm/engine instances,
        materialised fault plans) raise
        :class:`~repro.run.wire.WireFormatError`.
        """
        from repro.run.wire import spec_to_dict

        return spec_to_dict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        """The wire dict as JSON, keys in declaration order."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Decode and validate a wire dict; errors name the bad field."""
        from repro.run.wire import spec_from_dict

        return spec_from_dict(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Decode a JSON wire payload (see :meth:`from_dict`)."""
        import json

        from repro.run.wire import WireFormatError

        try:
            payload = json.loads(text)
        except ValueError as error:
            raise WireFormatError(None, f"not valid JSON: {error}") from None
        return cls.from_dict(payload)
