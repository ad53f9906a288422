"""Declarative scenario registry for the experiment orchestration layer.

The E1-E11 benchmarks and the example scripts all used to hand-roll the same
three ingredients: a set of graph instances, a set of solver configurations,
and a call into :func:`repro.analysis.experiments.sweep`.  This module turns
those ingredients into *specs* -- plain, JSON-serialisable descriptions of
what to run -- and a process-wide registry of named scenarios built from
them.

Specs are deliberately declarative:

* they can be **hashed** (:meth:`ScenarioSpec.spec_hash`), which is what the
  content-addressed result cache keys on (:mod:`repro.orchestration.cache`);
* they can be **rebuilt in a worker process** from nothing but the scenario
  name, which is what lets the sweep runner shard (scenario, seed) cells
  across processes (:mod:`repro.orchestration.runner`);
* they compose: a graph family is declared once and reused by every scenario
  that wants it at any scale or weighting.

The built-in scenarios (one per benchmark experiment, one per example script,
plus the extra graph families) live in :mod:`repro.orchestration.scenarios`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.experiments import ExperimentRecord, Solver, sweep
from repro.analysis.opt import OptEstimate, degree_lower_bound, estimate_opt
from repro.faults import FaultSpec
from repro.run import ALGORITHMS, RunSpec, Session, registry_lookup
from repro.graphs.arboricity import arboricity_upper_bound
from repro.graphs.generators import (
    GraphInstance,
    caterpillar_graph,
    forest_union_graph,
    grid_graph,
    outerplanar_graph,
    planar_triangulation_graph,
    powerlaw_cluster_graph,
    preferential_attachment_graph,
    random_bounded_arboricity_graph,
    random_forest,
    random_geometric_graph,
    random_tree,
    star_of_cliques,
)
from repro.graphs.weights import (
    assign_adversarial_weights,
    assign_degree_weights,
    assign_inverse_degree_weights,
    assign_random_weights,
    assign_uniform_weights,
)

__all__ = [
    "GraphSpec",
    "WeightSpec",
    "SolverSpec",
    "FaultSpec",
    "ScenarioSpec",
    "FAMILY_BUILDERS",
    "WEIGHT_SCHEMES",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

def _gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    return nx.gnp_random_graph(n, p, seed=seed)


def _star_of_cliques(clique_count: int, clique_size: int, seed: int = 0) -> nx.Graph:
    del seed  # deterministic construction
    return star_of_cliques(clique_count, clique_size)


def _caterpillar(spine: int, legs_per_node: int = 3, seed: int = 0) -> nx.Graph:
    del seed
    return caterpillar_graph(spine, legs_per_node=legs_per_node)


def _grid(rows: int, cols: int, diagonal: bool = False, seed: int = 0) -> nx.Graph:
    del seed
    return grid_graph(rows, cols, diagonal=diagonal)


def _kmw_lower_bound_graph(side: int, degree: int, seed: int = 0) -> nx.Graph:
    from repro.lowerbound.kmw_graph import bipartite_regular_base_graph
    from repro.lowerbound.reduction import build_lower_bound_graph

    base = bipartite_regular_base_graph(side, degree, seed=seed)
    return build_lower_bound_graph(base).graph


#: Registered graph families.  Every builder accepts its family parameters as
#: keywords plus a ``seed`` keyword (ignored by deterministic constructions),
#: and returns a :class:`networkx.Graph`.
FAMILY_BUILDERS: Dict[str, Callable[..., nx.Graph]] = {
    "random-tree": random_tree,
    "random-forest": random_forest,
    "caterpillar": _caterpillar,
    "grid": _grid,
    "outerplanar": outerplanar_graph,
    "planar-triangulation": planar_triangulation_graph,
    "forest-union": forest_union_graph,
    "bounded-arboricity": random_bounded_arboricity_graph,
    "preferential-attachment": preferential_attachment_graph,
    "powerlaw-cluster": powerlaw_cluster_graph,
    "random-geometric": random_geometric_graph,
    "star-of-cliques": _star_of_cliques,
    "gnp": _gnp_graph,
    "kmw-lower-bound": _kmw_lower_bound_graph,
}


#: Registered node-weight schemes (see :mod:`repro.graphs.weights`).  Every
#: scheme accepts ``(graph, seed, **params)``; deterministic schemes ignore
#: the seed.
WEIGHT_SCHEMES: Dict[str, Callable[..., object]] = {
    "uniform": lambda graph, seed, **kw: assign_uniform_weights(graph, **kw),
    "random": lambda graph, seed, **kw: assign_random_weights(graph, seed=seed, **kw),
    "degree": lambda graph, seed, **kw: assign_degree_weights(graph, **kw),
    "inverse-degree": lambda graph, seed, **kw: assign_inverse_degree_weights(graph, **kw),
    "adversarial": lambda graph, seed, **kw: assign_adversarial_weights(graph, seed=seed, **kw),
}


@dataclass
class WeightSpec:
    """A node-weight assignment applied to a graph after generation.

    ``seed=None`` derives the weight seed from the cell seed (so different
    sweep cells see different weights); a fixed integer pins the weights
    regardless of the cell seed, which is what benchmark reproductions want.
    """

    scheme: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None

    def apply(self, graph: nx.Graph, cell_seed: int) -> None:
        if self.scheme not in WEIGHT_SCHEMES:
            known = ", ".join(sorted(WEIGHT_SCHEMES))
            raise KeyError(f"unknown weight scheme {self.scheme!r}; known: {known}")
        seed = self.seed if self.seed is not None else cell_seed
        WEIGHT_SCHEMES[self.scheme](graph, seed, **self.params)

    def as_dict(self) -> Dict[str, object]:
        return {"scheme": self.scheme, "params": dict(self.params), "seed": self.seed}


@dataclass
class GraphSpec:
    """One graph instance of a registered family, declaratively.

    Attributes
    ----------
    family:
        Key into :data:`FAMILY_BUILDERS`.
    params:
        Keyword arguments for the family builder (sizes, probabilities, ...).
    name:
        Instance label in records and tables; defaults to the family name.
    alpha:
        Certified arboricity upper bound handed to the algorithms.  ``None``
        computes the degeneracy bound from the built graph (always a valid
        certificate, at the cost of a linear-time pass).
    weights:
        Optional :class:`WeightSpec` applied after generation.
    seed:
        ``None`` builds with the sweep cell's seed (plus ``seed_offset``);
        a fixed integer pins the instance across cells.
    seed_offset:
        Added to the cell seed so sibling specs in one scenario decorrelate.
    """

    family: str
    params: Dict[str, object] = field(default_factory=dict)
    name: Optional[str] = None
    alpha: Optional[int] = None
    weights: Optional[WeightSpec] = None
    seed: Optional[int] = None
    seed_offset: int = 0

    @property
    def label(self) -> str:
        return self.name or self.family

    def resolved_seed(self, cell_seed: int) -> int:
        base = self.seed if self.seed is not None else cell_seed
        return base + self.seed_offset

    def build(self, cell_seed: int = 0) -> GraphInstance:
        """Materialise the spec into a :class:`GraphInstance`."""
        if self.family not in FAMILY_BUILDERS:
            known = ", ".join(sorted(FAMILY_BUILDERS))
            raise KeyError(f"unknown graph family {self.family!r}; known: {known}")
        seed = self.resolved_seed(cell_seed)
        graph = FAMILY_BUILDERS[self.family](seed=seed, **self.params)
        if self.weights is not None:
            # Weights derive from the *cell* seed (not the possibly pinned
            # graph seed): a pinned graph swept over seeds still gets fresh
            # weights per cell, as WeightSpec documents.  Pin the weights
            # too by giving the WeightSpec its own fixed seed.
            self.weights.apply(graph, cell_seed + self.seed_offset)
        alpha = self.alpha
        if alpha is None:
            alpha = max(1, arboricity_upper_bound(graph))
        params = dict(self.params)
        params["family"] = self.family
        params["seed"] = seed
        return GraphInstance(name=self.label, graph=graph, alpha=alpha, params=params)

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "params": dict(self.params),
            "name": self.name,
            "alpha": self.alpha,
            "weights": None if self.weights is None else self.weights.as_dict(),
            "seed": self.seed,
            "seed_offset": self.seed_offset,
        }


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

#: Solver names whose algorithm recipe takes no ``alpha``.
_ALPHA_FREE_SOLVERS = frozenset({"general", "forest", "unknown-arboricity"})


def _resolve_any_solver(name: str):
    """Resolve a solver name against the unified algorithm registry."""
    return registry_lookup(ALGORITHMS, name, "solver")


@dataclass
class SolverSpec:
    """One solver configuration: a registered solver name plus parameters."""

    solver: str
    label: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    seed_offset: int = 0

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        if not self.params:
            return self.solver
        rendered = ",".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.solver}({rendered})"

    def make_runspec(
        self,
        instance: GraphInstance,
        cell_seed: int,
        engine: Optional[str],
        faults: Optional[FaultSpec] = None,
        shards: Optional[int] = None,
    ) -> RunSpec:
        """The declarative form of one (instance, solver, cell) execution.

        ``faults`` (a scenario-level :class:`~repro.faults.FaultSpec`) is
        materialised against the instance's graph with the cell seed, so the
        schedule is identical for every solver in the scenario (same storm,
        different algorithms) and across engines (the cross-engine parity
        gate); the executing session wraps it around the cell's engine as an
        :class:`~repro.faults.AdversarialEngine`.

        ``shards`` is the worker-process count for ``engine="sharded"``
        cells; it shapes the process layout only (results are
        shard-count-independent) and is ignored unless the sharded tier is
        the cell's engine.
        """
        plan = None
        if faults is not None:
            plan = faults.materialize(instance.graph, cell_seed)
        pass_alpha = self.solver not in _ALPHA_FREE_SOLVERS
        return RunSpec(
            graph=instance.graph,
            algorithm=self.solver,
            params=dict(self.params),
            alpha=instance.alpha if pass_alpha else None,
            seed=cell_seed + self.seed_offset,
            engine=engine,
            faults=plan,
            shards=shards if engine == "sharded" else None,
        )

    def make_solver(
        self,
        cell_seed: int,
        engine: Optional[str],
        faults: Optional[FaultSpec] = None,
        session: Optional[Session] = None,
        shards: Optional[int] = None,
    ) -> Solver:
        """Bind the spec to a concrete (seed, engine) cell.

        Returns a solver callable that builds the cell's
        :class:`~repro.run.RunSpec` per instance and executes it through
        ``session`` (one shared compiled session per scenario run, so every
        solver on the same instance reuses the compiled graph state); with
        no session each call is a one-shot execution.
        """
        _resolve_any_solver(self.solver)  # fail fast with the listing error
        runner = session if session is not None else Session()

        def _solver(instance: GraphInstance):
            return runner.run(
                self.make_runspec(instance, cell_seed, engine, faults, shards=shards)
            )

        return _solver

    def as_dict(self) -> Dict[str, object]:
        return {
            "solver": self.solver,
            "label": self.label,
            "params": dict(self.params),
            "seed_offset": self.seed_offset,
        }


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

#: OPT estimation policies available to scenarios: the default adaptive
#: exact-below-threshold/LP-above policy, forced exact, forced LP, or the
#: free counting bound for scale runs where the LP itself would dominate.
_OPT_MODES = ("auto", "exact", "lp", "degree")


@dataclass
class ScenarioSpec:
    """A named, registered experiment: graphs x solvers plus policy knobs.

    ``faults`` attaches an adversarial regime (:class:`repro.faults.FaultSpec`)
    to every cell of the scenario: each solver runs under an
    :class:`~repro.faults.AdversarialEngine` whose plan is materialised from
    the regime, the instance's graph, and the cell seed.  Fault scenarios
    measure *degradation*, so a non-dominating output or an exceeded
    guarantee is reported as degradation rather than counted as a violation
    (see ``python -m repro sweep``).
    """

    name: str
    experiment: str
    description: str
    graphs: Sequence[GraphSpec] = field(default_factory=list)
    solvers: Sequence[SolverSpec] = field(default_factory=list)
    tags: Tuple[str, ...] = ()
    share_opt: bool = True
    opt_mode: str = "auto"
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.opt_mode not in _OPT_MODES:
            raise ValueError(f"opt_mode must be one of {_OPT_MODES}, got {self.opt_mode!r}")
        self.tags = tuple(self.tags)
        labels = [spec.display_label for spec in self.solvers]
        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            # Solvers are keyed by label at run time; a silent collision
            # would drop all but one of the colliding configurations.
            raise ValueError(
                f"scenario {self.name!r} has duplicate solver labels {sorted(duplicates)}; "
                "set label= explicitly to disambiguate"
            )

    # -- identity ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form; the basis of the content hash."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "graphs": [spec.as_dict() for spec in self.graphs],
            "solvers": [spec.as_dict() for spec in self.solvers],
            "share_opt": self.share_opt,
            "opt_mode": self.opt_mode,
            "faults": None if self.faults is None else self.faults.as_dict(),
        }

    def spec_hash(self) -> str:
        """Content hash of everything that affects the records produced.

        Tags and the human description are deliberately excluded: relabelling
        a scenario must not invalidate cached results.
        """
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- execution ---------------------------------------------------------

    def build_instances(self, seed: int = 0) -> List[GraphInstance]:
        return [spec.build(seed) for spec in self.graphs]

    def _estimate_opt(self, graph: nx.Graph) -> OptEstimate:
        if self.opt_mode == "degree":
            return degree_lower_bound(graph)
        if self.opt_mode == "exact":
            return estimate_opt(graph, force_exact=True)
        if self.opt_mode == "lp":
            return estimate_opt(graph, force_lp=True)
        return estimate_opt(graph)

    def run(
        self,
        seed: int = 0,
        engine: Optional[str] = None,
        tracer: Optional[object] = None,
        shards: Optional[int] = None,
    ) -> List[ExperimentRecord]:
        """Run every solver on every instance and return verified records.

        The record stream is deterministic in ``(self, seed)``: instance
        order and solver order follow the spec, and each solver's RNG seed is
        derived from the cell seed.  ``engine`` picks the simulator backend
        and never changes the records (cross-engine parity is enforced by the
        congest test-suite and re-checked by ``python -m repro sweep --smoke``).
        ``tracer`` (a :class:`repro.obs.trace.Tracer`) makes every run in
        the cell emit its span tree; records are byte-identical either way.
        ``shards`` sets the worker-process count when ``engine="sharded"``
        (results are shard-count-independent; ignored for other engines).
        """
        instances = self.build_instances(seed)
        # One compiled session for the whole cell: every solver running on
        # the same instance shares its compiled network, adjacency layout
        # and canonicalisation (byte-identical to one-shot runs).
        session = Session(tracer=tracer)
        solvers = {
            spec.display_label: spec.make_solver(
                seed, engine, faults=self.faults, session=session, shards=shards
            )
            for spec in self.solvers
        }
        solver_params = {spec.display_label: spec for spec in self.solvers}

        def _params_for(label: str, instance: GraphInstance) -> Mapping[str, object]:
            del instance
            spec = solver_params[label]
            params: Dict[str, object] = {"solver": spec.solver}
            params.update(spec.params)
            params["cell_seed"] = seed
            if self.faults is not None:
                params["faults"] = self.faults.display_label
            return params

        records = sweep(
            self.experiment,
            instances,
            solvers,
            share_opt=self.share_opt,
            params_for=_params_for,
            opt_for=self._estimate_opt,
        )
        if self.opt_mode == "degree":
            # The counting bound is far below OPT, so "ratio > guarantee"
            # cannot certify a violation; report the check as inconclusive
            # rather than flagging correct runs.
            for record in records:
                if record.within_guarantee is False:
                    record.within_guarantee = None
        return records


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name; rejects silent redefinition."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; run `python -m repro list` for the registry"
        ) from None


def list_scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """Return registered scenarios sorted by name, optionally filtered by tag."""
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


def scenario_names(tag: Optional[str] = None) -> List[str]:
    return [spec.name for spec in list_scenarios(tag=tag)]
