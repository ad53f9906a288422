"""The algorithm registry behind :class:`~repro.run.spec.RunSpec`.

Every named algorithm is a *recipe*: a function that, given the compiled
graph and the run spec, resolves everything the simulator needs --

* the :class:`~repro.congest.algorithm.SynchronousAlgorithm` instance built
  from the spec's ``params``,
* the ``alpha`` handed to the network (``None`` for the alpha-free
  algorithms),
* whether nodes globally know ``Delta`` (Remark 4.4 relaxes this),
* the proven approximation guarantee to attach to the result.

The first seven recipes are the paper's algorithms; the distributed
baselines and ablation variants used by the scenario registry are
registered here too, so a ``RunSpec`` can name any of them uniformly.

Unknown names raise a ``KeyError`` that lists the available registrations
(via :func:`registry_lookup`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.congest.algorithm import SynchronousAlgorithm

__all__ = [
    "ALGORITHMS",
    "AlgorithmRecipe",
    "ResolvedRun",
    "available_algorithms",
    "register_algorithm",
    "registry_lookup",
    "resolve_algorithm",
]


def registry_lookup(registry: Mapping[str, Any], name: str, kind: str) -> Any:
    """Look up ``name`` in ``registry``; unknown names raise a ``KeyError``
    that lists every known name.

    Shared by :func:`resolve_algorithm`, the :class:`~repro.run.spec.RunSpec`
    validation and the scenario registry, so the error reads the same
    wherever a bad name is given.
    """
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown {kind} {name!r}; known {kind}s: {known}") from None


@dataclass(frozen=True)
class ResolvedRun:
    """Everything a recipe resolved for one execution."""

    algorithm: SynchronousAlgorithm
    alpha: Optional[int]
    knows_max_degree: bool
    guarantee: Optional[float]


#: A recipe maps ``(compiled graph, run spec)`` to a :class:`ResolvedRun`.
AlgorithmRecipe = Callable[[Any, Any], ResolvedRun]


def _resolve_alpha(compiled, alpha: Optional[int]) -> int:
    """The legacy ``_resolve_alpha``, against the compiled degeneracy bound."""
    if alpha is not None:
        if alpha < 1:
            raise ValueError("alpha must be at least 1")
        return alpha
    return compiled.default_alpha


def _params(spec, **defaults):
    merged = dict(defaults)
    merged.update(spec.params)
    return merged


# --------------------------------------------------------------------------
# The paper's seven algorithms
# --------------------------------------------------------------------------

def _deterministic(compiled, spec) -> ResolvedRun:
    """Theorems 1.1 / 3.1: unweighted warm-up on unit weights, else weighted."""
    from repro.core.unweighted import UnweightedMDSAlgorithm
    from repro.core.weighted import WeightedMDSAlgorithm

    params = _params(spec, epsilon=0.1)
    alpha = _resolve_alpha(compiled, spec.alpha)
    if compiled.is_unweighted:
        algorithm = UnweightedMDSAlgorithm(**params)
    else:
        algorithm = WeightedMDSAlgorithm(**params)
    return ResolvedRun(algorithm, alpha, True, algorithm.approximation_guarantee(alpha))


def _weighted(compiled, spec) -> ResolvedRun:
    from repro.core.weighted import WeightedMDSAlgorithm

    params = _params(spec, epsilon=0.1)
    alpha = _resolve_alpha(compiled, spec.alpha)
    algorithm = WeightedMDSAlgorithm(**params)
    return ResolvedRun(algorithm, alpha, True, algorithm.approximation_guarantee(alpha))


def _randomized(compiled, spec) -> ResolvedRun:
    from repro.core.randomized import RandomizedMDSAlgorithm

    params = _params(spec, t=1)
    alpha = _resolve_alpha(compiled, spec.alpha)
    algorithm = RandomizedMDSAlgorithm(**params)
    return ResolvedRun(algorithm, alpha, True, algorithm.approximation_guarantee(alpha))


def _general(compiled, spec) -> ResolvedRun:
    """Theorem 1.3; alpha-free (``spec.alpha`` is ignored, like the helper)."""
    from repro.core.general_graphs import GeneralGraphMDSAlgorithm

    algorithm = GeneralGraphMDSAlgorithm(**_params(spec, k=2))
    guarantee = algorithm.approximation_guarantee(compiled.max_degree)
    return ResolvedRun(algorithm, None, True, guarantee)


def _forest(compiled, spec) -> ResolvedRun:
    from repro.core.trees import ForestMDSAlgorithm

    del compiled
    return ResolvedRun(ForestMDSAlgorithm(**_params(spec)), None, True, 3.0)


def _unknown_degree(compiled, spec) -> ResolvedRun:
    from repro.core.unknown_params import UnknownDegreeMDSAlgorithm

    params = _params(spec, epsilon=0.1)
    alpha = _resolve_alpha(compiled, spec.alpha)
    algorithm = UnknownDegreeMDSAlgorithm(**params)
    guarantee = (2 * alpha + 1) * (1 + algorithm.epsilon)
    return ResolvedRun(algorithm, alpha, False, guarantee)


def _unknown_arboricity(compiled, spec) -> ResolvedRun:
    """Remark 4.5; runs without alpha, guarantee cites the degeneracy bound."""
    from repro.core.unknown_params import UnknownArboricityMDSAlgorithm

    params = _params(spec, epsilon=0.25)
    algorithm = UnknownArboricityMDSAlgorithm(**params)
    guarantee = (2 * compiled.default_alpha + 1) * (2 + 3 * algorithm.epsilon)
    return ResolvedRun(algorithm, None, False, guarantee)


# --------------------------------------------------------------------------
# Distributed baselines and ablations (the scenario registry's extra solvers)
# --------------------------------------------------------------------------

def _lw_deterministic(compiled, spec) -> ResolvedRun:
    from repro.baselines.lenzen_wattenhofer import LWDeterministicAlgorithm

    del compiled
    return ResolvedRun(LWDeterministicAlgorithm(**_params(spec)), spec.alpha, True, None)


def _lw_randomized(compiled, spec) -> ResolvedRun:
    from repro.baselines.lenzen_wattenhofer import LWRandomizedAlgorithm

    del compiled
    return ResolvedRun(LWRandomizedAlgorithm(**_params(spec)), spec.alpha, True, None)


def _msw_combinatorial(compiled, spec) -> ResolvedRun:
    from repro.baselines.msw import MSWStyleAlgorithm

    del compiled
    return ResolvedRun(MSWStyleAlgorithm(**_params(spec)), spec.alpha, True, None)


def _weighted_lambda_scaled(compiled, spec) -> ResolvedRun:
    """Theorem 1.1 with the partial-phase threshold lambda scaled (E10)."""
    from repro.core.partial import theorem11_lambda
    from repro.core.weighted import WeightedMDSAlgorithm

    params = _params(spec, epsilon=0.2, lambda_scale=1.0)
    lambda_scale = params.pop("lambda_scale")
    alpha = _resolve_alpha(compiled, spec.alpha)
    lambda_value = theorem11_lambda(alpha, params["epsilon"]) * lambda_scale
    algorithm = WeightedMDSAlgorithm(lambda_value=lambda_value, **params)
    guarantee = algorithm.approximation_guarantee(alpha) if lambda_scale == 1.0 else None
    return ResolvedRun(algorithm, alpha, True, guarantee)


#: Named algorithm recipes.  The first seven are the paper's algorithms; the
#: rest are the distributed baselines and ablation variants.
ALGORITHMS: Dict[str, AlgorithmRecipe] = {
    "deterministic": _deterministic,
    "weighted": _weighted,
    "randomized": _randomized,
    "general": _general,
    "forest": _forest,
    "unknown-degree": _unknown_degree,
    "unknown-arboricity": _unknown_arboricity,
    "lw-deterministic": _lw_deterministic,
    "lw-randomized": _lw_randomized,
    "msw-combinatorial": _msw_combinatorial,
    "weighted-lambda-scaled": _weighted_lambda_scaled,
}


def available_algorithms() -> Tuple[str, ...]:
    """Return the registered algorithm names, sorted."""
    return tuple(sorted(ALGORITHMS))


def resolve_algorithm(name: str) -> AlgorithmRecipe:
    """Return the recipe registered under ``name`` (``KeyError`` lists all)."""
    return registry_lookup(ALGORITHMS, name, "algorithm")


def register_algorithm(
    name: str, recipe: AlgorithmRecipe, replace: bool = False
) -> AlgorithmRecipe:
    """Register a custom recipe under ``name``; rejects silent redefinition."""
    if not replace and name in ALGORITHMS:
        raise ValueError(f"algorithm {name!r} is already registered")
    ALGORITHMS[name] = recipe
    return recipe
