"""Algorithm kernels: node-loop-free NumPy implementations over CSR arrays.

This package is the third execution tier (after the reference and batched
engines): for the paper's hot algorithms it replaces the per-node Python
handler loop with whole-graph array programs over the network's CSR layout,
scaling runs to 10^5+-node graphs while staying byte-identical to the
reference engine (same dominating sets, same per-round
:class:`~repro.congest.metrics.RunMetrics`).

Kernels are registered per *exact* algorithm class -- subclasses with
overridden behavior never silently inherit a kernel -- and resolved lazily,
so importing this package does not import NumPy or the algorithm modules.
Use :func:`register_kernel` to attach a kernel to a custom algorithm class;
a kernel is a callable ``kernel(grid, config, algorithm, *, budget, limit,
strict, seed=None, hooks=None) -> (outputs, RunMetrics)`` over a
:class:`~repro.congest.kernels.grid.KernelGrid`.  ``seed`` is the network
seed (randomized kernels replay the per-node RNG streams from it) and
``hooks`` an optional compiled :class:`~repro.faults.session.FaultSession`:
when present the kernel must apply the fault schedule -- the built-in
kernels do so through the vectorized driver in
:mod:`repro.congest.kernels.faults`.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional, Tuple

from repro.congest.errors import EngineCapabilityError
from repro.congest.kernels.engine import KernelEngine

__all__ = [
    "KernelEngine",
    "KERNELS",
    "check_capability",
    "kernel_for",
    "has_kernel",
    "program_for",
    "register_kernel",
    "kernel_algorithm_classes",
]


def _dotted(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: Registered kernels, keyed by the dotted path of the exact algorithm
#: class.  Each entry is a ``(kernel, program)`` pair: the kernel callable
#: and its round-by-round driver program (the ``_Faulted*`` class the
#: sharded tier distributes, or ``None`` when there is none).  Either part
#: may be a lazy ``"module:attribute"`` reference, resolved on first use so
#: the keys can be declared without importing the algorithm or kernel
#: modules.  A program is constructed as ``program(grid, config, algorithm,
#: seed, n_global)`` -- ``n_global`` is the node count of the whole graph,
#: which differs from ``grid.n`` on a shard-local grid -- and may define a
#: ``validate(grid, config, algorithm, seed)`` static method raising the
#: configuration errors its constructor would raise.
KERNELS: Dict[str, Tuple[Any, Any]] = {
    "repro.core.trees.ForestMDSAlgorithm": (
        "repro.congest.kernels.forest:forest_kernel",
        "repro.congest.kernels.forest:_FaultedForest",
    ),
    "repro.core.weighted.WeightedMDSAlgorithm": (
        "repro.congest.kernels.primal_dual:primal_dual_kernel",
        "repro.congest.kernels.primal_dual:_FaultedPrimalDual",
    ),
    "repro.core.unweighted.UnweightedMDSAlgorithm": (
        "repro.congest.kernels.primal_dual:primal_dual_kernel",
        "repro.congest.kernels.primal_dual:_FaultedPrimalDual",
    ),
    "repro.baselines.lenzen_wattenhofer.LWDeterministicAlgorithm": (
        "repro.congest.kernels.baseline:lw_deterministic_kernel",
        "repro.congest.kernels.baseline:_FaultedLWDeterministic",
    ),
    "repro.baselines.lenzen_wattenhofer.LWRandomizedAlgorithm": (
        "repro.congest.kernels.interleaved:lw_randomized_kernel",
        "repro.congest.kernels.interleaved:_FaultedLWRandomized",
    ),
    "repro.core.unknown_params.UnknownDegreeMDSAlgorithm": (
        "repro.congest.kernels.interleaved:unknown_degree_kernel",
        "repro.congest.kernels.interleaved:_FaultedUnknownDegree",
    ),
}


def _load(reference: Any) -> Any:
    if not isinstance(reference, str):
        return reference
    module_name, attribute = reference.split(":")
    return getattr(importlib.import_module(module_name), attribute)


def _entry(algorithm) -> Optional[Tuple[Any, Any]]:
    key = _dotted(type(algorithm))
    entry = KERNELS.get(key)
    if entry is None:
        return None
    kernel, program = entry
    if isinstance(kernel, str) or isinstance(program, str):
        entry = KERNELS[key] = (_load(kernel), _load(program))
    return entry


def kernel_for(algorithm) -> Optional[Callable]:
    """Return the kernel for ``algorithm``'s exact class, or ``None``.

    Dispatch is deliberately not ``isinstance``-based: a subclass may
    change round behavior the kernel does not replay, so only the exact
    registered classes match.
    """
    entry = _entry(algorithm)
    return None if entry is None else entry[0]


def program_for(algorithm) -> Optional[Callable]:
    """Return the driver program for ``algorithm``'s exact class, or ``None``."""
    entry = _entry(algorithm)
    return None if entry is None else entry[1]


def has_kernel(algorithm) -> bool:
    """Whether ``algorithm`` (an instance) executes on the kernel tier."""
    return _dotted(type(algorithm)) in KERNELS


def register_kernel(algorithm_class: type, kernel: Callable, replace: bool = False):
    """Register ``kernel`` for the exact ``algorithm_class`` (with no driver
    program, so the class does not run on the sharded tier)."""
    key = _dotted(algorithm_class)
    if not replace and key in KERNELS:
        raise ValueError(f"a kernel for {key} is already registered")
    KERNELS[key] = (kernel, None)
    return kernel


def kernel_algorithm_classes() -> Tuple[str, ...]:
    """Dotted class paths of every algorithm with a registered kernel."""
    return tuple(sorted(KERNELS))


def check_capability(
    algorithm,
    engine: str,
    *,
    csr: bool = False,
    label: Optional[str] = None,
    fault_model: Optional[str] = None,
) -> None:
    """Raise :class:`~repro.congest.errors.EngineCapabilityError` unless
    ``engine`` can run ``algorithm`` on this kind of graph.

    The algorithm x engine x faults x graph-kind table:

    ==========  ==========================  ===================================
    graph       engine                      runs
    ==========  ==========================  ===================================
    networkx    reference, batched, kernel  every algorithm, faults included
                                            (kernel falls back to batched)
    any         sharded                     algorithms with a driver program,
                                            fault-free only
    CSRGraph    kernel                      algorithms with a kernel, faults
                                            included
    CSRGraph    any other                   nothing
    ==========  ==========================  ===================================

    ``label`` names the algorithm in the error's cell (default: the
    instance's ``name``); ``fault_model`` is the fault label, ``None`` for a
    fault-free run.  The raised error's ``cell`` is ``(label, engine,
    fault_model)``, so a cell gets the same key whatever the graph type.
    This is the only place the error is raised.
    """
    if label is None:
        label = getattr(algorithm, "name", type(algorithm).__name__)
    if engine == "sharded":
        if fault_model is not None:
            reason = (
                "unsupported capability cell: fault plans do not run on "
                "engine='sharded'; run faulted cells on engine='kernel'"
            )
        elif program_for(algorithm) is None:
            reason = (
                f"algorithm {label!r} has no sharded program; engine='sharded' "
                "supports exactly the kerneled algorithms"
            )
        else:
            return
    elif not csr:
        return
    elif engine != "kernel":
        reason = (
            f"CSRGraph inputs run on engine='kernel' or engine='sharded' only "
            f"(got {engine!r}); use CSRGraph.to_networkx() for the "
            "reference/batched engines"
        )
    elif not has_kernel(algorithm):
        with_faults = "" if fault_model is None else " with faults"
        reason = (
            f"unsupported capability cell: algorithm {label!r} on "
            f"engine='kernel'{with_faults} -- the algorithm has no kernel, and "
            "CSRGraph runs cannot fall back to the per-node engines; use "
            "CSRGraph.to_networkx() instead"
        )
    else:
        return
    raise EngineCapabilityError(
        reason, algorithm=label, engine=engine, fault_model=fault_model
    )
