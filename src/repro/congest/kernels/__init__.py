"""Algorithm kernels: node-loop-free NumPy programs over CSR arrays.

This package is the third execution tier (after the reference and batched
engines): for the paper's hot algorithms it replaces the per-node Python
handler loop with whole-graph array programs over the network's CSR layout,
scaling runs to 10^5+-node graphs while staying byte-identical to the
reference engine (same dominating sets, same per-round
:class:`~repro.congest.metrics.RunMetrics`).

Each kerneled algorithm has exactly one *program*: a class with a
``finished`` node mask, ``step(round_index, acting, inbox, run)`` and
``outputs(count=None)`` (its output columns in a lazy
:class:`~repro.congest.kernels.grid.NodeOutputs`), constructed as
``program(grid, config, algorithm, seed, n_global)`` over a
:class:`~repro.congest.kernels.grid.KernelGrid`.
The driver in :mod:`repro.congest.kernels.faults` runs it, with or without
a compiled :class:`~repro.faults.session.FaultSession`, and the sharded
tier runs the same class inside its workers.  Programs are registered per
*exact* algorithm class -- subclasses with overridden behavior never
silently inherit one -- and resolved lazily, so importing this package does
not import NumPy or the algorithm modules.  Use :func:`register_kernel` to
attach a program to a custom algorithm class.
"""

from __future__ import annotations

import importlib
from functools import partial
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


#: Registered programs, keyed by the dotted path of the exact algorithm
#: class.  A value may be a lazy ``"module:attribute"`` reference, resolved
#: on first use so the keys can be declared without importing the algorithm
#: or kernel modules.  ``n_global`` in the constructor is the node count of
#: the whole graph, which differs from ``grid.n`` on a shard-local grid; a
#: program may define a ``validate(grid, config, algorithm, seed)`` static
#: method raising the configuration errors its constructor would raise.
KERNELS: Dict[str, Any] = {
    "repro.core.trees.ForestMDSAlgorithm": "repro.congest.kernels.forest:ForestProgram",
    "repro.core.weighted.WeightedMDSAlgorithm": (
        "repro.congest.kernels.primal_dual:PrimalDualProgram"
    ),
    "repro.core.unweighted.UnweightedMDSAlgorithm": (
        "repro.congest.kernels.primal_dual:PrimalDualProgram"
    ),
    "repro.baselines.lenzen_wattenhofer.LWDeterministicAlgorithm": (
        "repro.congest.kernels.baseline:LWDeterministicProgram"
    ),
    "repro.baselines.lenzen_wattenhofer.LWRandomizedAlgorithm": (
        "repro.congest.kernels.interleaved:LWRandomizedProgram"
    ),
    "repro.core.unknown_params.UnknownDegreeMDSAlgorithm": (
        "repro.congest.kernels.interleaved:UnknownDegreeProgram"
    ),
}


def program_for(algorithm) -> Optional[Callable]:
    """Return the program for ``algorithm``'s exact class, or ``None``.

    Dispatch is deliberately not ``isinstance``-based: a subclass may
    change round behavior the program does not replay, so only the exact
    registered classes match.
    """
    key = _dotted(type(algorithm))
    program = KERNELS.get(key)
    if isinstance(program, str):
        module_name, attribute = program.split(":")
        program = KERNELS[key] = getattr(importlib.import_module(module_name), attribute)
    return program


def kernel_for(algorithm) -> Optional[Callable]:
    """Return the kernel-tier runner for ``algorithm``, or ``None``.

    The runner is :func:`~repro.congest.kernels.faults.run_program` bound to
    the algorithm's program: ``kernel(grid, config, algorithm, *, budget,
    limit, strict, seed=None, hooks=None) -> (outputs, RunMetrics)``.
    """
    program = program_for(algorithm)
    if program is None:
        return None
    from repro.congest.kernels.faults import run_program

    return partial(run_program, program)


def has_kernel(algorithm) -> bool:
    """Whether ``algorithm`` (an instance) executes on the kernel tier."""
    return _dotted(type(algorithm)) in KERNELS


def register_kernel(algorithm_class: type, program: Callable, replace: bool = False):
    """Register ``program`` for the exact ``algorithm_class``; it then runs
    on the kernel and sharded tiers."""
    key = _dotted(algorithm_class)
    if not replace and key in KERNELS:
        raise ValueError(f"a kernel for {key} is already registered")
    KERNELS[key] = program
    return program


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
    any         sharded                     algorithms with a program,
                                            fault-free only
    CSRGraph    kernel                      algorithms with a program, faults
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
        elif not has_kernel(algorithm):
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
