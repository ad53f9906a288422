"""Shared pieces of the benchmark: statistics, result checks, digests, metadata.

Everything here is benchmark-owned: the checks re-derive what they verify
from the graph arrays instead of trusting the program's own validation, so a
"speed-up" that changes results shows up as failed ops.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for cache directories, span files and server logs.  It sits
#: inside the checkout (and is ignored by git) so a run never writes outside it.
WORK = ROOT / ".perfbench-work"

#: The seed whose result digests and exact counts are pinned in pinned.json.
DEFAULT_SEED = 1
#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3


def quantile(samples: Sequence[float], q: float) -> Tuple[float, int, int]:
    """``(value, count, beyond)`` for the ``q`` quantile of ``samples``.

    The median is the usual midpoint median; other quantiles use the
    nearest-rank rule.  ``beyond`` is how many samples lie strictly above
    the value -- the number that makes a tail percentile trustworthy.
    """
    if not samples:
        return 0.0, 0, 0
    ordered = sorted(samples)
    if q == 0.5:
        value = statistics.median(ordered)
    else:
        value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    beyond = sum(1 for sample in ordered if sample > value)
    return float(value), len(ordered), beyond


def vmhwm_mib(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def run_metadata() -> Dict[str, str]:
    """What a noisy run needs for an explanation: load, CPUs, versions."""
    import numpy
    import scipy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def loadavg() -> str:
    return " ".join(f"{value:.2f}" for value in os.getloadavg())


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of a result's canonical byte form (:func:`result_bytes`)."""
    from repro.run.result import result_bytes

    return sha256_hex(result_bytes(result))


def combined_digest(digests: Iterable[str]) -> str:
    return sha256_hex("\n".join(digests).encode("ascii"))


# ---------------------------------------------------------------------------
# Independent result checks
# ---------------------------------------------------------------------------


class GraphCheck:
    """Checks a result against one graph's CSR arrays.

    ``indptr``/``indices`` hold both directions of every edge and ``weights``
    one entry per node; node ``i`` is the ``i``-th entry of ``labels`` (the
    identity when ``labels`` is ``None``).
    """

    def __init__(self, indptr, indices, weights, labels: Optional[Sequence[Any]] = None):
        import numpy as np

        self.n = len(indptr) - 1
        self.indices = np.asarray(indices, dtype=np.int64)
        self.owner = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        self.weights = np.asarray(weights, dtype=np.int64)
        self.index = None if labels is None else {label: i for i, label in enumerate(labels)}

    @classmethod
    def from_csr(cls, csr) -> "GraphCheck":
        return cls(csr.indptr, csr.indices, csr.weight_array())

    @classmethod
    def from_networkx(cls, graph) -> "GraphCheck":
        import numpy as np

        labels = list(graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        u = np.fromiter((index[a] for a, _ in graph.edges()), dtype=np.int64)
        v = np.fromiter((index[b] for _, b in graph.edges()), dtype=np.int64)
        sources = np.concatenate([u, v])
        targets = np.concatenate([v, u])
        order = np.argsort(sources, kind="stable")
        indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=len(labels)), out=indptr[1:])
        weights = [graph.nodes[label].get("weight", 1) for label in labels]
        return cls(indptr, targets[order], weights, labels)

    def failures(self, result) -> List[str]:
        """What is wrong with ``result`` (an empty list when nothing is).

        Domination is one pass over the edge arrays: a node is covered when
        it is selected or some edge leads to it from a selected node.
        """
        import numpy as np

        selected = result.dominating_set
        if self.index is not None:
            try:
                selected = [self.index[node] for node in selected]
            except KeyError as error:
                return [f"selected node {error.args[0]!r} is not in the graph"]
        chosen = np.fromiter(selected, dtype=np.int64, count=len(selected))
        if chosen.size and (chosen.min() < 0 or chosen.max() >= self.n):
            return ["selected node id out of range"]
        mask = np.zeros(self.n, dtype=bool)
        mask[chosen] = True
        covered = mask.copy()
        covered[self.indices[mask[self.owner]]] = True
        problems = []
        if not covered.all():
            problems.append(f"{int((~covered).sum())} nodes are not dominated")
        weight = int(self.weights[chosen].sum())
        if weight != result.weight:
            problems.append(f"reported weight {result.weight} != selected weight {weight}")
        return problems


@dataclass
class Tally:
    """Counts ops and the ones that failed; keeps the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {'; '.join(problems)}")
        return not problems


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Metrics of one run, in print order, plus the lines explaining them."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    correct: bool = True

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        suffix = f"  ({note})" if note else ""
        self.lines.append(f"metric {name} = {value:.6g} {unit}{suffix}")

    def percentile(self, name: str, samples: Sequence[float], q: float,
                   unit: str = "ms", record: bool = True) -> float:
        """A percentile with its sample count; ``record=False`` only prints it."""
        value, count, beyond = quantile(samples, q)
        note = f"n={count}, beyond={beyond}"
        if record:
            self.metric(name, value, unit, note)
        else:
            self.lines.append(f"percentile {name} = {value:.6g} {unit}  ({note})")
        return value

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, reason: str) -> None:
        """A run-level failure: the result line says ``correct: false``."""
        self.correct = False
        self.lines.append(f"FAIL {reason}")

    def pin(self, pinned: Optional[Dict[str, Any]], digest: str, counts: Dict[str, int]) -> None:
        """Print the determinism window and compare it with the pinned one."""
        self.note(f"digest {digest}")
        self.note("counts " + json.dumps(counts, sort_keys=True))
        if pinned is None:
            return
        if pinned.get("digest") != digest:
            self.fail(f"result digest {digest} != pinned {pinned.get('digest')}")
        if pinned.get("counts") != counts:
            self.fail(f"exact counts {counts} != pinned {pinned.get('counts')}")

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct and self.tally.failed == 0 and self.tally.attempted > 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def load_pinned(workload: str, seed: int, size: str) -> Optional[Dict[str, Any]]:
    """The pinned digest and counts for ``workload``, when this run has them."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    pinned = json.loads((Path(__file__).parent / "pinned.json").read_text())
    return pinned.get(workload)


class Clock:
    """A deadline for the timed phase of a run."""

    def __init__(self, seconds: float):
        self.started = time.perf_counter()
        self.deadline = self.started + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

