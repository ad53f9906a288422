"""Invalid fault plans fail on CSR kernel runs with the dict-graph messages.

A CSR session resolves edges by binary search instead of a per-edge dict,
so these pin that an unknown node or an edge outside the input graph is
still reported precisely -- for hand-written tuple plans and for columnar
plans alike -- exactly as ``test_adversarial_engine.py`` pins it on the
dict-graph engines.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.faults import ChurnEvent, CrashFault, FaultPlan, LinkFault
from repro.faults.plan import PlanColumns
from repro.graphs.large_scale import csr_from_edges, large_grid

MISSING_EDGE = "names edge \\(0, 5\\) which is not in the input graph"


def _run(plan):
    csr = large_grid(3, 3)  # 0-1-2 / 3-4-5 / 6-7-8; (0, 5) is not an edge
    spec = repro.RunSpec(graph=csr, algorithm="deterministic", engine="kernel", faults=plan)
    return repro.execute(spec)


def _columnar(crash=(), churn=()):
    crash_cols = [np.array(c, dtype=np.int64) for c in zip(*crash)] or [np.empty(0)] * 3
    churn_cols = [np.array(c) for c in zip(*churn)] or [np.empty(0)] * 4
    return FaultPlan.from_columns(PlanColumns(*crash_cols, *churn_cols))


def test_crash_on_unknown_node():
    with pytest.raises(ValueError, match="crash fault names unknown node 99"):
        _run(FaultPlan(crashes=(CrashFault(99, start=1),)))
    with pytest.raises(ValueError, match="crash fault names unknown node 99"):
        _run(_columnar(crash=((99, 1, -1),)))


@pytest.mark.parametrize("node", [9, -1, -2])
def test_crash_on_out_of_range_node(node):
    # The grid's ids are 0..8: one past the last and negative ids name no
    # node.  Both -1 and -2 are tried: CPython hashes -1 like -2, so an
    # index lookup keyed on the hash must still bound-check both.
    message = f"crash fault names unknown node {node}"
    with pytest.raises(ValueError, match=message):
        _run(FaultPlan(crashes=(CrashFault(node, start=1),)))
    with pytest.raises(ValueError, match=message):
        _run(_columnar(crash=((node, 1, -1),)))


@pytest.mark.parametrize("u, v", [(8, 9), (-2, 0)])
def test_link_fault_on_out_of_range_endpoint(u, v):
    with pytest.raises(
        ValueError, match=f"link fault names unknown node in edge \\({u}, {v}\\)"
    ):
        _run(FaultPlan(links=(LinkFault(u, v, drop_probability=1.0),)))


def test_link_fault_on_missing_edge():
    with pytest.raises(ValueError, match=f"link fault {MISSING_EDGE}"):
        _run(FaultPlan(links=(LinkFault(0, 5, drop_probability=1.0),)))
    with pytest.raises(ValueError, match="link fault names unknown node"):
        _run(FaultPlan(links=(LinkFault(0, 99, drop_probability=1.0),)))


def test_churn_on_missing_edge():
    with pytest.raises(ValueError, match=f"churn event {MISSING_EDGE}"):
        _run(FaultPlan(churn=(ChurnEvent(0, "remove", 0, 1), ChurnEvent(1, "remove", 0, 5))))
    with pytest.raises(ValueError, match=f"churn event {MISSING_EDGE}"):
        _run(_columnar(churn=((0, 0, 1, False), (1, 0, 5, False))))
    with pytest.raises(ValueError, match="churn event names unknown node"):
        _run(FaultPlan(churn=(ChurnEvent(0, "remove", 0, 99),)))
    with pytest.raises(ValueError, match="churn event names unknown node"):
        _run(_columnar(churn=((0, 0, 99, False),)))


def test_plans_naming_an_isolated_node_report_the_missing_edge():
    # Node 3 has no neighbors: its CSR row is empty and starts at the end
    # of ``indices``, so no search may read inside it.
    csr = csr_from_edges(4, np.array([0, 1]), np.array([1, 2]))

    def run(plan):
        spec = repro.RunSpec(graph=csr, algorithm="deterministic", engine="kernel", faults=plan)
        return repro.execute(spec)

    missing = "names edge \\(3, 0\\) which is not in the input graph"
    with pytest.raises(ValueError, match=f"link fault {missing}"):
        run(FaultPlan(links=(LinkFault(3, 0, drop_probability=1.0),)))
    with pytest.raises(ValueError, match=f"churn event {missing}"):
        run(_columnar(churn=((0, 3, 0, False),)))
