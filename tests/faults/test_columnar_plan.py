"""Columnar fault plans on CSR graphs equal the tuple plans on networkx.

Materialising a :class:`~repro.faults.FaultSpec` on a
:class:`~repro.graphs.large_scale.CSRGraph` samples node and edge
*positions* and stores the schedule as arrays
(:meth:`FaultPlan.from_columns`); on the equivalent networkx graph the same
draws build the tuple form.  The two forms must be one value -- equal,
equally hashed, equally serialised, pickled either way -- and compile to
sessions that decide every round identically.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import repro
from repro.congest.network import Network
from repro.faults import FAULT_MODELS, ChurnEvent, CrashFault, FaultPlan
from repro.faults.plan import PlanColumns
from repro.faults.session import FaultSession
from repro.graphs.large_scale import large_preferential_attachment

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def csr():
    return large_preferential_attachment(90, attachment=3, seed=5)


@pytest.fixture(scope="module")
def graph(csr):
    return csr.to_networkx()


@pytest.mark.parametrize("model", sorted(FAULT_MODELS))
@pytest.mark.parametrize("seed", SEEDS)
def test_csr_plan_equals_networkx_plan(csr, graph, model, seed):
    columnar = FAULT_MODELS[model].materialize(csr, seed)
    tuples = FAULT_MODELS[model].materialize(graph, seed)
    assert columnar.columns is not None and tuples.columns is None
    assert columnar.describe() == tuples.describe()
    assert columnar.is_empty() == tuples.is_empty()
    assert columnar.has_churn == tuples.has_churn
    assert columnar.faulty_nodes() == tuples.faulty_nodes()
    assert columnar == tuples and tuples == columnar
    assert hash(columnar) == hash(tuples)
    assert json.dumps(columnar.as_dict(), sort_keys=True) == json.dumps(
        tuples.as_dict(), sort_keys=True
    )
    for plan in (columnar, tuples):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == columnar and clone == tuples
        assert (clone.columns is None) == (plan.columns is None)


def test_columnar_queries_build_no_objects(csr, monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(CrashFault, "__init__", forbidden)
    monkeypatch.setattr(ChurnEvent, "__init__", forbidden)
    plan = FAULT_MODELS["chaos"].materialize(csr, 7)
    assert not plan.is_empty() and plan.has_churn
    assert "churn_events=" in plan.describe()
    assert plan.faulty_nodes()
    FaultSession.for_csr(plan, csr)
    result = repro.execute(
        repro.RunSpec(
            graph=csr, algorithm="deterministic", engine="kernel", faults="chaos", seed=7
        )
    )
    assert result.metrics.faulty_nodes == plan.faulty_nodes()


def test_session_decisions_match_network_session(csr, graph):
    spec = FAULT_MODELS["chaos"]
    rounds = spec.churn_period * (spec.churn_epochs + 1) + 2
    for seed in SEEDS:
        columnar = spec.materialize(csr, seed)
        sessions = [
            FaultSession.for_csr(columnar, csr),
            FaultSession(columnar, Network(graph)),
            FaultSession(spec.materialize(graph, seed), Network(graph)),
        ]
        for round_index in range(rounds):
            observed = []
            for session in sessions:
                session.begin_round(round_index)
                keep, delays = session.edge_fates(round_index)
                observed.append(
                    (
                        keep.tolist(),
                        delays.tolist(),
                        session.crashed_now.tolist(),
                        session.permanently_crashed.tolist(),
                        session.live_edge_count(),
                    )
                )
            assert observed[0] == observed[1] == observed[2], f"round {round_index}"


def test_scalar_lookups_resolve_on_csr(csr, graph):
    plan = FAULT_MODELS["chaos"].materialize(csr, 0)
    session = FaultSession.for_csr(plan, csr)
    reference = FaultSession(plan, Network(graph))
    u, v = csr.edge_arrays()
    for a, b in zip(u.tolist()[:40], v.tolist()[:40]):
        assert session._directed_pair(a, b, "test") == reference._directed_pair(a, b, "test")
    assert (0, 0) not in session._edge_pos


class TestFromColumns:
    def _columns(self, crash=((0, 1, -1),), churn=((2, 0, 1, False),)):
        crash_node, crash_start, crash_recover = (np.array(c, dtype=np.int64) for c in zip(*crash))
        churn_round, churn_u, churn_v, churn_insert = (np.array(c) for c in zip(*churn))
        return PlanColumns(
            crash_node, crash_start, crash_recover, churn_round, churn_u, churn_v, churn_insert
        )

    def test_equals_tuple_form(self):
        plan = FaultPlan.from_columns(
            self._columns(crash=((3, 1, 4), (5, 2, -1)), churn=((2, 0, 1, False), (4, 0, 1, True))),
            drop_probability=0.1,
            seed=4,
        )
        assert plan == FaultPlan(
            crashes=(CrashFault(3, 1, 4), CrashFault(5, 2)),
            churn=(ChurnEvent(2, "remove", 0, 1), ChurnEvent(4, "insert", 0, 1)),
            drop_probability=0.1,
            seed=4,
        )
        assert plan.describe() == "crashes=1 stop/1 recover drop_p=0.1 churn_events=2"

    def test_validates_on_the_arrays(self):
        with pytest.raises(ValueError, match="churn round must be >= 0"):
            FaultPlan.from_columns(self._columns(churn=((-1, 0, 1, False),)))
        with pytest.raises(ValueError, match="crash start must be >= 0"):
            FaultPlan.from_columns(self._columns(crash=((0, -2, -1),)))
        with pytest.raises(ValueError, match="must be after start"):
            FaultPlan.from_columns(self._columns(crash=((0, 3, 3),)))
        with pytest.raises(ValueError, match="overlapping crash windows"):
            FaultPlan.from_columns(self._columns(crash=((0, 1, 5), (0, 3, -1))))
        with pytest.raises(ValueError, match="overlapping crash windows"):
            FaultPlan.from_columns(self._columns(crash=((0, 1, -1), (0, 9, 12))))
        # Back-to-back windows do not overlap.
        FaultPlan.from_columns(self._columns(crash=((0, 1, 3), (0, 3, -1))))

    def test_plans_are_immutable(self):
        plan = FaultPlan.from_columns(self._columns())
        with pytest.raises(AttributeError):
            plan.seed = 3
        with pytest.raises(AttributeError):
            FaultPlan().crashes = ()
