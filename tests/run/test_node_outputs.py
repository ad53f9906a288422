"""Columnar run outputs: the lazy ``NodeOutputs`` view of a kernel program.

Kernel and sharded programs return their per-node outputs as node-ordered
columns.  Read as a mapping, the view must be exactly the per-node engines'
``{node: {field: value}}`` dicts -- equal, and pickled to the same bytes --
while a ``Session.run`` whose consumers read only the set and the weight
never builds those dicts.
"""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.congest.kernels import KERNELS, program_for
from repro.congest.kernels.grid import NodeOutputs
from repro.graphs import large_scale
from repro.run import RunSpec, Session
from repro.run.algorithms import resolve_algorithm
from repro.run.result import result_bytes
from repro.serve.service import decode_result_b64, encode_result_b64

#: One recipe per kernel program (``deterministic`` and ``weighted`` run the
#: primal-dual program on its two registered algorithm classes).
RECIPES = (
    "forest",
    "deterministic",
    "weighted",
    "lw-deterministic",
    "lw-randomized",
    "unknown-degree",
)


def _csr(recipe):
    if recipe == "forest":
        return large_scale.csr_from_networkx(nx.random_labeled_tree(40, seed=3))
    return large_scale.random_integer_weights(
        large_scale.large_preferential_attachment(60, attachment=3, seed=5),
        1, 30, seed=2,
    )


def _string_labelled(csr):
    graph = csr.to_networkx()
    return nx.relabel_nodes(graph, {node: f"v{node:03d}" for node in graph})


def _eager(outputs):
    """The per-row ``dict(zip(names, row))`` build the view replaces."""
    names = list(outputs.columns)
    values = []
    for column in outputs.columns.values():
        if isinstance(column, tuple):
            array, known = column
            values.append([v if k else None for v, k in zip(array.tolist(), known.tolist())])
        elif isinstance(column, np.ndarray):
            values.append(column.tolist())
        else:
            values.append([column] * outputs.count)
    rows = zip(outputs.node_order, zip(*values))
    return {node: dict(zip(names, row)) for node, row in rows}


def test_the_recipes_cover_every_kernel_program():
    session = Session()
    covered = set()
    for recipe in RECIPES:
        spec = RunSpec(graph=_csr(recipe), algorithm=recipe)
        algorithm = resolve_algorithm(recipe)(session.compile(spec), spec).algorithm
        program = program_for(algorithm)
        covered.add(f"{program.__module__}:{program.__qualname__}")
    for key in list(KERNELS):
        program = KERNELS[key]
        if not isinstance(program, str):
            program = f"{program.__module__}:{program.__qualname__}"
        assert program in covered, program


@pytest.mark.parametrize("labels", ["csr", "strings"])
@pytest.mark.parametrize("recipe", RECIPES)
def test_materialised_outputs_equal_the_eager_dicts(recipe, labels):
    csr = _csr(recipe)
    graph = csr if labels == "csr" else _string_labelled(csr)
    spec = dict(algorithm=recipe, alpha=csr.alpha, seed=4)
    kernel = Session().run(RunSpec(graph=graph, engine="kernel", **spec))
    outputs = kernel.outputs
    assert isinstance(outputs, NodeOutputs)
    eager = _eager(outputs)
    assert outputs == eager
    assert pickle.dumps(outputs.as_dict()) == pickle.dumps(eager)
    # ...and both are the per-node engine's own dicts, byte for byte.
    reference = Session().run(
        RunSpec(graph=csr.to_networkx() if labels == "csr" else graph,
                engine="reference", **spec)
    )
    assert pickle.dumps(outputs.as_dict()) == pickle.dumps(reference.outputs)
    assert kernel.dominating_set == reference.dominating_set


def test_unknown_and_constant_columns():
    outputs = NodeOutputs(
        ["a", "b", "c"],
        {
            "x": np.array([0.5, 1.0, 2.0]),
            "tau": (np.array([4, 5, 6]), np.array([True, False, True])),
            "fallback_join": False,
            "alpha_estimate": None,
        },
    )
    expected = {
        "a": {"x": 0.5, "tau": 4, "fallback_join": False, "alpha_estimate": None},
        "b": {"x": 1.0, "tau": None, "fallback_join": False, "alpha_estimate": None},
        "c": {"x": 2.0, "tau": 6, "fallback_join": False, "alpha_estimate": None},
    }
    assert outputs == expected
    assert pickle.dumps(outputs.as_dict()) == pickle.dumps(_eager(outputs))
    rows = outputs.as_dict().values()
    assert all(type(row["tau"]) is int for row in rows if row["tau"] is not None)
    assert all(type(row["x"]) is float for row in rows)
    # Every row shares one key object per field.
    assert len({id(key) for row in rows for key in row}) == 4


def test_count_keeps_the_first_rows():
    order = ["p", "q", "r", "s"]
    outputs = NodeOutputs(
        order, {"in_ds": np.array([True, False, True, True]), "k": 7}, count=2
    )
    assert len(outputs) == 2
    assert list(outputs) == ["p", "q"]
    assert outputs == {"p": {"in_ds": True, "k": 7}, "q": {"in_ds": False, "k": 7}}
    assert outputs.columns["in_ds"].tolist() == [True, False]
    shipped = pickle.loads(pickle.dumps(outputs))
    assert list(shipped.node_order) == ["p", "q"]
    assert shipped == outputs


def test_stored_arrays_are_read_only():
    result = Session().run(RunSpec(graph=_csr("weighted"), algorithm="weighted"))
    arrays = []
    for column in result.outputs.columns.values():
        if isinstance(column, tuple):
            arrays.extend(column)
        elif isinstance(column, np.ndarray):
            arrays.append(column)
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_pickle_round_trip_through_the_serve_encoding():
    result = Session().run(RunSpec(graph=_csr("weighted"), algorithm="weighted", seed=1))
    shipped = pickle.dumps(result.outputs)
    expected = result_bytes(result)  # materialises and caches the dicts
    # The cached dicts never travel: the pickle is the columns either way.
    assert pickle.dumps(result.outputs) == shipped
    decoded = decode_result_b64(encode_result_b64(result))
    assert isinstance(decoded.outputs, NodeOutputs)
    assert result_bytes(decoded) == expected
    assert decoded.dominating_set == result.dominating_set


@pytest.mark.parametrize("engine", [{"engine": "kernel"}, {"engine": "sharded", "shards": 2}])
def test_session_run_builds_no_dicts_until_outputs_are_read(monkeypatch, engine):
    builds = []
    as_dict = NodeOutputs.as_dict

    def counting(self):
        builds.append(self)
        return as_dict(self)

    monkeypatch.setattr(NodeOutputs, "as_dict", counting)
    csr = _csr("weighted")
    result = Session().run(RunSpec(graph=csr, algorithm="weighted", **engine))
    assert result.is_valid is True
    assert result.weight == int(csr.weight_array()[sorted(result.dominating_set)].sum())
    assert builds == []
    assert set(result.outputs[0]) >= {"in_ds", "x"}
    assert len(builds) == 1
    assert result.dominating_set == {
        node for node, row in result.outputs.items() if row["in_ds"]
    }
