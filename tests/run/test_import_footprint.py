"""Import hygiene: scipy loads only where an LP or MILP is solved.

None of the paper's algorithms solves an LP; scipy's HiGHS is used only for
the OPT denominator of a sweep's ratios and by the LP baselines.  Every
serve, sweep and CLI process imports ``repro.baselines`` (through the OPT
policy), so a module-level scipy import there would cost each of them about
40 MiB and half a second.  Each check runs in a fresh interpreter, because
this test process has long since imported scipy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

ENTRY_MODULES = (
    "repro",
    "repro.run",
    "repro.orchestration",
    "repro.orchestration.cli",
    "repro.serve.http",
)

#: Prints the scipy modules loaded so far as a JSON list.
LOADED_SCIPY = (
    "json.dumps(sorted(name for name in sys.modules "
    "if name == 'scipy' or name.startswith('scipy.')))"
)


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_does_not_load_scipy(module):
    out = _run(
        f"""
        import importlib, json, sys
        importlib.import_module({module!r})
        print({LOADED_SCIPY})
        """
    )
    assert json.loads(out) == []


def test_lp_functions_load_the_solver_on_first_solve():
    out = _run(
        f"""
        import json, sys
        import networkx as nx
        from repro.baselines.lp import fractional_vertex_cover_lp, lp_dominating_set_lower_bound

        before = {LOADED_SCIPY}
        values = [
            lp_dominating_set_lower_bound(nx.star_graph(3)),
            lp_dominating_set_lower_bound(nx.cycle_graph(6)),
            fractional_vertex_cover_lp(nx.complete_graph(3))[1],
            fractional_vertex_cover_lp(nx.cycle_graph(5))[1],
        ]
        print(json.dumps({{"before": json.loads(before), "values": values,
                          "after": "scipy.optimize" in sys.modules}}))
        """
    )
    report = json.loads(out)
    assert report["before"] == []
    # Star: the centre dominates all; C6: every closed neighbourhood has 3
    # nodes, x = 1/3 everywhere; triangle and C5 covers: x = 1/2 everywhere.
    assert report["values"] == pytest.approx([1.0, 2.0, 1.5, 2.5])
    assert report["after"] is True


_SWEEP_SCRIPT = """
    import json, sys
    import repro.orchestration.runner as runner
    from repro.orchestration.governor import SweepBudget
    from repro.orchestration.registry import GraphSpec, ScenarioSpec, SolverSpec, register_scenario

    loaded_at_pool_start = []

    class RecordingPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            loaded_at_pool_start.append("scipy.optimize" in sys.modules)
            super().__init__(*args, **kwargs)

    runner.ProcessPoolExecutor = RecordingPool
    register_scenario(ScenarioSpec(
        name="footprint/{opt_mode}",
        experiment="footprint",
        description="two tiny cells",
        graphs=[GraphSpec("random-tree", {{"n": 12}})],
        solvers=[SolverSpec("forest")],
        opt_mode="{opt_mode}",
    ))
    budget = SweepBudget(seconds=600.0) if {governed} else None
    results = runner.SweepRunner(workers=2, budget=budget).sweep(
        ["footprint/{opt_mode}"], seeds=[0, 1]
    )
    assert len(results) == 2 and all(result.records for result in results)
    print(json.dumps({{"pool_starts": loaded_at_pool_start,
                      "after": "scipy.optimize" in sys.modules}}))
"""


@pytest.mark.parametrize("governed", [False, True], ids=["ungoverned", "governed"])
@pytest.mark.parametrize("opt_mode", ["auto", "degree"])
def test_sweep_loads_the_solver_before_forking_only_when_opt_needs_it(opt_mode, governed):
    report = json.loads(
        _run(_SWEEP_SCRIPT.format(opt_mode=opt_mode, governed=governed))
    )
    # Both arms fork one pool for the two misses.
    assert len(report["pool_starts"]) == 1
    needs_solver = opt_mode != "degree"
    # An exact/LP OPT sweep loads scipy here, so the forked workers inherit
    # it; a degree-OPT sweep never loads it in the coordinator.
    assert report["pool_starts"] == [needs_solver]
    assert report["after"] is needs_solver
