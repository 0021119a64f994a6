"""Machine-independent work counts of the cold analytic sweep.

Wall-clock is host-bound; these count the operations whose repetition
made the sweep cost instructions x points: trace walks (the three-level
``num_instructions`` sums, ``WarpTrace.__len__``) and ``_ConfigBatch``
builds.  They must depend on the number of applications only, never on
the size of the grid.
"""

import pytest

pytest.importorskip("numpy")

import repro.simulators.swift_analytic as swift_analytic
from repro.eval.sweep import DesignSpaceSweep
from repro.frontend.precharacterize import precharacterize
from repro.frontend.trace import ApplicationTrace, WarpTrace
from repro.simulators.swift_analytic import SwiftSimAnalytic
from repro.tracegen.suites import make_app

GRID_3X3 = {"num_sms": [2, 4, 8], "l1.latency": [20, 28, 36]}
GRID_6X3 = {"num_sms": [1, 2, 3, 4, 6, 8], "l1.latency": [20, 28, 36]}


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers on the trace walk and the batch constructor."""
    seen = {"trace_walks": 0, "batches": 0, "warp_lens": 0}
    walk = ApplicationTrace.num_instructions.fget
    build = swift_analytic._ConfigBatch.__init__
    warp_len = WarpTrace.__len__

    def counted_walk(self):
        seen["trace_walks"] += 1
        return walk(self)

    def counted_build(self, configs):
        seen["batches"] += 1
        build(self, configs)

    def counted_len(self):
        seen["warp_lens"] += 1
        return warp_len(self)

    monkeypatch.setattr(
        ApplicationTrace, "num_instructions", property(counted_walk)
    )
    monkeypatch.setattr(swift_analytic._ConfigBatch, "__init__", counted_build)
    monkeypatch.setattr(WarpTrace, "__len__", counted_len)
    return seen


def _fresh_apps():
    # Fresh wrappers: the tasklist memo is keyed on the trace object, so
    # each sweep below pays its own pre-characterization.
    return [make_app("sm", scale="tiny"), make_app("bfs", scale="tiny")]


class TestRunBatchedWorkCounts:
    def test_one_batch_and_per_app_walks_whatever_the_grid(self, tiny_gpu, counts):
        per_grid = []
        for grid in (GRID_3X3, GRID_6X3):
            counts.update(trace_walks=0, batches=0, warp_lens=0)
            apps = _fresh_apps()
            result = DesignSpaceSweep(tiny_gpu, grid).run_batched(apps)
            assert len(result.points) == len(apps) * len(grid["num_sms"]) * 3
            per_grid.append(dict(counts))
        small, doubled = per_grid
        assert small["batches"] == 1
        assert small["trace_walks"] <= 2  # O(apps): at most one per app
        assert doubled == small

    def test_ipc_comes_from_the_tasklist_count(self, tiny_gpu):
        apps = _fresh_apps()
        result = DesignSpaceSweep(tiny_gpu, GRID_3X3).run_batched(apps)
        instructions = {app.name: app.num_instructions for app in apps}
        for point in result.points:
            assert point.ipc == instructions[point.app_name] / point.total_cycles


class TestSimulateWorkCounts:
    def test_simulate_on_memoised_tasklist_never_walks_the_trace(
        self, tiny_gpu, counts
    ):
        app = make_app("hotspot", scale="tiny")
        precharacterize(app)
        counts.update(trace_walks=0, batches=0, warp_lens=0)
        simulator = SwiftSimAnalytic(tiny_gpu)
        result = simulator.simulate(app)
        assert counts["warp_lens"] == 0
        assert counts["trace_walks"] == 0
        # ...and the reported instruction counts are still the trace's.
        assert [k.instructions for k in result.kernels] == [
            k.num_instructions for k in app.kernels
        ]
        assert result.instructions == app.num_instructions
