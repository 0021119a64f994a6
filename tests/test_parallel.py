"""Tests for the multiprocess parallel simulation driver."""

import pytest

from repro.simulators import SIMULATORS
from repro.simulators.parallel import default_worker_count, simulate_apps_parallel
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu


APPS = ["bfs", "gemm", "sm"]


class TestParallelDriver:
    def test_default_worker_count_bounds(self):
        workers = default_worker_count()
        assert 1 <= workers <= 50

    def test_sequential_path_matches_direct(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS]
        sim = SwiftSimBasic(tiny_gpu)
        results = simulate_apps_parallel(sim, apps, workers=1)
        assert set(results) == set(APPS)
        for app in apps:
            direct = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
            assert results[app.name].total_cycles == direct.total_cycles

    def test_parallel_matches_sequential_cycles(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS]
        sim = SwiftSimBasic(tiny_gpu)
        sequential = simulate_apps_parallel(sim, apps, workers=1)
        parallel = simulate_apps_parallel(sim, apps, workers=2)
        for name in APPS:
            assert parallel[name].total_cycles == sequential[name].total_cycles

    @pytest.mark.parametrize("simulator_cls", [SwiftSimBasic, SwiftSimMemory])
    def test_parallel_matches_serial_exactly(self, tiny_gpu, simulator_cls):
        """Pooled workers must reproduce the serial gather_metrics=False
        path bit-exactly, down to per-kernel boundaries: workers unpickle
        the simulator itself, so any state leaking through pickling
        would show up here."""
        apps = [make_app(name, scale="tiny") for name in APPS]
        pooled = simulate_apps_parallel(simulator_cls(tiny_gpu), apps, workers=2)
        for app in apps:
            serial = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False)
            result = pooled[app.name]
            assert result.total_cycles == serial.total_cycles
            assert [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in result.kernels
            ] == [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in serial.kernels
            ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("key", ["swift-analytic", "interval"])
    def test_closed_form_tiers_ship_as_themselves(self, tiny_gpu, key, workers):
        if key == "swift-analytic":
            pytest.importorskip("numpy")
        apps = [make_app(name, scale="tiny") for name in APPS]
        results = simulate_apps_parallel(SIMULATORS[key](tiny_gpu), apps,
                                         workers=workers)
        for app in apps:
            direct = SIMULATORS[key](tiny_gpu).simulate(app)
            assert results[app.name].total_cycles == direct.total_cycles
            assert results[app.name].simulator_name == key

    def test_parallel_with_analytical_memory(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS[:2]]
        sim = SwiftSimMemory(tiny_gpu)
        results = simulate_apps_parallel(sim, apps, workers=2)
        assert all(r.total_cycles > 0 for r in results.values())

    def test_results_carry_identity(self, tiny_gpu):
        apps = [make_app("bfs", scale="tiny")]
        results = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps, workers=2)
        result = results["bfs"]
        assert result.simulator_name == "swift-basic"
        assert result.gpu_name == tiny_gpu.name
        assert result.metrics is None  # metrics stay in the worker
