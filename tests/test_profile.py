"""Unit tests for :mod:`repro.profile`: the cycle-attribution profiler,
its report rendering, the one-call runner, and the ``repro profile``
CLI."""

import json

import pytest

from repro.cli import main
from repro.frontend.config_io import save_gpu_config
from repro.profile import ModuleProfiler, ProfileReport, profile_simulation
from repro.sim.engine import ClockedModule, Engine
from repro.simulators.interval import IntervalSimulator
from repro.simulators.sampled import SampledSimulator
from repro.simulators.swift_basic import SwiftSimBasic
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu


class _EveryN(ClockedModule):
    """Ticks every ``period`` cycles until ``stop``."""

    def __init__(self, name, period, stop):
        super().__init__(name)
        self.period = period
        self.stop = stop
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        nxt = cycle + self.period
        return nxt if nxt <= self.stop else None

    def is_done(self):
        return True


class TestModuleProfiler:
    def test_attribution_on_known_topology(self):
        """One per-cycle module and one period-10 module: exact counts."""
        profiler = ModuleProfiler()
        engine = Engine(allow_jump=True)
        engine.attach_checker(profiler)
        dense = _EveryN("dense", 1, 100)
        sparse = _EveryN("sparse", 10, 100)
        engine.add(dense)
        engine.add(sparse)
        final = engine.run()
        assert final == 100
        assert profiler.runs == 1
        assert profiler.final_cycles == [100]
        stats = profiler.stats
        # dense ticked cycles 0..100 inclusive = 101 dispatches, 0 skipped.
        assert stats["dense"].ticks == 101
        assert stats["dense"].skipped_cycles == 0
        assert stats["dense"].jump_efficiency == 0.0
        # sparse ticked 0,10,...,100 = 11 dispatches, 90 skipped.
        assert stats["sparse"].ticks == 11
        assert stats["sparse"].skipped_cycles == 90
        assert stats["sparse"].window_cycles == 101
        assert stats["sparse"].jump_efficiency == pytest.approx(90 / 101)
        assert profiler.total_dispatches == 112
        assert profiler.total_ticked == 112
        assert profiler.total_skipped == 90
        assert stats["dense"].wall_seconds >= 0.0

    def test_aggregates_same_name_across_runs(self):
        """Two engine runs with same-named modules fold into one row,
        like a multi-kernel simulation reusing SM names."""
        profiler = ModuleProfiler()
        for __ in range(2):
            engine = Engine(allow_jump=True)
            engine.attach_checker(profiler)
            engine.add(_EveryN("sm0", 1, 20))
            engine.run()
        assert profiler.runs == 2
        assert profiler.stats["sm0"].runs == 2
        assert profiler.stats["sm0"].ticks == 42

    def test_late_start_module_window(self):
        """A module added with a future start_cycle is only accountable
        from that cycle on."""
        profiler = ModuleProfiler()
        engine = Engine(allow_jump=True)
        engine.attach_checker(profiler)
        engine.add(_EveryN("early", 1, 50))
        engine.add(_EveryN("late", 1, 50), start_cycle=30)
        final = engine.run()
        assert final == 50
        late = profiler.stats["late"]
        assert late.ticks == 21  # cycles 30..50
        assert late.ticks + late.skipped_cycles == 50 - 30 + 1

    def test_module_stats_sorted_by_wall(self):
        profiler = ModuleProfiler()
        engine = Engine(allow_jump=True)
        engine.attach_checker(profiler)
        engine.add(_EveryN("busy", 1, 200))
        engine.add(_EveryN("lazy", 100, 200))
        engine.run()
        names = [stats.name for stats in profiler.module_stats()]
        assert set(names) == {"busy", "lazy"}
        walls = [stats.wall_seconds for stats in profiler.module_stats()]
        assert walls == sorted(walls, reverse=True)


class TestProfileSimulation:
    def test_swift_basic_report(self):
        app = make_app("gemm", scale="tiny")
        result, report = profile_simulation(
            SwiftSimBasic(make_tiny_gpu()), app, gather_metrics=False
        )
        assert result.total_cycles > 0
        assert report.profiler.total_dispatches > 0
        assert 0.0 < report.jump_efficiency < 1.0
        # Engine-clocked modules of the hybrid plan are the SMs.
        assert any(name.startswith("sm") for name in report.profiler.stats)
        payload = report.as_dict()
        assert payload["run"]["app"] == "gemm"
        assert payload["run"]["total_cycles"] == result.total_cycles
        assert payload["totals"]["dispatches"] == report.profiler.total_dispatches
        assert payload["phases"][0]["cycles"] > 0
        json.loads(report.to_json())  # serializable

    def test_profiling_does_not_perturb_cycles(self):
        app = make_app("bfs", scale="tiny")
        plain = SwiftSimBasic(make_tiny_gpu()).simulate(app, gather_metrics=False)
        profiled, __ = profile_simulation(
            SwiftSimBasic(make_tiny_gpu()), app, gather_metrics=False
        )
        assert profiled.total_cycles == plain.total_cycles

    def test_sampled_simulator_profiles_its_inner_engine(self):
        """The profiler reaches the wrapped engine tier through
        ``SampledSimulator.simulate``'s forwarded keywords."""
        app = make_app("gemm", scale="tiny")
        __, report = profile_simulation(
            SampledSimulator(SwiftSimBasic(make_tiny_gpu())), app
        )
        assert report.profiler.total_dispatches > 0
        assert any(name.startswith("sm") for name in report.profiler.stats)

    def test_interval_simulator_has_no_checker_hook(self):
        """The analytical interval model has no engine: it ignores the
        checker and the report degrades to phases-only."""
        app = make_app("gemm", scale="tiny")
        result, report = profile_simulation(IntervalSimulator(make_tiny_gpu()), app)
        assert result.total_cycles > 0
        assert report.profiler.stats == {}
        assert report.jump_efficiency == 0.0
        text = report.render()
        assert "gemm" in text

    def test_render_contains_table(self):
        app = make_app("gemm", scale="tiny")
        __, report = profile_simulation(
            SwiftSimBasic(make_tiny_gpu()), app, gather_metrics=False
        )
        text = report.render()
        assert "jump efficiency" in text
        assert "module" in text and "ticks" in text and "jump-eff" in text
        assert "phase (kernel)" in text


class TestProfileCli:
    @pytest.fixture
    def tiny_config_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        save_gpu_config(make_tiny_gpu(), path)
        return str(path)

    def test_profile_text_report(self, capsys, tiny_config_path):
        assert main([
            "profile", "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "profile: gemm x swift-basic" in out
        assert "jump efficiency" in out

    def test_profile_json_and_artifact(self, capsys, tmp_path, tiny_config_path):
        json_path = tmp_path / "profile.json"
        assert main([
            "profile", "--app", "gemm", "--scale", "tiny",
            "--config", tiny_config_path,
            "--json", str(json_path),
        ]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["run"]["app"] == "gemm"
        assert payload["totals"]["dispatches"] > 0

    def test_profile_unknown_app_is_config_error(self, tiny_config_path):
        assert main([
            "profile", "--app", "not-an-app", "--config", tiny_config_path,
        ]) == 2
