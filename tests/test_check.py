"""Tests for the `repro.check` sanitizer & differential-verification
subsystem."""

import json
from collections import Counter

import pytest

from repro.check import (
    CheckFinding,
    CheckReport,
    EngineSanitizer,
    MODES,
    TICK_OBSERVER_COUNTERS,
    differential_check,
    determinism_check,
    run_checks,
    select_apps,
    shadow_jump_check,
)
from repro.check.shadow import compare_results
from repro.errors import CheckError, SimulationError
from repro.frontend.presets import get_preset
from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.results import KernelResult, SimulationResult
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import app_names, make_app


# ----------------------------------------------------------------------
# engine sanitizer


class _Stepper(ClockedModule):
    """Ticks ``count`` times with the given stride."""

    def __init__(self, name, count, stride=1):
        super().__init__(name)
        self.remaining = count
        self.stride = stride

    def tick(self, cycle):
        self.remaining -= 1
        if self.remaining == 0:
            return None
        return cycle + self.stride

    def is_done(self):
        return self.remaining <= 0


class TestEngineSanitizer:
    def test_clean_engine_run_has_no_findings(self):
        engine = Engine()
        sanitizer = EngineSanitizer()
        engine.attach_checker(sanitizer)
        engine.add(_Stepper("a", 3, stride=2))
        engine.add(_Stepper("b", 5, stride=1))
        engine.run()
        assert sanitizer.ok
        assert sanitizer.ticks_observed == 8

    def test_clean_simulation_has_no_findings(self, tiny_gpu):
        app = make_app("gemm", scale="tiny")
        for cls in (AccelSimLike, SwiftSimBasic, SwiftSimMemory):
            sanitizer = EngineSanitizer(strict=True)  # raise on violation
            cls(tiny_gpu).simulate(app, gather_metrics=False, checker=sanitizer)
            assert sanitizer.ok
            assert sanitizer.ticks_observed > 0

    def test_wake_before_now_flagged(self):
        engine = Engine()
        sanitizer = EngineSanitizer()
        engine.attach_checker(sanitizer)
        target = _Stepper("target", 2, stride=50)

        class BadWaker(ClockedModule):
            def tick(self, cycle):
                if cycle == 10:
                    engine.wake(target, 5)  # 5 is already in the past
                    return None
                return 10

        engine.add(target)
        engine.add(BadWaker("bad"))
        engine.run()
        assert not sanitizer.ok
        assert any("past cycle 5" in f.message for f in sanitizer.findings)

    def test_wake_before_now_strict_raises(self):
        engine = Engine()
        engine.attach_checker(EngineSanitizer(strict=True))
        target = _Stepper("target", 2, stride=50)

        class BadWaker(ClockedModule):
            def tick(self, cycle):
                if cycle == 10:
                    engine.wake(target, 5)
                    return None
                return 10

        engine.add(target)
        engine.add(BadWaker("bad"))
        with pytest.raises(CheckError, match="past cycle"):
            engine.run()

    def test_same_cycle_wake_is_exempt_from_ordering(self):
        """rank-0 module re-armed mid-cycle legally ticks after rank 1."""
        engine = Engine()
        sanitizer = EngineSanitizer()
        engine.attach_checker(sanitizer)
        sleeper_ticks = []

        class Sleeper(ClockedModule):
            def tick(self, cycle):
                sleeper_ticks.append(cycle)
                return None

        sleeper = Sleeper("sleeper")

        class Waker(ClockedModule):
            def tick(self, cycle):
                if cycle == 3:
                    engine.wake(sleeper, 3)  # same-cycle re-arm
                    return None
                return cycle + 3

        engine.add(sleeper)  # rank 0
        engine.add(Waker("waker"))  # rank 1
        engine.run()
        assert sleeper_ticks == [0, 3]
        assert sanitizer.ok

    def test_ordering_violation_detected_via_hooks(self):
        """Unit-level: rank going backwards within a cycle (without a
        same-cycle re-schedule) is the instability jumping must never
        introduce."""
        sanitizer = EngineSanitizer()
        a, b = _Stepper("a", 1), _Stepper("b", 1)
        sanitizer.on_tick(b, 7, 1)
        sanitizer.on_tick(a, 7, 0)  # rank 0 after rank 1, no re-schedule
        assert not sanitizer.ok
        assert "unstable same-cycle ordering" in sanitizer.findings[0].message

    def test_non_monotonic_tick_detected_via_hooks(self):
        sanitizer = EngineSanitizer()
        module = _Stepper("m", 1)
        sanitizer.on_tick(module, 10, 0)
        sanitizer.on_tick(module, 9, 0)
        assert any("non-monotonic" in f.message for f in sanitizer.findings)


class TestEngineWakeRegression:
    def test_wake_unregistered_module_raises_simulation_error(self):
        """Regression: used to escape as a bare KeyError."""
        engine = Engine()
        stranger = _Stepper("stranger", 1)
        with pytest.raises(SimulationError, match="never registered"):
            engine.wake(stranger, 5)

    def test_double_add_raises(self):
        engine = Engine()
        module = _Stepper("m", 1)
        engine.add(module)
        with pytest.raises(SimulationError, match="already registered"):
            engine.add(module)


# ----------------------------------------------------------------------
# shadow clocking


class TestShadowJump:
    @pytest.mark.parametrize("cls", [AccelSimLike, SwiftSimBasic, SwiftSimMemory])
    def test_shadow_passes_on_real_simulators(self, tiny_gpu, cls):
        findings = shadow_jump_check(cls(tiny_gpu), make_app("sm", scale="tiny"))
        assert [f for f in findings if f.severity == "violation"] == []
        assert any("bit-identical" in f.message for f in findings)

    def test_comparison_detects_cycle_mismatch(self):
        a = SimulationResult("app", "sim", "gpu", total_cycles=100)
        b = SimulationResult("app", "sim", "gpu", total_cycles=101)
        findings = compare_results("s", a, b)
        assert any("final cycle differs" in f.message for f in findings)

    def test_comparison_detects_kernel_mismatch(self):
        kernel_a = KernelResult("k", 0, 50, 10)
        kernel_b = KernelResult("k", 0, 60, 10)
        a = SimulationResult("app", "sim", "gpu", 60, kernels=[kernel_a])
        b = SimulationResult("app", "sim", "gpu", 60, kernels=[kernel_b])
        findings = compare_results("s", a, b)
        assert any("per-kernel" in f.message for f in findings)

    def test_comparison_detects_kernel_instruction_mismatch(self):
        # Same spans and the same total: only the split between the two
        # kernels' instruction counts differs.
        a = SimulationResult("app", "sim", "gpu", 60, kernels=[
            KernelResult("k0", 0, 30, 10), KernelResult("k1", 30, 60, 20),
        ])
        b = SimulationResult("app", "sim", "gpu", 60, kernels=[
            KernelResult("k0", 0, 30, 20), KernelResult("k1", 30, 60, 10),
        ])
        assert a.instructions == b.instructions
        findings = compare_results("s", a, b)
        assert [f.severity for f in findings] == ["violation"]
        assert "per-kernel" in findings[0].message

    def test_tick_observer_counters_are_declared(self):
        # The exemption list is a declared contract: these and only these
        # counter families may differ between clocking modes.
        assert "active_cycles" in TICK_OBSERVER_COUNTERS
        assert "sector_misses" not in TICK_OBSERVER_COUNTERS
        assert "instructions_committed" not in TICK_OBSERVER_COUNTERS


# ----------------------------------------------------------------------
# differential runner


class TestDifferential:
    def test_zero_violations_on_tiny_apps(self, tiny_gpu):
        for name in ("gemm", "sm"):
            findings = differential_check(tiny_gpu, make_app(name, scale="tiny"))
            assert [f for f in findings if f.severity == "violation"] == []

    def test_reports_divergence_as_info(self, tiny_gpu):
        findings = differential_check(tiny_gpu, make_app("gemm", scale="tiny"))
        assert any(
            "cycle divergence" in f.message and f.severity == "info"
            for f in findings
        )

    def test_tight_tolerance_reports_violation(self, tiny_gpu):
        findings = differential_check(
            tiny_gpu, make_app("bfs", scale="tiny"), tolerance=0.0001
        )
        assert any(
            "exceeds" in f.message and f.severity == "violation"
            for f in findings
        )


# ----------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_zero_violations(self, tiny_gpu):
        findings = determinism_check(
            tiny_gpu, ["gemm", "sm"], scale="tiny",
            simulator_classes=[SwiftSimBasic], workers=2,
        )
        assert [f for f in findings if f.severity == "violation"] == []
        assert any("bit-identical" in f.message for f in findings)
        assert any("serial, pooled, and harness" in f.message for f in findings)


# ----------------------------------------------------------------------
# report + runner


class TestCheckReport:
    def test_json_round_trip(self):
        report = CheckReport(mode="all", gpu_name="g", scale="tiny",
                             apps=["a"], simulators=["s"], checks_run=2)
        report.extend([
            CheckFinding("sanitizer", "violation", "m", "broken"),
            CheckFinding("shadow-jump", "info", "m", "fine"),
        ])
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["violations"] == 1
        assert len(data["findings"]) == 2
        assert data["findings"][0]["check"] == "sanitizer"

    def test_render_mentions_pass_fail(self):
        report = CheckReport(mode="all", gpu_name="g", scale="tiny")
        assert "PASS" in report.render()
        report.extend([CheckFinding("sanitizer", "violation", "m", "broken")])
        assert "FAIL" in report.render()

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            CheckFinding("sanitizer", "catastrophic", "m", "boom")


class TestRunner:
    def test_select_apps_by_suite(self):
        apps = select_apps(suite="mars")
        assert apps == ["sm", "wc"]

    def test_select_apps_unknown_suite(self):
        with pytest.raises(CheckError, match="unknown suite"):
            select_apps(suite="spec2017")

    def test_select_apps_unknown_app(self):
        with pytest.raises(CheckError, match="unknown application"):
            select_apps(apps=["doom"])

    def test_bench_conftest_uses_strict_selection(self, monkeypatch):
        """The benchmarks/ session resolves REPRO_BENCH_APPS through
        select_apps: a typo is a typed error, never a silently empty
        (and trivially green) session."""
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "bench_conftest",
            Path(__file__).parent.parent / "benchmarks" / "conftest.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setenv("REPRO_BENCH_APPS", "gemm,definitely-not-an-app")
        with pytest.raises(CheckError, match="definitely-not-an-app"):
            module.bench_apps()
        monkeypatch.setenv("REPRO_BENCH_APPS", " gemm, bfs ,")
        assert module.bench_apps() == ["gemm", "bfs"]
        monkeypatch.delenv("REPRO_BENCH_APPS")
        assert module.bench_apps() == list(app_names())

    def test_unknown_mode_rejected(self, tiny_gpu):
        with pytest.raises(CheckError, match="unknown check mode"):
            run_checks(tiny_gpu, mode="vibes")

    def test_all_modes_run_over_one_app(self, tiny_gpu):
        assert set(MODES) == {
            "shadow-jump", "differential", "determinism",
            "sanitize", "resilience", "static", "guard", "serve", "all"
        }
        report = run_checks(tiny_gpu, mode="all", apps=["gemm"], scale="tiny")
        assert report.ok, [f.message for f in report.violations]
        assert report.checks_run > 0
        checks_seen = {f.check for f in report.findings}
        assert {"shadow-jump", "differential",
                "determinism", "sanitizer", "resilience", "static",
                "guard"} <= checks_seen


# ----------------------------------------------------------------------
# where the ticks are (the measurement that retired the sharded engine)


class _ComponentTicks(EngineChecker):
    def __init__(self):
        self.ticks = Counter()

    def on_tick(self, module, cycle, rank):
        self.ticks[module.component] += 1


#: accel-like's exact (memory-side ticks, all ticks) at ``tiny``: 88.2 %
#: and 50.2 % -- a two-way cut is bounded by all / busier side, 1.13x
#: and 1.99x.
ACCEL_LIKE_MEMORY_SIDE_TICKS = {"bfs": (13_350, 15_131), "gemm": (966, 1_923)}


@pytest.mark.parametrize("app_name", sorted(ACCEL_LIKE_MEMORY_SIDE_TICKS))
@pytest.mark.parametrize(
    "simulator_cls", [AccelSimLike, SwiftSimBasic, SwiftSimMemory],
    ids=lambda cls: cls.__name__,
)
def test_memory_side_tick_share_under_the_two_way_cut(simulator_cls, app_name):
    """Pins the measurement behind the removal of the sharded engine
    (docs/parallel-engine.md): cut at SM | memory, the hybrid tiers --
    the simulators the paper is about -- clock nothing on the memory
    side, so no parallel schedule of their graph beats 1.00x.  The
    cycle-accurate baseline does tick its memory side; its share is
    pinned exactly, as measured once SMs that hold no block stopped
    padding the denominator.  If this fails, re-measure the table in the
    doc and re-pin; there is no threshold here to loosen."""
    counter = _ComponentTicks()
    simulator_cls(get_preset("rtx2080ti")).simulate(
        make_app(app_name, scale="tiny"), gather_metrics=False, checker=counter
    )
    ticks = counter.ticks
    total = sum(ticks.values())
    if simulator_cls is AccelSimLike:
        assert set(ticks) == {"sm", "memory"}
        assert (ticks["memory"], total) == ACCEL_LIKE_MEMORY_SIDE_TICKS[app_name]
    else:
        assert set(ticks) == {"sm"} and total > 0
