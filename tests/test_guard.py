"""Tests for :mod:`repro.guard`: the progress watchdog, the runtime
invariant guards and their forensic bundles.

A guarded run must be bit-identical to an unguarded one; the comparison
is the fast-path equivalence suite's
(:func:`repro.check.shadow.compare_results` with an *empty* ignore set).
The guard recovers nothing: a crashed or hung run is retried whole by
the supervisor.
"""

import json

import pytest

from repro.check.shadow import TICK_OBSERVER_COUNTERS, compare_results
from repro.cli import main
from repro.errors import (
    ConfigError,
    CycleBudgetExceeded,
    InvariantViolation,
    SimulationStall,
)
from repro.eval.harness import EvaluationHarness
from repro.frontend.config_io import save_gpu_config
from repro.guard import (
    GuardConfig,
    InvariantGuard,
    InvariantSaboteur,
    ProgressWatchdog,
    SimulationGuard,
    StallSaboteur,
    progress_signature,
)
from repro.memory.cache import SectoredCache
from repro.resilience.journal import RunJournal
from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu

SIMULATORS = (AccelSimLike, SwiftSimBasic, SwiftSimMemory)
NOTHING_IGNORED = frozenset()


def _guarded_run(simulator_cls, app, guard_config):
    gpu = make_tiny_gpu()
    simulator = simulator_cls(gpu)
    guard = SimulationGuard(
        guard_config,
        app_name=app.name,
        simulator_name=simulator.name,
        gpu_config=gpu,
    )
    return simulator.simulate(app, guard=guard), guard


def _assert_identical(subject, primary, shadow):
    findings = compare_results(subject, primary, shadow,
                                ignore_counters=NOTHING_IGNORED)
    assert not findings, "\n".join(f.message for f in findings)


class _Worker(ClockedModule):
    """Ticks for ``work`` cycles, bumping a progress counter each time."""

    component = "test_worker"

    def __init__(self, work, name="worker"):
        super().__init__(name)
        self.work = work

    def tick(self, cycle):
        if cycle >= self.work:
            return None
        self.counters["units_done"] += 1
        return cycle + 1

    def is_done(self):
        return True


class _Recorder(EngineChecker):
    def __init__(self):
        self.cycle_starts = []
        self.ticks = []

    def on_cycle_start(self, cycle):
        self.cycle_starts.append(cycle)

    def on_tick(self, module, cycle, rank):
        self.ticks.append((cycle, module.name))


# ---------------------------------------------------------------------------
# transparency


class TestGuardTransparency:
    def test_guarded_run_bit_identical_to_unguarded(self):
        """Watchdog + invariants armed must not perturb any engine tier."""
        app = make_app("sm", scale="tiny")
        for simulator_cls in SIMULATORS:
            baseline = simulator_cls(make_tiny_gpu()).simulate(app)
            guarded, guard = _guarded_run(
                simulator_cls, app,
                GuardConfig(watchdog=True, invariants=True, check_every=64),
            )
            assert not guard.bundles
            _assert_identical(f"{simulator_cls.__name__} guarded",
                              baseline, guarded)


# ---------------------------------------------------------------------------
# watchdog


class TestWatchdog:
    def test_stall_saboteur_detected_and_named(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        with pytest.raises(SimulationStall) as exc_info:
            _guarded_run(
                SwiftSimBasic, app,
                GuardConfig(watchdog=True, stall_window=1500, check_every=64,
                            bundle_dir=str(tmp_path), inject=("stall",)),
            )
        exc = exc_info.value
        assert "stall_saboteur" in exc.diagnosis["suspects"]
        assert exc.bundle_path
        assert "forensic bundle" in str(exc)

    def test_forensic_bundle_contents(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        gpu = make_tiny_gpu()
        simulator = SwiftSimBasic(gpu)
        guard = SimulationGuard(
            GuardConfig(watchdog=True, stall_window=1500, check_every=64,
                        bundle_dir=str(tmp_path), inject=("stall",)),
            app_name=app.name, simulator_name=simulator.name, gpu_config=gpu,
        )
        with pytest.raises(SimulationStall):
            simulator.simulate(app, guard=guard)
        (bundle,) = guard.bundles
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["kind"] == "stall"
        assert manifest["run"]["app"] == app.name
        assert manifest["run"]["config_hash"]
        assert manifest["run"]["kernel_index"] == 0
        modules = json.loads((bundle / "modules.json").read_text())
        names = {entry["name"] for entry in modules}
        assert "stall_saboteur" in names
        for entry in modules:
            assert "counters" in entry and "state" in entry
        trace_lines = (bundle / "trace_window.jsonl").read_text().splitlines()
        assert 0 < len(trace_lines) <= 64
        last = json.loads(trace_lines[-1])
        assert last["module"] == "stall_saboteur"

    def test_bundle_records_the_eval_journals_config_hash(self, tmp_path):
        """One config identity: a bundle can be matched to the
        ``repro eval`` journal (and the result store) of the same GPU."""
        config = tmp_path / "gpu.json"
        save_gpu_config(make_tiny_gpu(), config)
        common = ["--scale", "tiny", "--config", str(config)]
        journal = tmp_path / "sweep.journal"
        assert main(["eval", "--apps", "gemm", "--simulators", "swift-basic",
                     "--journal", str(journal), *common]) == 0
        bundles = tmp_path / "bundles"
        assert main(["guard", "--app", "gemm", "--simulator", "swift-basic",
                     "--stall-window", "1500", "--check-every", "64",
                     "--bundle-dir", str(bundles), "--inject", "stall",
                     *common]) == 2
        (manifest,) = bundles.glob("bundle_stall_c*/manifest.json")
        with RunJournal.load(str(journal)) as loaded:
            expected = loaded.header["config_hash"]
        assert json.loads(manifest.read_text())["run"]["config_hash"] == expected

    def test_watchdog_tolerates_idle_jump_gaps(self):
        """A jump-clocked engine skipping a quiet region is not a stall."""
        engine = Engine(allow_jump=True)
        worker = _Worker(work=40)
        engine.add(worker)
        late = _Worker(work=50_100, name="late")

        def late_tick(cycle):
            if cycle >= 50_100:
                return None
            if cycle < 50_000:
                return 50_000
            late.counters["units_done"] += 1
            return cycle + 1

        late.tick = late_tick
        engine.add(late)
        watchdog = ProgressWatchdog(engine, stall_window=1_000,
                                    check_every=64)
        engine.attach_checker(watchdog)
        final = engine.run(max_cycles=100_000)
        assert final >= 50_000  # jumped the gap without a false stall

    def test_progress_signature_ignores_tick_observers(self):
        engine = Engine()
        worker = _Worker(work=4)
        engine.add(worker)
        engine.run(max_cycles=100)
        before = progress_signature(engine)
        worker.counters["idle_cycles"] += 1000
        assert progress_signature(engine) == before
        worker.counters["units_done"] += 1
        assert progress_signature(engine) == before + 1

    def test_ignored_counters_in_sync_with_shadow_pillar(self):
        """The progress signature skips every counter the shadow-jump
        pillar skips, and still counts architectural progress."""
        engine = Engine()
        worker = _Worker(work=4)
        engine.add(worker)
        engine.run(max_cycles=100)
        before = progress_signature(engine)
        for name in TICK_OBSERVER_COUNTERS:
            worker.counters[name] += 7
        assert progress_signature(engine) == before
        worker.counters["units_done"] += 1
        assert progress_signature(engine) == before + 1


# ---------------------------------------------------------------------------
# invariant guards


class TestInvariantGuard:
    def test_violation_saboteur_detected(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        with pytest.raises(InvariantViolation) as exc_info:
            _guarded_run(
                SwiftSimBasic, app,
                GuardConfig(invariants=True, check_every=64,
                            bundle_dir=str(tmp_path), inject=("violation",)),
            )
        exc = exc_info.value
        assert exc.module_name == "invariant_saboteur"
        assert exc.bundle_path
        manifest = json.loads(
            (list(tmp_path.iterdir())[0] / "manifest.json").read_text()
        )
        assert manifest["kind"] == "invariant"
        assert manifest["diagnosis"]["module"] == "invariant_saboteur"

    def test_clean_modules_raise_nothing(self):
        """Real simulator invariants hold on an ordinary run."""
        app = make_app("bfs", scale="tiny")
        result, guard = _guarded_run(
            SwiftSimMemory, app,
            GuardConfig(invariants=True, check_every=64),
        )
        assert result.total_cycles > 0
        assert not guard.bundles

    def test_cache_tag_store_corruption_detected(self):
        """Index <-> ways and pending <-> MSHR agreement, via the guard."""
        cache = SectoredCache(make_tiny_gpu().l1, name="l1_under_test")
        owner = _Worker(work=1)
        owner.add_child(cache)
        engine = Engine()
        engine.add(owner)
        guard = InvariantGuard(engine)
        cache.access(0x10, 0, False, cycle=0)   # resident, fill in flight
        cache.access(0x20, 1, True, cycle=0)
        guard.check_now(0)  # healthy

        line = cache._index.pop(0x10)           # index forgets a resident line
        with pytest.raises(InvariantViolation) as exc_info:
            guard.check_now(1)
        assert exc_info.value.module_name == "l1_under_test"
        assert "index does not map back" in str(exc_info.value)

        cache._index[0x10] = line
        guard.check_now(2)
        entry = cache._mshr.pop((0x10, 0))      # pending bit loses its MSHR entry
        assert "pending with no MSHR entry" in cache.invariants(3)[0]

        cache._mshr[(0x10, 0)] = entry
        line.pending_mask = 0                   # MSHR entry loses its pending bit
        assert "not resident and pending" in cache.invariants(4)[0]

    def test_module_invariants_default_empty(self):
        assert _Worker(work=1).invariants(0) == []

    def test_saboteur_invariant_message(self):
        saboteur = InvariantSaboteur(activate_at=0, capacity=4)
        saboteur.tick(0)
        messages = saboteur.invariants(1)
        assert messages and "capacity" in messages[0]


# ---------------------------------------------------------------------------
# engine: cycle budget + on_cycle_start hook


class TestEngineGuardHooks:
    def _wedged_engine(self):
        engine = Engine()
        engine.add(StallSaboteur(activate_at=0))
        return engine

    def test_fast_loop_raises_cycle_budget(self):
        engine = self._wedged_engine()
        with pytest.raises(CycleBudgetExceeded) as exc_info:
            engine.run(max_cycles=200)
        exc = exc_info.value
        assert exc.budget == 200
        assert exc.cycle > 200
        assert exc.module_name == "stall_saboteur"

    def test_checked_loop_raises_cycle_budget(self):
        engine = self._wedged_engine()
        engine.attach_checker(_Recorder())
        with pytest.raises(CycleBudgetExceeded) as exc_info:
            engine.run(max_cycles=200)
        assert exc_info.value.module_name == "stall_saboteur"

    def test_on_cycle_start_fires_once_per_cycle_boundary(self):
        engine = Engine()
        engine.add(_Worker(work=10))
        recorder = _Recorder()
        engine.attach_checker(recorder)
        engine.run(max_cycles=1000)
        starts = recorder.cycle_starts
        assert starts == sorted(set(starts)), "strictly increasing, no dups"
        # Every ticked cycle after the first was announced before its ticks.
        ticked_cycles = sorted({cycle for cycle, __ in recorder.ticks})
        assert set(ticked_cycles[1:]) <= set(starts)


# ---------------------------------------------------------------------------
# harness wiring


class TestHarnessIntegration:
    def test_stall_lands_as_failure_record(self):
        class _Wedged(SwiftSimBasic):
            """Every run meets an injected stall saboteur."""

            def simulate(self, app, **kwargs):
                guard = SimulationGuard(GuardConfig(
                    watchdog=True, stall_window=1500, check_every=64,
                    inject=("stall",),
                ))
                return super().simulate(app, guard=guard, **kwargs)

        harness = EvaluationHarness(make_tiny_gpu(), scale="tiny",
                                    apps=["gemm"])
        suite = harness.evaluate(
            {"swift-basic": _Wedged(make_tiny_gpu())},
            failure_policy="degrade",
        )
        assert suite.is_partial
        (failure,) = suite.failures
        assert failure.error_type == "SimulationStall"
        assert failure.simulator == "swift-basic"

    def test_cycle_budget_lands_as_failure_record(self):
        class _BudgetBlower(SwiftSimBasic):
            def simulate(self, app, **kwargs):
                raise CycleBudgetExceeded(100, 101, "sm0")

        harness = EvaluationHarness(make_tiny_gpu(), scale="tiny",
                                    apps=["gemm"])
        suite = harness.evaluate(
            {"blower": _BudgetBlower(make_tiny_gpu())},
            failure_policy="degrade",
        )
        (failure,) = suite.failures
        assert failure.error_type == "CycleBudgetExceeded"
        assert "exceeded" in failure.message or "budget" in failure.message


# ---------------------------------------------------------------------------
# config


class TestGuardConfig:
    def test_inactive_by_default(self):
        assert not GuardConfig().active

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError):
            GuardConfig(inject=("meteor",))

