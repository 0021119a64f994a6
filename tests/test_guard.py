"""Tests for :mod:`repro.guard`: watchdog, invariant guards, and
mid-run checkpoint/restore.

The headline property — snapshot at a checkpoint boundary, kill,
restore, run to the end, and land bit-identical to an uninterrupted run
— reuses the same differential comparison as the fast-path equivalence
suite (:func:`repro.check.shadow.compare_results` with an *empty*
ignore set).
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.shadow import TICK_OBSERVER_COUNTERS, compare_results
from repro.errors import (
    CheckpointCorruption,
    CheckpointError,
    ConfigError,
    CycleBudgetExceeded,
    InvariantViolation,
    SimulationInterrupted,
    SimulationStall,
)
from repro.eval.harness import EvaluationHarness
from repro.guard import (
    GuardConfig,
    InvariantGuard,
    InvariantSaboteur,
    PROGRESS_IGNORED_COUNTERS,
    ProgressWatchdog,
    SimulationGuard,
    StallSaboteur,
    checkpoint_name,
    find_resumable,
    list_checkpoints,
    progress_signature,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.cache import SectoredCache
from repro.resilience.chaos import ChaosPlan
from repro.resilience.supervisor import Task
from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.parallel import _guarded_task, _simulate_one_guarded
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu

SIMULATORS = (AccelSimLike, SwiftSimBasic, SwiftSimMemory)
NOTHING_IGNORED = frozenset()


def _guarded_run(simulator_cls, app, guard_config, auto_resume=False):
    gpu = make_tiny_gpu()
    simulator = simulator_cls(gpu)
    guard = SimulationGuard(
        guard_config,
        app_name=app.name,
        simulator_name=simulator.name,
        gpu_config=gpu,
        auto_resume=auto_resume,
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
# checkpoint/restore determinism (the tentpole contract)


class TestCheckpointResumeDeterminism:
    @pytest.mark.parametrize("simulator_cls", SIMULATORS,
                             ids=lambda cls: cls.__name__)
    def test_kill_and_resume_bit_identical(self, simulator_cls, tmp_path):
        """Interrupt at the first checkpoint, resume, finish identical."""
        app = make_app("gemm", scale="tiny")
        baseline = simulator_cls(make_tiny_gpu()).simulate(app)
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        with pytest.raises(SimulationInterrupted) as exc_info:
            _guarded_run(simulator_cls, app,
                         template.with_(stop_after_checkpoints=1))
        assert os.path.exists(exc_info.value.checkpoint_path)
        resumed, guard = _guarded_run(simulator_cls, app, template,
                                      auto_resume=True)
        _assert_identical(
            f"{simulator_cls.__name__} resume", baseline, resumed,
        )

    @settings(max_examples=4, deadline=None)
    @given(every=st.integers(min_value=64, max_value=1200))
    def test_resume_determinism_any_checkpoint_cycle(self, every, tmp_path_factory):
        """Property: wherever the checkpoint lands, resume is exact."""
        tmp_path = tmp_path_factory.mktemp("ckpt")
        app = make_app("bfs", scale="tiny")
        baseline = SwiftSimMemory(make_tiny_gpu()).simulate(app)
        template = GuardConfig(checkpoint_every=every,
                               checkpoint_dir=str(tmp_path))
        with pytest.raises(SimulationInterrupted):
            _guarded_run(SwiftSimMemory, app,
                         template.with_(stop_after_checkpoints=1))
        resumed, __ = _guarded_run(SwiftSimMemory, app, template,
                                   auto_resume=True)
        _assert_identical(f"resume@{every}", baseline, resumed)

    def test_resume_without_checkpoint_runs_fresh(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        baseline = SwiftSimBasic(make_tiny_gpu()).simulate(app)
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        resumed, __ = _guarded_run(SwiftSimBasic, app, template,
                                   auto_resume=True)
        _assert_identical("fresh-under-resume", baseline, resumed)

    def test_guarded_run_bit_identical_to_unguarded(self, tmp_path):
        """Watchdog + invariants + checkpointer must not perturb."""
        app = make_app("sm", scale="tiny")
        baseline = SwiftSimMemory(make_tiny_gpu()).simulate(app)
        guarded, guard = _guarded_run(
            SwiftSimMemory, app,
            GuardConfig(watchdog=True, invariants=True, check_every=64,
                        checkpoint_every=400, checkpoint_dir=str(tmp_path)),
        )
        assert guard.checkpoints_written > 0
        _assert_identical("guard-transparency", baseline, guarded)

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        """A bfs run must not silently resume from a gemm checkpoint."""
        app = make_app("gemm", scale="tiny")
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        with pytest.raises(SimulationInterrupted):
            _guarded_run(SwiftSimBasic, app,
                         template.with_(stop_after_checkpoints=1))
        gpu = make_tiny_gpu()
        simulator = SwiftSimBasic(gpu)
        guard = SimulationGuard(template, app_name="bfs",
                                simulator_name=simulator.name,
                                gpu_config=gpu, auto_resume=True)
        with pytest.raises(CheckpointError, match="written by"):
            guard.load_resume()


class TestTornCheckpoints:
    def _write(self, directory, cycle=500, payload=None, meta=None):
        return write_checkpoint(
            directory, cycle,
            payload if payload is not None else {"value": list(range(8))},
            meta if meta is not None else {"app": "gemm"},
        )

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, cycle=500)
        meta, payload = read_checkpoint(path)
        assert meta["cycle"] == 500
        assert payload == {"value": list(range(8))}
        assert path.name == checkpoint_name(500)

    def test_truncated_checkpoint_is_corrupt(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruption):
            read_checkpoint(path)

    def test_bit_flipped_payload_is_corrupt(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruption, match="digest|torn"):
            read_checkpoint(path)

    def test_find_resumable_skips_torn_newest(self, tmp_path):
        """Torn newest checkpoint falls back to the older intact one —
        the same newest-intact-wins policy as the run journal."""
        self._write(tmp_path, cycle=500, meta={"app": "gemm", "n": 1})
        newest = self._write(tmp_path, cycle=1000, meta={"app": "gemm", "n": 2})
        newest.write_bytes(newest.read_bytes()[:40])
        found = find_resumable(tmp_path)
        assert found is not None
        path, meta, __ = found
        assert meta["cycle"] == 500

    def test_find_resumable_empty_when_all_torn(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(b"REPROCKPT1\ngarbage")
        assert find_resumable(tmp_path) is None

    def test_stale_format_version_is_refused_by_name(self, tmp_path):
        """An intact checkpoint from an earlier format (its pickled
        engine has another instance shape: version 1 carried
        ``Engine.config``, version 2 a sharded-engine attribute this
        build no longer has, version 3 ``OpcodeInfo`` objects without the
        stored ``is_memory`` field, version 4 ``SubCore`` objects without
        ``quiet_until`` and the sink table, version 5 possibly a sharded
        engine, a class this build cannot even import, version 6
        ``Counters`` objects with an ``_adds`` slot this build's dict
        subclass does not have, version 7 ``SMCore`` objects with a
        tick-while-empty flag, version 8 address tuples and a
        rejected-instruction memo keyed on them) is
        refused on the meta line, before anything is unpickled, and
        resume falls back past every such file."""
        self._write(tmp_path, cycle=500)
        current = b'"format_version": 9'
        for cycle, version in (
            (1000, 1), (1500, 2), (2000, 3), (2500, 4), (3000, 5), (3500, 6),
            (4000, 7), (4500, 8),
        ):
            stale = self._write(tmp_path, cycle=cycle)
            assert stale.read_bytes().count(current) == 1
            stale.write_bytes(stale.read_bytes().replace(
                current, b'"format_version": %d' % version))
            with pytest.raises(
                CheckpointCorruption,
                match=rf"format version {version} \(this build reads 9\)",
            ):
                read_checkpoint(stale)
        path, meta, __ = find_resumable(tmp_path)
        assert meta["cycle"] == 500
        path.unlink()
        assert find_resumable(tmp_path) is None

    def test_format_version_moves_with_the_pickled_field_layout(self):
        """Every instance field of a pickled class is file format.  The
        layout is pinned beside the version it was recorded for: a field
        added, removed or renamed without a version bump fails here (v4
        -> v5 was forgotten once and every other test stayed green), and
        so does a bump that was not re-pinned."""
        import checkpoint_layout
        from repro.guard import FORMAT_VERSION

        pinned = checkpoint_layout.pinned()
        live = checkpoint_layout.current_layout()
        moved = sorted(
            name for name in pinned["classes"].keys() | live.keys()
            if pinned["classes"].get(name) != live.get(name)
        )
        assert FORMAT_VERSION == pinned["format_version"], (
            f"FORMAT_VERSION is {FORMAT_VERSION} but the layout is pinned "
            f"for {pinned['format_version']}: re-pin with "
            f"`PYTHONPATH=src python tests/checkpoint_layout.py`"
        )
        assert not moved, (
            f"pickled field layout of {', '.join(moved)} changed: bump "
            f"FORMAT_VERSION in guard/checkpoint.py (old checkpoints "
            f"would unpickle into the wrong shape), extend "
            f"test_stale_format_version_is_refused_by_name, then re-pin "
            f"with `PYTHONPATH=src python tests/checkpoint_layout.py`"
        )

    def test_prune_keeps_newest(self, tmp_path):
        for cycle in (100, 200, 300, 400):
            self._write(tmp_path, cycle=cycle)
        template = GuardConfig(checkpoint_every=100,
                               checkpoint_dir=str(tmp_path),
                               keep_checkpoints=2)
        from repro.guard import prune_checkpoints

        prune_checkpoints(tmp_path, template.keep_checkpoints)
        remaining = [p.name for p in list_checkpoints(tmp_path)]
        assert remaining == [checkpoint_name(300), checkpoint_name(400)]

    def test_torn_checkpoint_degrades_to_fresh_run(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        baseline = SwiftSimBasic(make_tiny_gpu()).simulate(app)
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path),
                               keep_checkpoints=1)
        with pytest.raises(SimulationInterrupted):
            _guarded_run(SwiftSimBasic, app,
                         template.with_(stop_after_checkpoints=1))
        (only,) = list_checkpoints(tmp_path)
        only.write_bytes(only.read_bytes()[:64])
        resumed, __ = _guarded_run(SwiftSimBasic, app, template,
                                   auto_resume=True)
        _assert_identical("torn-fallback", baseline, resumed)


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
        modules = json.loads((bundle / "modules.json").read_text())
        names = {entry["name"] for entry in modules}
        assert "stall_saboteur" in names
        for entry in modules:
            assert "counters" in entry and "state" in entry
        trace_lines = (bundle / "trace_window.jsonl").read_text().splitlines()
        assert 0 < len(trace_lines) <= 64
        last = json.loads(trace_lines[-1])
        assert last["module"] == "stall_saboteur"

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
        """The guard's textual copy must match repro.check's set (the
        guard cannot import it — layering — so a test enforces sync)."""
        assert PROGRESS_IGNORED_COUNTERS == TICK_OBSERVER_COUNTERS


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
# harness + supervisor wiring


class TestHarnessIntegration:
    def test_stall_lands_as_failure_record(self):
        harness = EvaluationHarness(make_tiny_gpu(), scale="tiny",
                                    apps=["gemm"])
        suite = harness.evaluate(
            {"swift-basic": SwiftSimBasic(make_tiny_gpu())},
            failure_policy="degrade",
            guard=GuardConfig(watchdog=True, stall_window=1500,
                              check_every=64, inject=("stall",)),
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

    def test_harness_guarded_resume_matches_clean(self, tmp_path):
        """An interrupted harness pair resumes mid-kernel on re-evaluate."""
        gpu = make_tiny_gpu()
        clean = EvaluationHarness(gpu, scale="tiny", apps=["gemm"]).evaluate(
            {"swift-basic": SwiftSimBasic(gpu)},
        )
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        harness = EvaluationHarness(gpu, scale="tiny", apps=["gemm"])
        first = harness.evaluate(
            {"swift-basic": SwiftSimBasic(gpu)},
            failure_policy="degrade",
            guard=template.with_(stop_after_checkpoints=1),
        )
        assert first.is_partial
        assert first.failures[0].error_type == "SimulationInterrupted"
        second = harness.evaluate(
            {"swift-basic": SwiftSimBasic(gpu)},
            failure_policy="degrade",
            guard=template,
        )
        assert not second.failures
        assert (second.rows[0].cycles["swift-basic"]
                == clean.rows[0].cycles["swift-basic"])


class TestSupervisorWiring:
    def test_task_attempt_args_default_is_static(self):
        task = Task(key="t", fn=len, args=("abc",))
        assert task.attempt_args(1) == ("abc",)
        assert task.attempt_args(3) == ("abc",)

    def test_guarded_task_flips_resume_on_retry(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        simulator = SwiftSimBasic(make_tiny_gpu())
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        task = _guarded_task(simulator, app, template, chaos=None)
        first = task.attempt_args(1)
        retry = task.attempt_args(2)
        assert first[-1] is False and retry[-1] is True
        # Per-run checkpoint dir is nested per (app, simulator).
        assert first[-2].checkpoint_dir.endswith(
            f"{app.name}_{simulator.name}"
        )

    def test_guarded_task_applies_chaos_sim_faults(self, tmp_path):
        app = make_app("gemm", scale="tiny")
        simulator = SwiftSimBasic(make_tiny_gpu())
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        chaos = ChaosPlan(seed=7, stall_rate=1.0)
        task = _guarded_task(simulator, app, template, chaos=chaos)
        cfg = task.attempt_args(1)[-2]
        assert cfg.inject == ("stall",)

    def test_worker_entry_resumes_from_checkpoint(self, tmp_path):
        """The exact function shipped to worker processes resumes."""
        app = make_app("gemm", scale="tiny")
        gpu = make_tiny_gpu()
        baseline = SwiftSimBasic(gpu).simulate(app, gather_metrics=False)
        template = GuardConfig(checkpoint_every=500,
                               checkpoint_dir=str(tmp_path))
        base = (SwiftSimBasic, gpu, SwiftSimBasic.plan, "cache_sim", app)
        with pytest.raises(SimulationInterrupted):
            _simulate_one_guarded(
                *base, template.with_(stop_after_checkpoints=1), False,
            )
        resumed = _simulate_one_guarded(*base, template, True)
        assert resumed.total_cycles == baseline.total_cycles


# ---------------------------------------------------------------------------
# config + chaos plan


class TestGuardConfig:
    def test_inactive_by_default(self):
        assert not GuardConfig().active

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ConfigError):
            GuardConfig(checkpoint_every=100)

    def test_stop_after_requires_checkpointing(self):
        with pytest.raises(ConfigError):
            GuardConfig(stop_after_checkpoints=1)

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError):
            GuardConfig(inject=("meteor",))

    def test_with_replaces(self, tmp_path):
        base = GuardConfig(watchdog=True)
        derived = base.with_(checkpoint_every=100,
                             checkpoint_dir=str(tmp_path))
        assert derived.watchdog and derived.checkpoint_every == 100
        assert base.checkpoint_every == 0


class TestChaosSimFaults:
    def test_decide_sim_deterministic(self):
        plan = ChaosPlan(seed=11, stall_rate=0.5, violation_rate=0.3)
        draws = [plan.decide_sim("bfs", attempt) for attempt in range(1, 9)]
        assert draws == [plan.decide_sim("bfs", a) for a in range(1, 9)]
        assert any(d is not None for d in draws)

    def test_decide_sim_independent_of_process_rates(self):
        quiet = ChaosPlan(seed=11, stall_rate=0.5)
        noisy = ChaosPlan(seed=11, stall_rate=0.5, crash_rate=0.9)
        for attempt in range(1, 9):
            assert (quiet.decide_sim("gemm", attempt)
                    == noisy.decide_sim("gemm", attempt))

    def test_decide_sim_inactive_returns_none(self):
        assert ChaosPlan(seed=11, crash_rate=0.5).decide_sim("bfs") is None

    def test_sim_rates_validated(self):
        with pytest.raises(ConfigError):
            ChaosPlan(stall_rate=0.7, violation_rate=0.5)
