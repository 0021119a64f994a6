"""Unit tests for the framework core: modules, counters, engine, plans,
metrics."""

import copy
import pickle
import warnings

import pytest

from repro.core.block_scheduler import BlockScheduler
from repro.core.sm import SMCore
from repro.errors import CounterKindError, MetricsError, PlanError, SimulationError
from repro.sim.engine import ClockedModule, Engine
from repro.sim.metrics import DuplicateModuleNameWarning, MetricsGatherer
from repro.sim.module import Counters, ModelLevel, Module
from repro.sim.plan import (
    ACCEL_LIKE_PLAN,
    COMPONENTS,
    SWIFT_BASIC_PLAN,
    SWIFT_MEMORY_PLAN,
    ModelingPlan,
)
from repro.simulators.accel_like import AccelSimLike
from repro.tracegen.suites import make_app


class TestCounters:
    def test_add_and_get(self):
        counters = Counters()
        counters["x"] += 1
        counters["x"] += 4
        assert counters.get("x") == 5
        assert counters.get("missing") == 0

    def test_peak(self):
        counters = Counters()
        counters.peak("depth", 3)
        counters.peak("depth", 1)
        counters.peak("depth", 7)
        assert counters.get("depth") == 7

    def test_reset_and_contains(self):
        counters = Counters()
        counters["x"] += 1
        assert "x" in counters
        counters.reset()
        assert "x" not in counters

    def test_as_dict_is_snapshot(self):
        counters = Counters()
        counters["x"] += 1
        snapshot = counters.as_dict()
        counters["x"] += 1
        assert snapshot == {"x": 1}

    def test_counting_zero_creates_the_name_and_reading_does_not(self):
        """``+= 0`` is a first touch (a stall counter that never stalled
        still reports 0); looking at a name is not."""
        counters = Counters()
        assert counters["never"] == 0 and counters.get("never") == 0
        assert "never" not in counters and counters.as_dict() == {}
        counters["stall_cycles"] += 0
        assert "stall_cycles" in counters
        assert counters.as_dict() == {"stall_cycles": 0}

    def test_as_dict_lists_adds_in_first_touch_order_then_peaks(self):
        counters = Counters()
        counters.peak("depth", 2)
        counters["b"] += 1
        counters["a"] += 1
        counters.peak("width", 9)
        counters["b"] += 1
        assert list(counters.as_dict().items()) == [
            ("b", 2), ("a", 1), ("depth", 2), ("width", 9),
        ]
        assert list(counters) == ["b", "a", "depth", "width"]

    @pytest.mark.parametrize("clone", (
        copy.deepcopy,
        lambda counters: pickle.loads(pickle.dumps(counters)),
        lambda counters: pickle.loads(
            pickle.dumps(counters, pickle.HIGHEST_PROTOCOL)),
    ), ids=("deepcopy", "pickle-default", "pickle-highest"))
    def test_copies_keep_both_kinds(self, clone):
        counters = Counters()
        counters["issued"] += 3
        counters.peak("occupancy", 5)
        twin = clone(counters)
        assert type(twin) is Counters and twin.as_dict() == counters.as_dict()
        twin["issued"] += 1
        twin.peak("occupancy", 8)
        assert twin.as_dict() == {"issued": 4, "occupancy": 8}
        assert counters.as_dict() == {"issued": 3, "occupancy": 5}
        with pytest.raises(CounterKindError):
            twin["occupancy"] += 1
        with pytest.raises(CounterKindError):
            twin.peak("issued", 1)

    def test_add_then_peak_on_one_name_raises(self):
        counters = Counters()
        counters["issued"] += 1
        with pytest.raises(CounterKindError):
            counters.peak("issued", 5)

    def test_peak_then_add_on_one_name_raises(self):
        counters = Counters()
        counters.peak("occupancy", 3)
        with pytest.raises(CounterKindError):
            counters["occupancy"] += 1

    def test_same_kind_reuse_is_fine(self):
        counters = Counters()
        counters["issued"] += 2
        counters["issued"] += 3
        counters.peak("occupancy", 1)
        counters.peak("occupancy", 4)
        assert counters.get("issued") == 5
        assert counters.get("occupancy") == 4

    def test_reset_forgets_kinds(self):
        counters = Counters()
        counters["issued"] += 1
        counters.reset()
        counters.peak("issued", 7)
        assert counters.get("issued") == 7


class TestModuleTree:
    def test_walk_depth_first(self):
        root = Module("root")
        child = root.add_child(Module("child"))
        child.add_child(Module("grandchild"))
        assert [m.name for m in root.walk()] == ["root", "child", "grandchild"]

    def test_reset_clears_subtree_counters(self):
        root = Module("root")
        child = root.add_child(Module("child"))
        child.counters["x"] += 1
        root.reset()
        assert child.counters.get("x") == 0

    def test_repr_mentions_level(self):
        assert "cycle_accurate" in repr(Module("m"))


class _Countdown(ClockedModule):
    """Ticks ``n`` times, stepping by ``stride`` cycles."""

    def __init__(self, name, ticks, stride=1):
        super().__init__(name)
        self.remaining = ticks
        self.stride = stride
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        self.remaining -= 1
        if self.remaining == 0:
            return None
        return cycle + self.stride

    def is_done(self):
        return self.remaining == 0


class TestEngine:
    def test_single_module_runs_to_completion(self):
        engine = Engine()
        module = _Countdown("m", ticks=3)
        engine.add(module)
        final = engine.run()
        assert module.tick_cycles == [0, 1, 2]
        assert final == 2

    def test_event_jump_skips_cycles(self):
        engine = Engine(allow_jump=True)
        module = _Countdown("m", ticks=3, stride=100)
        engine.add(module)
        assert engine.run() == 200
        assert module.tick_cycles == [0, 100, 200]

    def test_per_cycle_mode_clamps_jumps(self):
        engine = Engine(allow_jump=False)
        module = _Countdown("m", ticks=3, stride=100)
        engine.add(module)
        engine.run()
        assert module.tick_cycles == [0, 1, 2]

    def test_two_modules_interleave_deterministically(self):
        engine = Engine()
        a = _Countdown("a", ticks=2, stride=2)
        b = _Countdown("b", ticks=3, stride=1)
        engine.add(a)
        engine.add(b)
        engine.run()
        assert a.tick_cycles == [0, 2]
        assert b.tick_cycles == [0, 1, 2]

    def test_max_cycles_raises(self):
        class Forever(ClockedModule):
            def tick(self, cycle):
                return cycle + 1

            def is_done(self):
                return False

        engine = Engine()
        engine.add(Forever("f"))
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run(max_cycles=50)

    def test_non_advancing_module_raises(self):
        class Stuck(ClockedModule):
            def tick(self, cycle):
                return cycle

        engine = Engine()
        engine.add(Stuck("s"))
        with pytest.raises(SimulationError, match="non-advancing"):
            engine.run()

    def test_idle_module_with_work_outstanding_raises(self):
        class Liar(ClockedModule):
            def tick(self, cycle):
                return None

            def is_done(self):
                return False

        engine = Engine()
        engine.add(Liar("liar"))
        with pytest.raises(SimulationError, match="outstanding"):
            engine.run()

    def test_wake_rearms_idle_module(self):
        class Sleeper(ClockedModule):
            def __init__(self):
                super().__init__("sleeper")
                self.ticks = []
                self.armed = False

            def tick(self, cycle):
                self.ticks.append(cycle)
                return None  # go idle immediately

            def is_done(self):
                return True

        class Waker(ClockedModule):
            def __init__(self, engine, sleeper):
                super().__init__("waker")
                self.engine = engine
                self.sleeper = sleeper

            def tick(self, cycle):
                if cycle == 5:
                    self.engine.wake(self.sleeper, 7)
                    return None
                return cycle + 5

        engine = Engine()
        sleeper = Sleeper()
        engine.add(sleeper)
        engine.add(Waker(engine, sleeper))
        engine.run()
        assert sleeper.ticks == [0, 7]

    def test_wake_earlier_supersedes_later_schedule(self):
        engine = Engine()
        module = _Countdown("m", ticks=2, stride=100)
        engine.add(module)
        # Before running, supersede the start-at-0 schedule is impossible;
        # instead wake at a cycle earlier than its second tick mid-run.

        class Interferer(ClockedModule):
            def tick(self, cycle):
                if cycle == 10:
                    engine.wake(module, 20)
                    return None
                return 10

        engine.add(Interferer("i"))
        engine.run()
        assert module.tick_cycles == [0, 20]

    def test_start_cycle_offsets_timeline(self):
        engine = Engine(start_cycle=1000)
        module = _Countdown("m", ticks=2)
        engine.add(module, start_cycle=1000)
        assert engine.run() == 1001


class TestModelingPlan:
    def test_builtin_plans_valid(self):
        assert ACCEL_LIKE_PLAN["alu_pipeline"] == "cycle_accurate"
        assert SWIFT_BASIC_PLAN["alu_pipeline"] == "hybrid"
        assert SWIFT_BASIC_PLAN["memory"] == "queued"
        assert SWIFT_MEMORY_PLAN["memory"] == "analytical"

    def test_defaults_fill_unspecified_slots(self):
        plan = ModelingPlan("p", {"alu_pipeline": "hybrid"})
        assert plan["memory"] == "cycle_accurate"

    def test_unknown_slot_rejected(self):
        with pytest.raises(PlanError, match="unknown component"):
            ModelingPlan("p", {"warp_speed": "yes"})

    def test_unknown_choice_rejected(self):
        with pytest.raises(PlanError, match="cannot be modeled"):
            ModelingPlan("p", {"memory": "psychic"})

    def test_with_choice_derives(self):
        derived = SWIFT_BASIC_PLAN.with_choice("memory", "analytical")
        assert derived["memory"] == "analytical"
        assert SWIFT_BASIC_PLAN["memory"] == "queued"

    def test_describe_lists_all_slots(self):
        text = ACCEL_LIKE_PLAN.describe()
        for slot in COMPONENTS:
            assert slot in text

    def test_getitem_unknown_slot(self):
        with pytest.raises(PlanError):
            ACCEL_LIKE_PLAN["nonexistent"]


class TestMetricsGatherer:
    def test_gather_merges_same_names(self):
        a = Module("sm0")
        a.counters["instructions_committed"] += 5
        b = Module("sm0")
        b.counters["instructions_committed"] += 7
        report = MetricsGatherer([a, b]).gather(total_cycles=100)
        assert report.get("sm0", "instructions_committed") == 12
        assert report.instructions == 12
        assert report.ipc == pytest.approx(0.12)

    def test_prefix_totals(self):
        l1a = Module("l1_sm0")
        l1a.counters["sector_accesses"] += 10
        l1a.counters["sector_misses"] += 5
        l2 = Module("l2_slice0")
        l2.counters["sector_accesses"] += 4
        l2.counters["sector_misses"] += 1
        report = MetricsGatherer([l1a, l2]).gather(10)
        assert report.l1_miss_rate() == pytest.approx(0.5)
        assert report.l2_miss_rate() == pytest.approx(0.25)

    def test_rate_none_when_no_base(self):
        report = MetricsGatherer([Module("empty")]).gather(10)
        assert report.l1_miss_rate() is None

    def test_walks_children(self):
        root = Module("root")
        child = root.add_child(Module("leaf"))
        child.counters["x"] += 3
        report = MetricsGatherer([root]).gather(1)
        assert report.get("leaf", "x") == 3

    def test_modules_without_counters_omitted(self):
        report = MetricsGatherer([Module("silent")]).gather(1)
        assert report.modules() == []

    @staticmethod
    def _cross_component_clash():
        """Two modules named "sm0" filling *different* component slots."""
        sm = Module("sm0")
        sm.component = "sm"
        sm.counters["instructions_committed"] += 5
        cache = Module("sm0")
        cache.component = "cache"
        cache.counters["sector_misses"] += 7
        return sm, cache

    def test_cross_component_duplicate_warns(self):
        sm, cache = self._cross_component_clash()
        gatherer = MetricsGatherer([sm, cache])
        with pytest.warns(DuplicateModuleNameWarning, match="'sm0'"):
            report = gatherer.gather(total_cycles=10)
        # Detection warns but the report is still produced (merged).
        assert report.get("sm0", "instructions_committed") == 5
        assert report.get("sm0", "sector_misses") == 7

    def test_cross_component_duplicate_warns_once_per_name(self):
        sm, cache = self._cross_component_clash()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MetricsGatherer([sm, cache, cache]).gather(1)
        assert len(caught) == 1

    def test_cross_component_duplicate_raise_policy(self):
        sm, cache = self._cross_component_clash()
        gatherer = MetricsGatherer([sm, cache], on_duplicate="raise")
        with pytest.raises(MetricsError, match="different component slots"):
            gatherer.gather(total_cycles=10)

    def test_cross_component_duplicate_merge_policy_is_silent(self):
        sm, cache = self._cross_component_clash()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MetricsGatherer([sm, cache], on_duplicate="merge").gather(1)

    def test_same_component_duplicates_stay_silent(self):
        # The documented aggregation path must never warn: every
        # sub-core's "ldst" unit merges into one row by design.
        a, b = Module("ldst"), Module("ldst")
        a.counters["x"] += 1
        b.counters["x"] += 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = MetricsGatherer([a, b]).gather(1)
        assert report.get("ldst", "x") == 3

    def test_invalid_duplicate_policy_rejected(self):
        with pytest.raises(MetricsError, match="on_duplicate"):
            MetricsGatherer([], on_duplicate="explode")


def _run_kernel(simulator, memory, kernel, clock):
    """One kernel of :meth:`PlanSimulator.simulate`'s loop on ``memory``;
    returns the kernel's end cycle and its SMs."""
    scheduler = BlockScheduler(kernel)
    sms = [
        SMCore(sm_id, simulator.config, scheduler,
               simulator._subcore_factory(memory))
        for sm_id in range(min(simulator.config.num_sms, len(kernel.blocks)))
    ]
    engine = Engine(allow_jump=simulator.plan["clocking"] == "event_jump",
                    start_cycle=clock)
    for sm in sms:
        sm.attach_engine(engine)
        engine.add(sm, start_cycle=clock)
    memory.attach_engine(engine)
    engine.add(memory, start_cycle=clock)
    end = engine.run(max_cycles=clock + 10_000_000)
    end = max(end, scheduler.last_completion_cycle,
              *(sm.last_completion for sm in sms))
    return end, sms


def _census(roots):
    return [
        (type(module).__name__, module.name, module.counters.as_dict(),
         sorted(vars(module)))
        for root in roots for module in root.walk()
    ]


class TestModuleTreePickling:
    """Modules pickle by default: an assembled tree comes back with the
    same modules and counters, shared sub-modules still shared, and the
    copy keeps simulating exactly like the original."""

    def test_assembled_tree_round_trips_and_keeps_simulating(self, tiny_gpu):
        simulator = AccelSimLike(tiny_gpu)
        app = make_app("bfs", scale="tiny")
        assert len(app.kernels) > 1
        expected_ends = [k.end_cycle for k in simulator.simulate(app).kernels]
        memory = simulator._build_memory()
        clock, sms = _run_kernel(simulator, memory, app.kernels[0], 0)
        assert clock == expected_ends[0]

        copy_memory, copy_sms = pickle.loads(pickle.dumps((memory, sms)))
        assert _census([copy_memory, *copy_sms]) == _census([memory, *sms])
        for sm in copy_sms:
            shared = {id(subcore.shared_unit) for subcore in sm.subcores}
            assert shared == {id(sm.shared_unit)}
            assert all(subcore.ldst_unit.memory is copy_memory
                       for subcore in sm.subcores)

        for kernel, expected in zip(app.kernels[1:], expected_ends[1:]):
            end, __ = _run_kernel(simulator, memory, kernel, clock)
            copy_end, __ = _run_kernel(simulator, copy_memory, kernel, clock)
            assert end == copy_end == expected
            clock = end
        assert _census([copy_memory]) == _census([memory])
