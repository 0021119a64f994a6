"""Integration tests for the three assembled simulators.

These run tiny full simulations, asserting behaviours a modeling bug
would break: determinism, latency sensitivity, scheduling semantics
(barriers, dependencies, divergence), plan wiring, and the mutual
consistency of the three simulators.
"""

import pytest

from repro import (
    ACCEL_LIKE_PLAN,
    AccelSimLike,
    ModelingPlan,
    PlanSimulator,
    SWIFT_BASIC_PLAN,
    SwiftSimBasic,
    SwiftSimMemory,
    make_app,
)
from repro.errors import PlanError
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)
from repro.sim.engine import EngineChecker
from repro.simulators import SIMULATORS as REGISTRY

from conftest import alu, coalesced_addrs, load, make_single_warp_app, make_tiny_gpu, make_warp, store

SIMULATORS = (AccelSimLike, SwiftSimBasic, SwiftSimMemory)


@pytest.fixture(params=SIMULATORS, ids=lambda c: c.__name__)
def simulator_cls(request):
    return request.param


class TestBasicExecution:
    def test_single_alu_warp_completes(self, tiny_gpu, simulator_cls):
        app = make_single_warp_app([alu(16 * i, 40 + i) for i in range(10)])
        result = simulator_cls(tiny_gpu).simulate(app)
        assert result.total_cycles > 0
        assert result.metrics.instructions == 11  # 10 ALU + EXIT

    def test_deterministic(self, tiny_gpu, simulator_cls):
        app = make_app("bfs", scale="tiny")
        sim = simulator_cls(tiny_gpu)
        first = sim.simulate(app, gather_metrics=False).total_cycles
        second = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False).total_cycles
        assert first == second

    def test_dependent_chain_slower_than_independent(self, tiny_gpu, simulator_cls):
        chain = [alu(0, 50)]
        for i in range(1, 20):
            chain.append(alu(16 * i, 50 + i, (50 + i - 1,), opcode="FFMA"))
        independent = [alu(16 * i, 50 + i, opcode="FFMA") for i in range(20)]
        sim = simulator_cls(tiny_gpu)
        dependent_cycles = sim.simulate(
            make_single_warp_app(chain, "dep"), gather_metrics=False
        ).total_cycles
        independent_cycles = simulator_cls(tiny_gpu).simulate(
            make_single_warp_app(independent, "indep"), gather_metrics=False
        ).total_cycles
        assert dependent_cycles > independent_cycles

    def test_latency_config_sensitivity(self, tiny_gpu, simulator_cls):
        # Doubling SP latency must slow a dependent FP chain.
        chain = [alu(0, 50, opcode="FFMA")]
        for i in range(1, 15):
            chain.append(alu(16 * i, 50 + i, (50 + i - 1,), opcode="FFMA"))
        app = make_single_warp_app(chain)
        from dataclasses import replace
        from repro.frontend.config import ExecUnitConfig
        from repro.frontend.isa import UnitClass
        slow_units = tuple(
            replace(u, latency=u.latency * 2) if u.unit is UnitClass.SP else u
            for u in tiny_gpu.sm.exec_units
        )
        slow_gpu = tiny_gpu.with_sm(exec_units=slow_units)
        fast = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False).total_cycles
        slow = simulator_cls(slow_gpu).simulate(app, gather_metrics=False).total_cycles
        assert slow > fast

    def test_memory_latency_sensitivity(self, simulator_cls):
        app = make_single_warp_app([
            load(0, 40, coalesced_addrs(base=0x100000)),
            alu(16, 41, (40,)),
        ])
        near = make_tiny_gpu()
        far = make_tiny_gpu(dram=type(near.dram)(latency=400, row_hit_latency=30))
        fast = simulator_cls(near).simulate(app, gather_metrics=False).total_cycles
        slow = simulator_cls(far).simulate(app, gather_metrics=False).total_cycles
        assert slow > fast

    def test_multi_kernel_cycles_accumulate(self, tiny_gpu, simulator_cls):
        app = make_app("atax", scale="tiny")  # two kernels
        result = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False)
        assert len(result.kernels) == 2
        assert result.kernels[0].end_cycle <= result.kernels[1].start_cycle
        assert result.total_cycles == result.kernels[-1].end_cycle


class TestSynchronization:
    def _barrier_app(self):
        """Two warps; warp 0 does a long FFMA chain before the barrier."""
        def warp_insts(long):
            insts = []
            pc = 0
            reg = 60
            insts.append(alu(pc, reg, opcode="FFMA"))
            depth = 24 if long else 1
            for i in range(1, depth):
                pc += 16
                insts.append(alu(pc, reg + i, (reg + i - 1,), opcode="FFMA"))
            pc += 16
            insts.append(TraceInstruction(pc, "BAR.SYNC"))
            pc += 16
            insts.append(alu(pc, 120))
            pc += 16
            insts.append(TraceInstruction(pc, "EXIT"))
            return insts

        warps = [
            WarpTrace(0, warp_insts(long=True)),
            WarpTrace(1, warp_insts(long=False)),
        ]
        block = BlockTrace(0, warps)
        return ApplicationTrace("barrier_app", [KernelTrace("k", [block])])

    def test_barrier_waits_for_slow_warp(self, tiny_gpu, simulator_cls):
        app = self._barrier_app()
        result = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False)
        # Lower bound: the 24-deep dependent FFMA chain (4 cycles each).
        assert result.total_cycles >= 24 * 4

    def test_divergent_load_slower_than_coalesced(self, tiny_gpu, simulator_cls):
        coalesced = make_single_warp_app(
            [load(0, 40, coalesced_addrs(base=0x100000)), alu(16, 41, (40,))],
            "coalesced",
        )
        divergent = make_single_warp_app(
            [load(0, 40, [0x100000 + 512 * i for i in range(32)]), alu(16, 41, (40,))],
            "divergent",
        )
        sim_a = simulator_cls(tiny_gpu)
        a = sim_a.simulate(coalesced, gather_metrics=False).total_cycles
        b = simulator_cls(make_tiny_gpu()).simulate(divergent, gather_metrics=False).total_cycles
        assert b > a


class TestPlanWiring:
    def test_plan_names_propagate(self, tiny_gpu):
        assert AccelSimLike(tiny_gpu).name == "accel-like"
        assert SwiftSimBasic(tiny_gpu).name == "swift-basic"
        assert SwiftSimMemory(tiny_gpu).name == "swift-memory"

    def test_custom_plan_simulator(self, tiny_gpu):
        plan = SWIFT_BASIC_PLAN.with_choice("shared_memory", "cycle_accurate", name="custom")
        sim = PlanSimulator(tiny_gpu, plan=plan)
        result = sim.simulate(make_app("gemm", scale="tiny"), gather_metrics=False)
        assert result.simulator_name == "custom"
        assert result.total_cycles > 0

    def test_plan_required(self, tiny_gpu):
        with pytest.raises(PlanError):
            PlanSimulator(tiny_gpu)

    @pytest.mark.parametrize("key", sorted(REGISTRY))
    def test_every_tier_keeps_the_contract(self, tiny_gpu, key):
        """Named by its registry key; takes ``gather_metrics`` and
        ``checker`` (a tier with no engine ignores the checker)."""
        if key == "swift-analytic":
            pytest.importorskip("numpy")
        simulator = REGISTRY[key](tiny_gpu)
        assert simulator.name == key
        result = simulator.simulate(make_app("sm", scale="tiny"),
                                    gather_metrics=False,
                                    checker=EngineChecker())
        assert result.simulator_name == key
        assert result.total_cycles > 0

    def test_bad_hit_rate_source(self, tiny_gpu):
        with pytest.raises(PlanError):
            SwiftSimMemory(tiny_gpu, hit_rate_source="tarot")

    def test_reuse_distance_hit_source_runs(self, tiny_gpu):
        sim = SwiftSimMemory(tiny_gpu, hit_rate_source="reuse_distance")
        result = sim.simulate(make_app("atax", scale="tiny"), gather_metrics=False)
        assert result.total_cycles > 0

    def test_module_levels_reflect_plan(self, tiny_gpu):
        # Build one SM via each simulator's factory and inspect its sinks.
        from repro.core.alu_analytical import HybridALUModel
        from repro.core.execution_unit import PipelinedExecutionUnit
        from repro.core.block_scheduler import BlockScheduler
        from repro.core.sm import SMCore
        kernel = make_app("gemm", scale="tiny").kernels[0]

        basic = SwiftSimBasic(tiny_gpu)
        memory_system = basic._build_memory()
        sm = SMCore(0, tiny_gpu, BlockScheduler(kernel), basic._subcore_factory(memory_system))
        unit = next(iter(sm.subcores[0].exec_units.values()))
        assert isinstance(unit, HybridALUModel)
        assert sm.subcores[0].frontend is None

        accel = AccelSimLike(tiny_gpu)
        memory_system = accel._build_memory()
        sm = SMCore(0, tiny_gpu, BlockScheduler(kernel), accel._subcore_factory(memory_system))
        unit = next(iter(sm.subcores[0].exec_units.values()))
        assert isinstance(unit, PipelinedExecutionUnit)
        assert sm.subcores[0].frontend is not None
        assert sm.subcores[0].collector is not None


class TestCrossSimulatorConsistency:
    @pytest.mark.parametrize("app_name", ["bfs", "gemm", "hotspot", "sm"])
    def test_predictions_correlate(self, tiny_gpu, app_name):
        app = make_app(app_name, scale="tiny")
        cycles = {
            cls.__name__: cls(tiny_gpu).simulate(app, gather_metrics=False).total_cycles
            for cls in SIMULATORS
        }
        baseline = cycles["AccelSimLike"]
        for name, value in cycles.items():
            assert 0.4 * baseline <= value <= 2.0 * baseline, cycles

    def test_swift_plans_run_faster_at_scale(self, tiny_gpu):
        # Wall-clock ordering is only reliable above trivial sizes.
        app = make_app("adi", scale="tiny")
        accel = AccelSimLike(tiny_gpu).simulate(app, gather_metrics=False)
        basic = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
        assert basic.wall_time_seconds < accel.wall_time_seconds

    def test_instruction_counts_agree(self, tiny_gpu):
        app = make_app("gemm", scale="tiny")
        counts = {
            cls.__name__: cls(tiny_gpu).simulate(app).metrics.instructions
            for cls in SIMULATORS
        }
        assert len(set(counts.values())) == 1, counts


class TestMetricsContent:
    def test_cache_metrics_present_for_simulated_memory(self, tiny_gpu):
        app = make_app("hotspot", scale="tiny")
        for cls in (AccelSimLike, SwiftSimBasic):
            metrics = cls(tiny_gpu).simulate(app).metrics
            assert metrics.l1_miss_rate() is not None
            assert metrics.l2_miss_rate() is not None
            assert 0.0 <= metrics.l1_miss_rate() <= 1.0

    def test_block_accounting(self, tiny_gpu):
        app = make_app("gemm", scale="tiny")
        metrics = SwiftSimBasic(tiny_gpu).simulate(app).metrics
        launched = metrics.total("blocks_launched")
        completed = metrics.total("blocks_completed", prefix="block_scheduler")
        expected = sum(len(k.blocks) for k in app.kernels)
        assert launched == expected
        assert completed == expected

    def test_ipc_positive(self, tiny_gpu):
        app = make_app("sm", scale="tiny")
        result = SwiftSimMemory(tiny_gpu).simulate(app)
        assert result.ipc > 0
