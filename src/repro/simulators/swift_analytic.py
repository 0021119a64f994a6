"""Swift-Sim-Analytic: the fully closed-form end of the spectrum.

The paper frames Swift-Sim as a spectrum of accuracy/speed points behind
one framework interface; this module is the third point, in the PPT-GPU
idiom: an architecture-independent pre-characterization pass
(:mod:`repro.frontend.precharacterize`) plus a closed-form timing model
— no engine, no modules, no per-cycle state, just vectorized arithmetic
over the tasklist.  Model equations, calibration, and known error
sources are documented in ``docs/analytic-tier.md``.

Per kernel the model takes the maximum of the classic analytical bounds:

* **latency bound** — launch waves x the slowest warp's solo time.  A
  warp's solo time comes from replaying its dependence skeleton (term
  sequence + producer indices, deduplicated into warp classes by the
  pre-characterization pass) as an in-order scoreboard walk: each
  instruction issues at ``max(in-order time, producer completion)``.
  This is exact for register dependences — including memory-level
  parallelism, where back-to-back loads overlap their latencies — with
  memory latencies priced at their Eq. 1 expectations;
* **throughput bounds** — per-execution-unit issue-port time, LD/ST port
  time, shared-memory port time, and the sub-core issue-width limit, all
  scaled to the busiest SM's share of the launch;
* **DRAM bandwidth bound** — sectors that miss L2 (classified from the
  reuse-distance distribution) over the aggregate DRAM sector rate;

plus the block-dispatch ramp.  Memory latencies are the same Eq. 1
expectations ``swift-memory`` uses, with hit rates read off the
tasklist's reuse-distance distribution for *whatever* cache capacities
each candidate configuration declares — which is what makes
:meth:`SwiftSimAnalytic.evaluate_batch` possible: thousands of
(app, GPU, config) points resolve in one vectorized call.

The batch path is contractually **bit-identical** to scalar evaluation:
every operation is elementwise across the configuration axis (explicit
term loops instead of matmul, so no BLAS reassociation), and the
property suite enforces it.
"""

from __future__ import annotations

import operator
import time
from typing import Dict, List, Optional, Sequence, Tuple

try:  # keep `import repro` working on numpy-less minimal installs
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.isa import UnitClass
from repro.frontend.precharacterize import (
    BRANCH_TERM,
    LOAD_TERM,
    SECTOR_BYTES,
    SHARED_TERM,
    STORE_TERM,
    SYNC_TERM,
    ApplicationTasklist,
    KernelTasklist,
    precharacterize,
)
from repro.frontend.trace import ApplicationTrace
from repro.sim.plan import SWIFT_ANALYTIC_PLAN
from repro.simulators.base import GPUSimulator
from repro.simulators.results import KernelResult, SimulationResult
from repro.utils.bitops import ceil_div

#: Dependence-chain cost of a taken/fall-through branch (matches the
#: subcore's BRANCH_LATENCY) and of a barrier/membar hop.
BRANCH_CYCLES = 2.0
SYNC_CYCLES = 1.0


def _require_numpy():
    if _np is None:
        raise SimulationError(
            "swift-analytic requires numpy; install it or use the "
            "engine-based simulators (swift-basic / swift-memory)"
        )
    return _np


class _ConfigBatch:
    """GPU parameters flattened into aligned arrays, one lane per config.

    Every downstream operation is elementwise across lanes, so lane ``i``
    of any result is exactly what a single-config evaluation of
    ``configs[i]`` would produce.
    """

    def __init__(self, configs: Sequence[GPUConfig]) -> None:
        np = _require_numpy()
        self.configs = list(configs)
        if not self.configs:
            raise SimulationError("evaluate_batch needs at least one GPUConfig")

        def gather(fn):
            return np.asarray([fn(c) for c in self.configs], dtype=np.float64)

        self.num_sms = gather(lambda c: c.num_sms)
        self.sub_cores = gather(lambda c: c.sm.sub_cores)
        self.issue_width = gather(lambda c: c.sm.issue_width)
        self.max_blocks = gather(lambda c: c.sm.max_blocks)
        self.max_warps = gather(lambda c: c.sm.max_warps)
        self.max_threads = gather(lambda c: c.sm.max_threads)
        self.registers = gather(lambda c: c.sm.registers)
        self.shared_mem_bytes = gather(lambda c: c.sm.shared_mem_bytes)
        self.ldst_throughput = gather(lambda c: c.sm.ldst_throughput)
        self.shared_mem_latency = gather(lambda c: c.sm.shared_mem_latency)
        self.l1_sectors = gather(lambda c: c.l1.size_bytes // c.l1.sector_bytes)
        self.l2_sectors = gather(lambda c: c.l2.size_bytes // c.l2.sector_bytes)
        # Eq. 1 latency ladder (identical to MemoryProfile's).
        self.latency_l1 = gather(lambda c: c.l1.latency)
        self.latency_l2 = gather(
            lambda c: c.l1.latency + 2 * c.noc.latency + c.l2.latency
        )
        self.latency_dram = self.latency_l2 + gather(
            lambda c: c.dram.latency
            + ceil_div(c.l2.sector_bytes, c.dram.bytes_per_cycle)
        )
        self.dram_sectors_per_cycle = gather(
            lambda c: c.memory_partitions * c.dram.bytes_per_cycle / SECTOR_BYTES
        )
        self._units: Dict[str, Tuple[object, object]] = {}

    def unit(self, unit_value: str):
        """(dispatch interval, base latency) arrays for one exec unit."""
        np = _np
        cached = self._units.get(unit_value)
        if cached is None:
            unit = UnitClass(unit_value)
            unit_configs = [c.sm.unit_config(unit) for c in self.configs]
            cached = (
                np.asarray(
                    [uc.dispatch_interval for uc in unit_configs],
                    dtype=np.float64,
                ),
                np.asarray([uc.latency for uc in unit_configs], dtype=np.float64),
            )
            self._units[unit_value] = cached
        return cached


class SwiftSimAnalytic(GPUSimulator):
    """Closed-form analytical simulator over pre-characterized tasklists."""

    name = "swift-analytic"
    plan = SWIFT_ANALYTIC_PLAN

    def __init__(self, config: GPUConfig) -> None:
        super().__init__(config)
        self._latest_batch: Optional[_ConfigBatch] = None

    # ------------------------------------------------------------------
    # model weights

    def _term_weights(self, batch: _ConfigBatch, tasklist: KernelTasklist):
        """Price every chain term for every configuration lane.

        Returns ``(chain_cost, issue_cost)``: lists of ``(N,)`` arrays,
        one per ``tasklist.chain_terms`` entry.  ``chain_cost`` is the
        producer-to-consumer spacing a dependent instruction observes
        (``interval - 1 + latency``); ``issue_cost`` is the issue-port
        occupancy.
        """
        np = _np
        ones = np.ones_like(batch.num_sms)
        loads = max(1, tasklist.global_loads)
        stores = max(1, tasklist.global_stores)
        load_occupancy = np.maximum(
            ones,
            (tasklist.load_transactions / loads) / batch.ldst_throughput,
        )
        store_occupancy = np.maximum(
            ones,
            (tasklist.store_transactions / stores) / batch.ldst_throughput,
        )
        load_latency = self._expected_load_latency(batch, tasklist)
        chain_cost = []
        issue_cost = []
        for term in tasklist.chain_terms:
            if term[0] == "alu":
                __, unit_value, factor = term
                interval, latency = batch.unit(unit_value)
                chain_cost.append(interval - 1.0 + latency * factor)
                issue_cost.append(interval)
            elif term == LOAD_TERM:
                chain_cost.append(load_occupancy - 1.0 + load_latency)
                issue_cost.append(load_occupancy)
            elif term == STORE_TERM:
                chain_cost.append(store_occupancy)
                issue_cost.append(store_occupancy)
            elif term == SHARED_TERM:
                chain_cost.append(batch.shared_mem_latency)
                issue_cost.append(ones)
            elif term == BRANCH_TERM:
                chain_cost.append(BRANCH_CYCLES * ones)
                issue_cost.append(ones)
            elif term == SYNC_TERM:
                chain_cost.append(SYNC_CYCLES * ones)
                issue_cost.append(ones)
            else:  # pragma: no cover - new terms must be priced explicitly
                raise SimulationError(f"unpriced chain term {term!r}")
        return chain_cost, issue_cost

    def _expected_load_latency(self, batch: _ConfigBatch, tasklist: KernelTasklist):
        """Eq. 1 expectation over the kernel's load population, with hit
        rates read off the reuse-distance distribution at each lane's
        cache capacities (stack distance < capacity-in-sectors = hit)."""
        np = _np
        distances = tasklist.load_inst_distances
        count = distances.shape[0]
        if count == 0:
            return np.zeros_like(batch.num_sms)
        l1_hits = np.searchsorted(distances, batch.l1_sectors, side="left")
        l2_hits = np.searchsorted(distances, batch.l2_sectors, side="left")
        r_l1 = l1_hits / count
        r_l2 = np.maximum(0.0, (l2_hits - l1_hits) / count)
        r_dram = np.maximum(0.0, 1.0 - l2_hits / count)
        return (
            batch.latency_l1 * r_l1
            + batch.latency_l2 * r_l2
            + batch.latency_dram * r_dram
        )

    def _solo_time(self, batch: _ConfigBatch, tasklist: KernelTasklist,
                   chain_cost, issue_cost):
        """Slowest warp's solo execution time, ``(N,)``.

        Replays each deduplicated warp class once as an in-order
        scoreboard walk: instruction ``i`` issues at ``max(in-order
        issue time, producer completion)`` and completes ``chain_cost``
        later; the warp retires when its last completion lands.  Every
        operation is elementwise across lanes (explicit position loop,
        no matmul), preserving the batch == scalar bit-identity
        contract.  Cost is proportional to unique skeletons, not warps.
        """
        np = _np
        solo = np.zeros_like(batch.num_sms)
        for warp_class in tasklist.warp_classes:
            term_seq = warp_class.term_seq
            positions = term_seq.shape[0]
            if positions == 0:
                continue
            completions: List[object] = []
            now = np.zeros_like(batch.num_sms)
            end = np.zeros_like(batch.num_sms)
            for i in range(positions):
                producer = warp_class.producer[i]
                start = now
                if producer >= 0:
                    start = np.maximum(now, completions[producer])
                done = start + chain_cost[term_seq[i]]
                completions.append(done)
                now = start + issue_cost[term_seq[i]]
                end = np.maximum(end, done)
            solo = np.maximum(solo, end)
        return solo

    # ------------------------------------------------------------------
    # per-kernel closed form

    def _occupancy(self, batch: _ConfigBatch, tasklist: KernelTasklist):
        np = _np
        warps = max(1, tasklist.warps_per_block)
        threads = max(1, tasklist.threads_per_block)
        registers = max(1, tasklist.regs_per_thread * threads)
        limits = [
            batch.max_blocks,
            np.floor(batch.max_warps / warps),
            np.floor(batch.max_threads / threads),
            np.floor(batch.registers / registers),
        ]
        if tasklist.shared_mem_bytes:
            limits.append(
                np.floor(batch.shared_mem_bytes / tasklist.shared_mem_bytes)
            )
        fit = np.minimum.reduce(limits)
        if np.any(fit < 1):
            raise SimulationError(
                f"kernel {tasklist.name!r} does not fit an empty SM for at "
                f"least one configuration in the batch (warps={warps}, "
                f"threads={threads}, smem={tasklist.shared_mem_bytes}, "
                f"regs/thread={tasklist.regs_per_thread})"
            )
        return fit

    def _kernel_cycles(self, batch: _ConfigBatch, tasklist: KernelTasklist):
        """Predicted cycles for one kernel, ``(N,)`` int64."""
        np = _np
        blocks = tasklist.num_blocks
        blocks_per_sm = self._occupancy(batch, tasklist)
        active_sms = np.minimum(batch.num_sms, blocks)
        busiest_share = np.ceil(blocks / active_sms)  # blocks on busiest SM
        waves = np.ceil(blocks / (blocks_per_sm * batch.num_sms))
        ramp = np.minimum(blocks_per_sm, busiest_share)  # 1 block/SM/cycle
        sm_fraction = busiest_share / blocks

        chain_cost, issue_cost = self._term_weights(batch, tasklist)
        latency_bound = waves * self._solo_time(batch, tasklist,
                                               chain_cost, issue_cost)

        bounds = [latency_bound]
        # Per-unit issue ports (one port per sub-core).
        per_unit: Dict[str, float] = {}
        for (unit_value, __factor), count in tasklist.unit_counts.items():
            per_unit[unit_value] = per_unit.get(unit_value, 0) + count
        for unit_value, count in sorted(per_unit.items()):
            interval, __ = batch.unit(unit_value)
            bounds.append(count * sm_fraction / batch.sub_cores * interval)
        # LD/ST and shared-memory ports (one per SM).
        transactions = tasklist.load_transactions + tasklist.store_transactions
        if transactions:
            bounds.append(transactions * sm_fraction / batch.ldst_throughput)
        if tasklist.shared_insts:
            bounds.append(tasklist.shared_insts * sm_fraction)
        # Sub-core issue width.
        priced = (
            sum(tasklist.unit_counts.values())
            + tasklist.ldst_insts + tasklist.shared_insts
            + tasklist.branch_insts + tasklist.sync_insts
        )
        bounds.append(
            priced * sm_fraction / (batch.sub_cores * batch.issue_width)
        )
        # Aggregate DRAM bandwidth.
        access_distances = tasklist.load_access_distances
        if access_distances.shape[0]:
            dram_sectors = access_distances.shape[0] - np.searchsorted(
                access_distances, batch.l2_sectors, side="left"
            )
            bounds.append(dram_sectors / batch.dram_sectors_per_cycle)
        total = ramp + np.maximum.reduce(bounds)
        return np.ceil(total).astype(np.int64)

    # ------------------------------------------------------------------
    # public API

    def _batch(self, configs: Optional[Sequence[GPUConfig]]) -> _ConfigBatch:
        """``configs`` flattened, reusing the latest batch while the caller
        keeps passing the same (immutable) config objects in the same
        order — a sweep prices every application against one grid."""
        configs = [self.config] if configs is None else list(configs)
        batch = self._latest_batch
        if (
            batch is None
            or len(configs) != len(batch.configs)
            or any(map(operator.is_not, configs, batch.configs))
        ):
            batch = self._latest_batch = _ConfigBatch(configs)
        return batch

    def _tasklist_cycles(self, tasklist: ApplicationTasklist, batch: _ConfigBatch):
        """Predicted cycles per kernel per batch lane, ``(K, N)``."""
        return _np.stack(
            [self._kernel_cycles(batch, kernel) for kernel in tasklist.kernels]
        )

    def kernel_cycles_batch(
        self,
        app: ApplicationTrace,
        configs: Optional[Sequence[GPUConfig]] = None,
    ):
        """Predicted cycles per kernel per configuration, ``(K, N)``."""
        _require_numpy()
        return self._tasklist_cycles(precharacterize(app), self._batch(configs))

    def evaluate_batch(
        self,
        app: ApplicationTrace,
        configs: Optional[Sequence[GPUConfig]] = None,
    ):
        """Predicted total cycles per configuration, ``(N,)`` int64.

        One call resolves the whole batch; lane ``i`` is bit-identical to
        ``evaluate_batch(app, [configs[i]])[0]``.
        """
        return self.kernel_cycles_batch(app, configs).sum(axis=0)

    def simulate(
        self,
        app: ApplicationTrace,
        gather_metrics: bool = False,
        checker=None,
        guard=None,
    ) -> SimulationResult:
        """Estimate ``app``'s cycles from its tasklist.

        ``gather_metrics`` is accepted for interface compatibility (the
        closed form has no counters to gather, so ``metrics`` is always
        ``None``); ``checker``/``guard`` are likewise accepted and
        ignored — there is no engine to observe or checkpoint.
        """
        profile_started = time.perf_counter()
        tasklist = precharacterize(app)  # memoized; separates profiling from timing
        profile_seconds = time.perf_counter() - profile_started
        started = time.perf_counter()
        per_kernel = self._tasklist_cycles(tasklist, self._batch(None))[:, 0]
        clock = 0
        kernels: List[KernelResult] = []
        for kernel, cycles in zip(tasklist.kernels, per_kernel.tolist()):
            kernels.append(
                KernelResult(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=clock + cycles,
                    instructions=kernel.num_instructions,
                )
            )
            clock += cycles
        return SimulationResult(
            app_name=app.name,
            simulator_name=self.name,
            gpu_name=self.config.name,
            total_cycles=clock,
            kernels=kernels,
            metrics=None,
            wall_time_seconds=time.perf_counter() - started,
            profile_seconds=profile_seconds,
        )
