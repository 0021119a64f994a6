"""Hardware Configuration Collector: the GPU configuration tree.

A :class:`GPUConfig` carries every modeling parameter the performance
model consumes — SM/sub-core resources, execution-unit counts and
latencies, both cache levels, the NoC, and DRAM.  Architects explore new
designs by editing these values (paper §III-A): the configuration is the
only channel through which hardware parameters reach the model.

All classes are frozen dataclasses validated at construction so an
inconsistent configuration fails loudly at build time, not midway through
a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

from repro.errors import ConfigError
from repro.frontend.isa import UnitClass
from repro.utils.bitops import is_pow2

#: Threads per warp on every modeled architecture.
WARP_SIZE = 32

#: Replacement policies the sectored caches support.
REPLACEMENT_POLICIES = ("LRU", "FIFO", "RANDOM")

#: Warp-scheduling policies the sub-core schedulers support.  Custom
#: policies registered via repro.core.warp_scheduler.register_policy are
#: appended here so configurations naming them validate.
SCHEDULER_POLICIES = ["GTO", "LRR", "TWO_LEVEL"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ExecUnitConfig:
    """One execution-unit class inside a sub-core.

    ``lanes`` is the number of SIMD lanes per sub-core (Table II's "INT:16x"
    means 16 lanes, so a 32-thread warp occupies the dispatch port for
    ``32 / 16 = 2`` cycles).  Fractional lane counts (DP: 0.5x) yield
    proportionally longer dispatch intervals.
    """

    unit: UnitClass
    lanes: float
    latency: int

    def __post_init__(self) -> None:
        _require(self.lanes > 0, f"{self.unit.value}: lanes must be positive")
        _require(self.latency >= 1, f"{self.unit.value}: latency must be >= 1")

    @property
    def dispatch_interval(self) -> int:
        """Cycles the dispatch port stays busy per warp instruction."""
        return max(1, round(WARP_SIZE / self.lanes))


@dataclass(frozen=True)
class CacheConfig:
    """A sectored cache level (L1 data cache or one L2 slice)."""

    size_bytes: int
    line_bytes: int = 128
    sector_bytes: int = 32
    assoc: int = 4
    banks: int = 4
    mshr_entries: int = 256
    mshr_max_merge: int = 8
    latency: int = 32
    replacement: str = "LRU"
    write_back: bool = False
    write_allocate: bool = False
    streaming: bool = False

    def __post_init__(self) -> None:
        _require(is_pow2(self.line_bytes), "line_bytes must be a power of two")
        _require(is_pow2(self.sector_bytes), "sector_bytes must be a power of two")
        _require(
            self.sector_bytes <= self.line_bytes,
            "sector_bytes cannot exceed line_bytes",
        )
        _require(self.size_bytes % self.line_bytes == 0, "size must be a whole number of lines")
        _require(self.assoc >= 1, "associativity must be >= 1")
        num_lines = self.size_bytes // self.line_bytes
        _require(num_lines % self.assoc == 0, "lines must divide evenly into sets")
        _require(self.banks >= 1, "banks must be >= 1")
        _require(self.mshr_entries >= 1, "mshr_entries must be >= 1")
        _require(self.mshr_max_merge >= 1, "mshr_max_merge must be >= 1")
        _require(self.latency >= 1, "latency must be >= 1")
        _require(
            self.replacement in REPLACEMENT_POLICIES,
            f"replacement must be one of {REPLACEMENT_POLICIES}",
        )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    @property
    def sectors_per_line(self) -> int:
        return self.line_bytes // self.sector_bytes


@dataclass(frozen=True)
class SMConfig:
    """One streaming multiprocessor: sub-cores, schedulers, and limits."""

    sub_cores: int = 4
    schedulers_per_subcore: int = 1
    scheduler_policy: str = "GTO"
    issue_width: int = 1
    exec_units: Tuple[ExecUnitConfig, ...] = ()
    ldst_units: int = 4
    ldst_throughput: int = 4          # sector transactions accepted per cycle
    max_warps: int = 32
    max_blocks: int = 16
    max_threads: int = 1024
    registers: int = 65536
    shared_mem_bytes: int = 65536
    register_banks: int = 8
    operand_collector_units: int = 4
    ibuffer_entries: int = 8
    fetch_latency: int = 4            # i-cache hit latency for fetch modeling
    decode_latency: int = 2
    shared_mem_latency: int = 24
    shared_mem_banks: int = 32

    def __post_init__(self) -> None:
        _require(self.sub_cores >= 1, "sub_cores must be >= 1")
        _require(
            self.scheduler_policy in SCHEDULER_POLICIES,
            f"scheduler_policy must be one of {SCHEDULER_POLICIES}",
        )
        _require(self.issue_width >= 1, "issue_width must be >= 1")
        _require(self.exec_units, "at least one execution unit class is required")
        units = [u.unit for u in self.exec_units]
        _require(len(units) == len(set(units)), "duplicate execution unit class")
        _require(self.ldst_units >= 1, "ldst_units must be >= 1")
        _require(self.max_warps >= 1, "max_warps must be >= 1")
        _require(self.max_warps % self.sub_cores == 0, "max_warps must divide across sub-cores")
        _require(self.max_threads >= WARP_SIZE, "max_threads must hold at least one warp")
        _require(self.max_blocks >= 1, "max_blocks must be >= 1")
        _require(self.registers >= 1, "registers must be positive")
        _require(self.shared_mem_bytes >= 0, "shared memory cannot be negative")

    def unit_config(self, unit: UnitClass) -> ExecUnitConfig:
        """Return the configuration of one unit class."""
        for entry in self.exec_units:
            if entry.unit == unit:
                return entry
        raise ConfigError(f"SM has no {unit.value} execution units")

    @property
    def units_by_class(self) -> Dict[UnitClass, ExecUnitConfig]:
        return {entry.unit: entry for entry in self.exec_units}

    @property
    def max_warps_per_subcore(self) -> int:
        return self.max_warps // self.sub_cores


@dataclass(frozen=True)
class NoCConfig:
    """SM <-> memory-partition crossbar interconnect."""

    flit_bytes: int = 32
    latency: int = 8
    flits_per_cycle: int = 1     # per partition port, per direction

    def __post_init__(self) -> None:
        _require(is_pow2(self.flit_bytes), "flit_bytes must be a power of two")
        _require(self.latency >= 0, "latency cannot be negative")
        _require(self.flits_per_cycle >= 1, "flits_per_cycle must be >= 1")


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip memory: one queue-served channel per memory partition."""

    latency: int = 227
    banks_per_partition: int = 16
    row_bytes: int = 1024
    row_hit_latency: int = 40
    bytes_per_cycle: int = 16    # per partition

    def __post_init__(self) -> None:
        _require(self.latency >= 1, "latency must be >= 1")
        _require(self.banks_per_partition >= 1, "banks_per_partition must be >= 1")
        _require(is_pow2(self.row_bytes), "row_bytes must be a power of two")
        _require(self.row_hit_latency >= 1, "row_hit_latency must be >= 1")
        _require(
            self.row_hit_latency <= self.latency,
            "a row hit cannot be slower than a row miss",
        )
        _require(self.bytes_per_cycle >= 1, "bytes_per_cycle must be >= 1")


@dataclass(frozen=True)
class GPUConfig:
    """The full modeled GPU (paper Figure 1)."""

    name: str
    architecture: str
    graphics_processor: str
    num_sms: int
    cuda_cores: int
    sm: SMConfig = field(default_factory=SMConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=32 * 1024))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=4 * 1024 * 1024, latency=188)
    )
    memory_partitions: int = 22
    noc: NoCConfig = field(default_factory=NoCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    core_clock_mhz: int = 1350

    def __post_init__(self) -> None:
        _require(bool(self.name), "GPU needs a name")
        _require(self.num_sms >= 1, "num_sms must be >= 1")
        _require(self.cuda_cores >= 1, "cuda_cores must be >= 1")
        _require(self.memory_partitions >= 1, "memory_partitions must be >= 1")
        _require(
            self.l2.size_bytes % self.memory_partitions == 0,
            "L2 must split evenly across memory partitions",
        )
        _require(self.core_clock_mhz >= 1, "core clock must be positive")

    @property
    def l2_slice(self) -> CacheConfig:
        """Configuration of one per-partition L2 slice."""
        return replace(self.l2, size_bytes=self.l2.size_bytes // self.memory_partitions)

    def with_sm(self, **changes) -> "GPUConfig":
        """Return a copy with SM-level parameters replaced (design-space helper)."""
        return replace(self, sm=replace(self.sm, **changes))

    def with_l1(self, **changes) -> "GPUConfig":
        """Return a copy with L1 parameters replaced."""
        return replace(self, l1=replace(self.l1, **changes))

    def with_l2(self, **changes) -> "GPUConfig":
        """Return a copy with L2 parameters replaced."""
        return replace(self, l2=replace(self.l2, **changes))


def apply_override(gpu: GPUConfig, path: str, value: Any) -> GPUConfig:
    """Return a copy of ``gpu`` with the dotted-``path`` field replaced."""
    parts = path.split(".")
    if not all(parts):
        raise ConfigError(f"malformed override path {path!r}")
    if len(parts) == 1:
        if not hasattr(gpu, parts[0]):
            raise ConfigError(f"GPUConfig has no field {parts[0]!r}")
        return replace(gpu, **{parts[0]: value})
    if len(parts) == 2:
        section_name, leaf = parts
        section = getattr(gpu, section_name, None)
        if section is None:
            raise ConfigError(f"GPUConfig has no section {section_name!r}")
        if not hasattr(section, leaf):
            raise ConfigError(f"{section_name!r} has no field {leaf!r}")
        return replace(gpu, **{section_name: replace(section, **{leaf: value})})
    raise ConfigError(f"override path {path!r} nests too deep (max 2 levels)")
