"""One call per module crossed is bit-invisible.

``QueuedMemorySystem`` reserves its bank ports inline, enters the
stall-retry loop only on a stall, routes a line once, and drives a
``ReservedNoC`` and ``DRAMPartition`` whose per-event arithmetic sits in
one frame each.  ``queued_memory_reference.py`` keeps the call structure
all of that replaced, and this suite feeds both the same instruction
streams — loads, stores and atomics over strided, colliding and
MSHR-saturating address sets, on caches small enough that every
structural outcome occurs — and requires the same
``(completion, transactions, port_cycles)`` from every call and the same
counters in every child module.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.shadow import compare_results
from repro.frontend.config import CacheConfig, DRAMConfig, NoCConfig
from repro.frontend.trace import TraceInstruction
from repro.memory.hierarchy import QueuedMemorySystem
from repro.memory.l2 import partition_for_line, route_line, slice_line_addr
from repro.simulators.swift_basic import SwiftSimBasic
from repro.tracegen.suites import make_app

from conftest import load, make_tiny_gpu, store
from queued_memory_reference import (
    ReferenceQueuedMemorySystem,
    reference_memory,
)

POLICIES = ("LRU", "FIFO", "RANDOM")
LINE = 128
SECTOR = 32


def instruction(kind, pc, addresses):
    """A global load / store / atomic with one active lane per address."""
    mask = (1 << len(addresses)) - 1
    if kind == "load":
        return load(pc, 1, addresses, mask)
    if kind == "store":
        return store(pc, 1, addresses, mask)
    return TraceInstruction(pc, "RED", src_regs=(1,), active_mask=mask,
                            addresses=tuple(addresses))


def cramped_gpu(replacement="LRU", streaming=True, mshr_entries=3,
                mshr_max_merge=1, assoc=2, flits_per_cycle=1):
    """Caches of a few lines with three MSHRs: misses collide in the sets,
    fill the MSHR and overrun its merge limit within a handful of
    instructions."""
    return make_tiny_gpu(
        l1=CacheConfig(size_bytes=4 * LINE * assoc, assoc=assoc, banks=2,
                       mshr_entries=mshr_entries, mshr_max_merge=mshr_max_merge,
                       latency=8, replacement=replacement, streaming=streaming),
        l2=CacheConfig(size_bytes=4 * 4 * LINE * assoc, assoc=assoc, banks=2,
                       mshr_entries=mshr_entries, mshr_max_merge=mshr_max_merge,
                       latency=20, replacement=replacement, write_back=True,
                       write_allocate=True),
        noc=NoCConfig(latency=3, flits_per_cycle=flits_per_cycle),
        dram=DRAMConfig(latency=60, row_hit_latency=20, bytes_per_cycle=8,
                        banks_per_partition=2, row_bytes=256),
    )


# ----------------------------------------------------------------------
# address sets


def strided(base, stride, lanes=32):
    return [base + lane * stride for lane in range(lanes)]


def colliding(base, num_sets, partitions, lanes=32):
    """Every lane a different line of one L1 set (and, with
    ``partitions`` dividing the stride, of one L2 slice)."""
    return strided(base, LINE * num_sets * partitions, lanes)


def saturating(base, lanes=32):
    """One lane per line: as many concurrent misses as lanes."""
    return strided(base, LINE, lanes)


def seeded_stream(seed, gpu, length=160):
    """(sm_id, instruction, issue cycle) triples, issue cycles packed
    tightly enough that fills are still in flight at the next access."""
    rng = random.Random(seed)
    num_sets = gpu.l1.num_sets
    partitions = gpu.memory_partitions
    bases = [rng.randrange(0, 1 << 16) * LINE for __ in range(6)]
    cycle = 0
    stream = []
    for pc in range(length):
        base = rng.choice(bases) + rng.choice((0, SECTOR, 2 * SECTOR))
        shape = rng.randrange(5)
        if shape == 0:
            addresses = strided(base, rng.choice((4, 8, 32, 64)))
        elif shape == 1:
            addresses = colliding(base, num_sets, partitions,
                                  lanes=rng.choice((4, 8, 32)))
        elif shape == 2:
            addresses = saturating(base, lanes=rng.choice((8, 32)))
        elif shape == 3:
            addresses = [base] * 32  # one sector, merged lanes
        else:
            addresses = [base + rng.randrange(0, 16) * SECTOR for __ in range(32)]
        kind = rng.choice(("load",) * 6 + ("store",) * 3 + ("atomic",))
        stream.append(
            (rng.randrange(gpu.num_sms), instruction(kind, pc * 16, addresses), cycle)
        )
        cycle += rng.choice((0, 1, 1, 2, 5, 40, 400))
    return stream


def counters_by_module(memory):
    return {module.name: module.counters.as_dict() for module in memory.walk()}


def assert_equivalent(gpu, stream):
    live = QueuedMemorySystem(gpu)
    reference = ReferenceQueuedMemorySystem(gpu)
    for index, (sm_id, inst, cycle) in enumerate(stream):
        got = live.access_global(sm_id, inst, cycle)
        want = reference.access_global(sm_id, inst, cycle)
        assert got == want, f"call {index} ({inst.opcode} at cycle {cycle})"
    live_counters = counters_by_module(live)
    assert live_counters == counters_by_module(reference)
    for module in live.walk():
        assert module.invariants(stream[-1][2]) == []
    return live_counters


# ----------------------------------------------------------------------
# the live path against the frozen one


@pytest.mark.parametrize("streaming", (True, False), ids=("streaming", "allocating"))
@pytest.mark.parametrize("replacement", POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_seeded_streams_match_reference(seed, replacement, streaming):
    gpu = cramped_gpu(replacement=replacement, streaming=streaming)
    assert_equivalent(gpu, seeded_stream(seed, gpu))


def test_streams_reach_every_structural_outcome():
    """The equivalence above is not vacuous: across the seeded streams
    the caches report MSHR-full stalls, reservation failures, pending
    hits, bypasses and dirty evictions, and the reservation servers
    report contention."""
    seen = {}
    for streaming in (True, False):
        gpu = cramped_gpu(streaming=streaming, mshr_max_merge=2)
        for seed in range(4):
            for name, counters in assert_equivalent(
                gpu, seeded_stream(seed, gpu)
            ).items():
                for counter, value in counters.items():
                    key = (name.rstrip("0123456789"), counter)
                    seen[key] = seen.get(key, 0) + value
    for key in (
        ("l1_sm", "mshr_full_stalls"), ("l1_sm", "reservation_fails"),
        ("l1_sm", "pending_hits"), ("l1_sm", "bypasses"),
        ("l1_sm", "sector_hits"), ("l2_slice", "mshr_full_stalls"),
        ("l2_slice", "pending_hits"), ("l2_slice", "evictions_dirty"),
        ("l2_slice", "writeback_sectors"), ("noc", "stall_cycles"),
        ("dram", "stall_cycles"), ("dram", "row_hits"), ("dram", "writes"),
        ("memory", "l1_bank_stall_cycles"),
    ):
        assert seen.get(key, 0) > 0, f"no stream exercised {key}"


@pytest.mark.parametrize("flits_per_cycle", (1, 2, 3))
def test_wide_and_narrow_noc_ports_match_reference(flits_per_cycle):
    gpu = cramped_gpu(flits_per_cycle=flits_per_cycle)
    assert_equivalent(gpu, seeded_stream(11, gpu))


def test_full_size_caches_match_reference(tiny_gpu):
    assert_equivalent(tiny_gpu, seeded_stream(5, tiny_gpu, length=400))


instructions = st.tuples(
    st.integers(0, 3),                               # sm
    st.sampled_from(("load", "store", "atomic")),
    st.integers(0, 63),                              # base line
    st.sampled_from((4, 32, LINE, 4 * LINE, 16 * LINE)),  # lane stride
    st.sampled_from((1, 4, 32)),                     # lanes
    st.sampled_from((0, 0, 1, 3, 50, 500)),          # cycles until the next
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(instructions, min_size=1, max_size=60),
    st.sampled_from(POLICIES),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 2),
)
def test_drawn_streams_match_reference(
    drawn, replacement, streaming, mshr_entries, mshr_max_merge, assoc
):
    gpu = cramped_gpu(replacement, streaming, mshr_entries, mshr_max_merge, assoc)
    stream, cycle = [], 0
    for pc, (sm_id, kind, line, stride, lanes, gap) in enumerate(drawn):
        addresses = strided(line * LINE, stride, lanes)
        stream.append((sm_id, instruction(kind, pc * 16, addresses), cycle))
        cycle += gap
    assert_equivalent(gpu, stream)


@pytest.mark.parametrize("app_name", ("bfs", "atax", "gemm", "backprop"))
def test_whole_runs_match_reference(app_name):
    """Assembled into swift-basic: same cycles, same kernel boundaries,
    every counter of every module equal."""
    gpu = make_tiny_gpu().with_l1(mshr_entries=4)
    app = make_app(app_name, scale="tiny")
    live = SwiftSimBasic(gpu).simulate(app)
    with reference_memory():
        reference = SwiftSimBasic(gpu).simulate(app)
    findings = compare_results(app_name, live, reference,
                               ignore_counters=frozenset(),
                               labels=("live", "reference"))
    assert not findings, "\n".join(f.message for f in findings)


def test_reference_is_the_reference():
    """The swap really assembles the frozen class (and undoes itself)."""
    import repro.simulators.base as assembly

    with reference_memory():
        assert assembly.QueuedMemorySystem is ReferenceQueuedMemorySystem
    assert assembly.QueuedMemorySystem is QueuedMemorySystem


# ----------------------------------------------------------------------
# the one routing call


@given(st.integers(0, 1 << 40), st.integers(1, 64))
def test_route_line_is_the_two_mappings(line, partitions):
    assert route_line(line, partitions) == (
        partition_for_line(line, partitions),
        slice_line_addr(line, partitions),
    )
