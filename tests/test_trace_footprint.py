"""What a trace holds in memory, as exact, host-independent counts.

A trace holds each thing once: a memory instruction is one object whose
addresses are the ``range`` they spell when they form an arithmetic run
and one 8-byte-per-lane typed array otherwise, and the warps of a kernel
share one object per distinct address-free instruction.  The numbers are
for the eight applications ``benchmarks/perf`` simulates, at the scale it
uses; before sharing every one of the 67 707 positions was its own
object and the eight pickled to 8 076 153 bytes, and with one typed
array per memory instruction to 6 593 725 bytes.
"""

import pickle
from array import array

import pytest

from repro.frontend.trace_io import load_trace, save_trace
from repro.tracegen.suites import make_app

BENCHMARK_APPS = ("bfs", "adi", "pagerank", "atax", "gemm", "2mm", "lstm", "sm")

#: Warp instructions and distinct instruction objects over the eight apps.
INSTRUCTIONS = 67_707
DISTINCT_OBJECTS = 21_154

#: ``sum(len(pickle.dumps(app)))`` over the eight apps (what
#: ``ParallelSimulator`` ships per task, and the bulk of a guard
#: checkpoint): 8 076 153 with an object per position and a tuple of ints
#: per address list, then this with an ``array("Q")`` per memory
#: instruction ...
ARRAY_PICKLE_BYTES = 6_593_725
#: ... and this with a ``range`` per run.
PICKLE_BYTES = 2_572_737

#: Memory instructions over the eight apps whose addresses are a run, and
#: the rest.
RUNS, ARRAYS = 15_956, 3_323

#: The one empty tuple every address-free instruction holds.
NO_ADDRESSES = ()


@pytest.fixture(scope="module")
def apps(tmp_path_factory):
    """``name -> (generated, reloaded)``."""
    directory = tmp_path_factory.mktemp("footprint")
    pairs = {}
    for name in BENCHMARK_APPS:
        app = make_app(name, scale="small")
        path = directory / f"{name}.trace"
        save_trace(app, path)
        pairs[name] = (app, load_trace(path))
    return pairs


def census(app):
    """``(positions, distinct objects, memory instructions, distinct
    address-free (kernel, value) keys)`` of one application."""
    positions = memory = 0
    objects = set()
    values = set()
    for index, kernel in enumerate(app.kernels):
        for block in kernel.blocks:
            for warp in block.warps:
                for inst in warp.instructions:
                    positions += 1
                    objects.add(id(inst))
                    if inst.is_memory:
                        memory += 1
                    else:
                        values.add((index, inst.pc, inst.opcode, inst.dest_regs,
                                    inst.src_regs, inst.active_mask))
    return positions, len(objects), memory, len(values)


def is_run(values):
    """Whether ``values`` step by one nonzero amount (one lane is a run)."""
    steps = {b - a for a, b in zip(values, values[1:])}
    return len(values) == 1 or (len(steps) == 1 and 0 not in steps)


def form_counts(app):
    """``{range: n, array: m}`` over the memory instructions of ``app``,
    checking each one's form against its values."""
    counts = {range: 0, array: 0}
    for kernel in app.kernels:
        for block in kernel.blocks:
            for warp in block.warps:
                for inst in warp.instructions:
                    addresses = inst.addresses
                    if not inst.is_memory:
                        assert addresses is NO_ADDRESSES
                        continue
                    counts[type(addresses)] += 1
                    assert len(addresses) == inst.active_threads
                    assert is_run(list(addresses)) == (type(addresses) is range)
                    if type(addresses) is array:
                        assert addresses.typecode == "Q"
                        assert addresses.itemsize == 8
    return counts


class TestTraceFootprint:
    def test_one_object_per_memory_instruction_and_per_distinct_value(self, apps):
        positions = objects = 0
        for name, (generated, reloaded) in apps.items():
            count, distinct, memory, values = census(generated)
            assert distinct == memory + values, name
            assert census(reloaded) == (count, distinct, memory, values), name
            positions += count
            objects += distinct
        assert (positions, objects) == (INSTRUCTIONS, DISTINCT_OBJECTS)

    def test_addresses_are_a_run_range_a_typed_array_or_the_one_empty_tuple(
        self, apps
    ):
        totals = {range: 0, array: 0}
        for generated, reloaded in apps.values():
            forms = [form_counts(app) for app in (generated, reloaded)]
            assert forms[0] == forms[1]
            for form, count in forms[0].items():
                totals[form] += count
        assert (totals[range], totals[array]) == (RUNS, ARRAYS)

    def test_pickle_is_no_larger_than_before(self, apps):
        total = 0
        for generated, __ in apps.values():
            blob = pickle.dumps(generated)
            total += len(blob)
            # Sharing survives the round trip ParallelSimulator makes.
            assert census(pickle.loads(blob)) == census(generated)
        assert total == PICKLE_BYTES < ARRAY_PICKLE_BYTES
