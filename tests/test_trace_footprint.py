"""What a trace holds in memory, as exact, host-independent counts.

A trace holds each thing once: a memory instruction is one object whose
addresses are one 8-byte-per-lane typed array, and the warps of a kernel
share one object per distinct address-free instruction.  The numbers are
for the eight applications ``benchmarks/perf`` simulates, at the scale it
uses; before sharing every one of the 67 707 positions was its own
object and the eight pickled to 8 076 153 bytes.
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

#: ``sum(len(pickle.dumps(app)))`` over the eight apps with an object per
#: position and a tuple of ints per address list (what ``ParallelSimulator``
#: shipped per task, and the bulk of a guard checkpoint).
PARENT_PICKLE_BYTES = 8_076_153

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

    def test_addresses_are_one_typed_array_or_the_one_empty_tuple(self, apps):
        for generated, reloaded in apps.values():
            for app in (generated, reloaded):
                for kernel in app.kernels:
                    for block in kernel.blocks:
                        for warp in block.warps:
                            for inst in warp.instructions:
                                addresses = inst.addresses
                                if inst.is_memory:
                                    assert type(addresses) is array
                                    assert addresses.typecode == "Q"
                                    assert addresses.itemsize == 8
                                    assert len(addresses) == inst.active_threads
                                else:
                                    assert addresses is NO_ADDRESSES

    def test_pickle_is_no_larger_than_before(self, apps):
        total = 0
        for generated, __ in apps.values():
            blob = pickle.dumps(generated)
            total += len(blob)
            # Sharing survives the round trip ParallelSimulator makes.
            assert census(pickle.loads(blob)) == census(generated)
        assert total <= PARENT_PICKLE_BYTES
