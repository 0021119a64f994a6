"""Sharing instructions between warps is unobservable.

Both trace producers hand the warps of a kernel one object per distinct
address-free instruction.  :func:`unshared` is the frozen reference: the
same trace with every instruction *position* rebuilt as its own
``TraceInstruction`` from the six constructor fields, which is what both
producers built before.  Every simulator must give the same cycles and
the same counters on the generated, the unshared and the reloaded trace,
the three must hash and serialise alike, and no simulator may write to a
trace it is given.
"""

import pytest

from repro import (
    AccelSimLike,
    IntervalSimulator,
    SwiftSimAnalytic,
    SwiftSimBasic,
    SwiftSimMemory,
)
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)
from repro.frontend.trace_io import load_trace, save_trace
from repro.serve.keys import trace_hash
from repro.tracegen.suites import make_app

SIMULATORS = (
    AccelSimLike, SwiftSimBasic, SwiftSimMemory, SwiftSimAnalytic, IntervalSimulator,
)
HYBRIDS = (SwiftSimBasic, SwiftSimMemory)

CASES = [
    (simulator, name, "tiny")
    for simulator in SIMULATORS for name in ("gemm", "bfs", "lstm", "sm")
] + [
    (simulator, name, "small") for simulator in HYBRIDS for name in ("bfs", "adi")
]

#: ``trace_hash`` at the parent of the change that introduced sharing and
#: typed address arrays: the store key of a trace must not drift.
PINNED_DIGESTS = {
    "gemm": "10c3d750611b3c388be6ef9ad98988b41aeec566060611c1109d03a709eb790c",
    "bfs": "7c8845acb9c5211a3cadfba5d62efca8003ce52fd721cecc7b54c405ae8a2c0a",
}


def unshared(app: ApplicationTrace) -> ApplicationTrace:
    """``app`` with a fresh instruction object at every position."""
    return ApplicationTrace(app.name, [
        KernelTrace(kernel.name, [
            BlockTrace(block.block_id, [
                WarpTrace(warp.warp_id, [
                    TraceInstruction(
                        inst.pc, inst.opcode, inst.dest_regs, inst.src_regs,
                        inst.active_mask, list(inst.addresses),
                    )
                    for inst in warp.instructions
                ])
                for warp in block.warps
            ], shared_mem_bytes=block.shared_mem_bytes,
                regs_per_thread=block.regs_per_thread)
            for block in kernel.blocks
        ], grid_dim=kernel.grid_dim)
        for kernel in app.kernels
    ], suite=app.suite)


def distinct_objects(app: ApplicationTrace) -> int:
    return len({
        id(inst)
        for kernel in app.kernels for block in kernel.blocks
        for warp in block.warps for inst in warp.instructions
    })


_TRACES = {}


def three_forms(name, scale, tmp_path_factory):
    """The generated, the unshared and the reloaded trace of one app."""
    key = (name, scale)
    if key not in _TRACES:
        app = make_app(name, scale=scale)
        path = tmp_path_factory.mktemp("sharing") / f"{name}.trace"
        save_trace(app, path)
        _TRACES[key] = (app, unshared(app), load_trace(path))
    return _TRACES[key]


def observed(result):
    metrics = result.metrics
    return (
        result.total_cycles,
        [(k.name, k.start_cycle, k.end_cycle, k.instructions) for k in result.kernels],
        None if metrics is None else metrics.per_module,
    )


class TestSharingIsUnobservable:
    @pytest.mark.parametrize(
        "simulator,name,scale", CASES,
        ids=[f"{s.__name__}-{n}-{scale}" for s, n, scale in CASES],
    )
    def test_same_cycles_and_counters_and_no_write(
        self, simulator, name, scale, tiny_gpu, tmp_path_factory
    ):
        forms = three_forms(name, scale, tmp_path_factory)
        digest = trace_hash(forms[0])
        results = []
        for trace in forms:
            assert trace_hash(trace) == digest
            results.append(observed(simulator(tiny_gpu).simulate(trace)))
            assert trace_hash(trace) == digest, "a simulator wrote to its trace"
        assert results[0][0] > 0
        assert results[1] == results[0], "unshared trace simulates differently"
        assert results[2] == results[0], "reloaded trace simulates differently"

    @pytest.mark.parametrize("name", ("gemm", "bfs", "lstm", "sm"))
    def test_three_forms_hash_and_serialise_alike(self, name, tmp_path, tmp_path_factory):
        app, fresh, loaded = three_forms(name, "tiny", tmp_path_factory)
        # The reference really is unshared, and both producers really share.
        assert distinct_objects(fresh) == fresh.num_instructions
        assert distinct_objects(app) == distinct_objects(loaded) < app.num_instructions
        texts = []
        for index, trace in enumerate((app, fresh, loaded)):
            path = tmp_path / f"{index}.trace"
            save_trace(trace, path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        for kernel, other in zip(app.kernels, fresh.kernels):
            for block, other_block in zip(kernel.blocks, other.blocks):
                for warp, other_warp in zip(block.warps, other_block.warps):
                    assert warp.instructions == other_warp.instructions

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_store_key_of_a_trace_has_not_drifted(self, name):
        assert trace_hash(make_app(name, scale="tiny")) == PINNED_DIGESTS[name]

    def test_sharing_stops_at_the_kernel(self):
        """The table dies with the kernel: two kernels never share."""
        app = make_app("lstm", scale="tiny")
        assert len(app.kernels) > 1
        seen = [
            {id(inst) for block in kernel.blocks for warp in block.warps
             for inst in warp.instructions}
            for kernel in app.kernels
        ]
        for index, ids in enumerate(seen):
            for other in seen[index + 1:]:
                assert not ids & other
