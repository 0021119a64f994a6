"""The fused single-walk pre-characterization pass against its reference.

``precharacterize_reference.py`` is a frozen copy of the two-walk pass
(and of the ``_Fenwick``-based reuse stack) this pass replaced; tasklist
``__eq__`` compares every scalar field and every array, so equality here
is the bit-identity the closed-form tier's golden numbers rest on.  The
live pass dedupes each instruction's sectors with numpy
(:func:`~repro.frontend.precharacterize.first_touch`), held here to
``touched_sectors`` directly as well.
"""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

import numpy as np

from repro.frontend.precharacterize import first_touch, precharacterize
from repro.frontend.trace import (
    ApplicationTrace, BlockTrace, KernelTrace, TraceInstruction, WarpTrace,
)
from repro.memory.access import touched_sectors
from repro.memory.reuse_distance import LRUStack
from repro.tracegen.suites import APPLICATIONS, make_app

from precharacterize_reference import _LRUStack as ReferenceStack
from precharacterize_reference import reference_precharacterize


class TestTasklistEquivalence:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_every_app_at_tiny(self, name):
        app = make_app(name, scale="tiny")
        assert precharacterize(app) == reference_precharacterize(app)

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_every_app_at_small(self, name):
        app = make_app(name, scale="small")
        assert precharacterize(app) == reference_precharacterize(app)

    def test_class_totals_agree_with_the_trace(self):
        """The instruction-class totals, now column sums of the per-warp
        term rows, still account for every priced instruction."""
        app = make_app("hotspot", scale="tiny")
        for kernel, summary in zip(app.kernels, precharacterize(app).kernels):
            priced = (
                sum(summary.unit_counts.values()) + summary.ldst_insts
                + summary.shared_insts + summary.branch_insts
                + summary.sync_insts
            )
            # Every instruction but each warp's EXIT is priced.
            assert priced == kernel.num_instructions - kernel.num_warps
            assert summary.ldst_insts == (
                summary.global_loads + summary.global_stores
            )


TOP = (1 << 64) - 1


@st.composite
def lane_runs(draw):
    """1..32 lanes stepping either way, near address 0 or near the top:
    a negative step is expanded through numpy's uint64 wrap."""
    count = draw(st.integers(1, 32))
    step = draw(st.sampled_from((4, 8, 36, 128, 4096, -4, -8, -36, -128, -4096)))
    span = (count - 1) * abs(step)
    low = draw(st.one_of(st.integers(0, 512), st.integers(TOP - span - 512, TOP - span)))
    first = low if step > 0 else low + span
    return [first + lane * step for lane in range(count)]


memory_lanes = st.one_of(
    lane_runs(),
    st.lists(st.integers(0, 4096), min_size=1, max_size=32),
    st.integers(0, 4096).map(lambda address: [address] * 32),
)


@st.composite
def run_kernels(draw):
    """One kernel whose warps load and store runs of both signs, gathers
    and broadcasts, with an address-free instruction between."""
    blocks = []
    for block_id in range(draw(st.integers(1, 2))):
        warps = []
        for warp_id in range(draw(st.integers(1, 3))):
            insts = []
            for position, lanes in enumerate(
                draw(st.lists(memory_lanes, min_size=1, max_size=6))
            ):
                pc = 32 * position
                mask = (1 << len(lanes)) - 1
                if draw(st.booleans()):
                    insts.append(TraceInstruction(
                        pc, "LDG", (8 + position,), (), mask, lanes))
                else:
                    insts.append(TraceInstruction(
                        pc, "STG", (), (8,), mask, lanes))
                insts.append(TraceInstruction(pc + 16, "IADD3", (8,), (8 + position,)))
            insts.append(TraceInstruction(32 * len(insts), "EXIT"))
            warps.append(WarpTrace(warp_id, insts))
        blocks.append(BlockTrace(block_id, warps))
    return ApplicationTrace("runs", [KernelTrace("runs", blocks)])


class TestRunExpansion:
    """Runs reach the sector stream as ranges and are expanded in numpy;
    the tasklist equals the reference's, which walks every lane."""

    @given(run_kernels())
    @settings(max_examples=150, deadline=None)
    def test_tasklists_equal_the_reference(self, app):
        assert precharacterize(app) == reference_precharacterize(app)

    def test_negative_steps_near_both_ends(self):
        lanes = [
            list(range(TOP - 3, TOP - 3 - 32 * 4, -4)),     # down from the top
            list(range(31 * 128, -1, -128)),                # down to 0
            list(range(0, 32 * 36, 36)),
            [TOP] * 32,
            list(range(TOP - 8 * 4096 + 1, TOP, 4096))[::-1],
        ]
        insts = [
            TraceInstruction(16 * i, "LDG", (8 + i,), (), (1 << len(l)) - 1, l)
            for i, l in enumerate(lanes)
        ]
        assert all(type(inst.addresses) is range for inst in insts[:3])
        app = ApplicationTrace("down", [KernelTrace("down", [BlockTrace(0, [
            WarpTrace(0, insts + [TraceInstruction(16 * len(insts), "EXIT")])
        ])])])
        tasklist = precharacterize(app)
        assert tasklist == reference_precharacterize(app)
        assert tasklist.kernels[0].load_transactions == sum(
            len(touched_sectors(l, 32)) for l in lanes)


def naive_stack_distances(stream):
    """Stack distance by keeping the blocks in an MRU-ordered list."""
    distances = []
    mru = []  # most recently used last
    for block in stream:
        if block in mru:
            distances.append(len(mru) - mru.index(block) - 1)
            mru.remove(block)
        else:
            distances.append(None)
        mru.append(block)
    return distances


#: Sector streams with the three regimes that matter: a small hot set
#: (repeats at short distance), a huge cold range (cold misses, which
#: also push the hot set's reuses out to long gaps), and a medium set.
sector_streams = st.lists(
    st.one_of(
        st.integers(0, 7),
        st.integers(0, 63),
        st.integers(0, 2 ** 40),
    ),
    max_size=600,
)


class TestReuseStack:
    @given(sector_streams)
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_and_reference_stacks(self, stream):
        stack, reference = LRUStack(), ReferenceStack()
        measured = [stack.access(sector) for sector in stream]
        assert measured == naive_stack_distances(stream)
        assert measured == [reference.access((s >> 2, s & 3)) for s in stream]

    def test_long_gap_across_tree_growth(self):
        """One block re-touched after 5000 distinct others: the prefix
        walk and the mark move cross many power-of-two node boundaries."""
        stack = LRUStack()
        assert stack.access("hot") is None
        for sector in range(5000):
            assert stack.access(sector) is None
        assert stack.access("hot") == 5000
        assert stack.access(0) == 5000
        assert stack.access("hot") == 1


#: One instruction's addresses: 1..32 lanes over a few sectors (repeats
#: adjacent and apart) or over a wide range, including the top sector.
instruction_addresses = st.lists(
    st.one_of(
        st.integers(0, 255),
        st.integers(0, 2 ** 20),
        st.integers(2 ** 64 - 64, 2 ** 64 - 1),
    ),
    min_size=1,
    max_size=32,
)


class TestFirstTouch:
    @given(st.lists(instruction_addresses, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_touched_sectors_per_instruction(self, instructions):
        stream = [address for lanes in instructions for address in lanes]
        sectors = np.asarray(stream, dtype=np.uint64) // 32
        inst_ids = np.repeat(
            np.arange(len(instructions)), [len(lanes) for lanes in instructions]
        )
        kept = sectors[first_touch(sectors, inst_ids)].tolist()
        assert kept == [
            sector for lanes in instructions
            for sector in touched_sectors(lanes, 32)
        ]

    def test_single_lane_and_empty_streams(self):
        one = np.asarray([7], dtype=np.uint64)
        assert first_touch(one, np.zeros(1, dtype=np.int64)).tolist() == [True]
        none = np.zeros(0, dtype=np.uint64)
        assert first_touch(none, np.zeros(0, dtype=np.int64)).tolist() == []
