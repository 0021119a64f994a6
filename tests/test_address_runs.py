"""How a memory instruction stores its addresses, decided by value.

``TraceInstruction`` holds a warp's addresses as the canonical ``range``
they spell when they form an arithmetic run (nonzero step; one lane is
``range(a, a + 1)``) and as an ``array("Q")`` otherwise, whatever form
they were handed in.  These properties hold that rule over runs with
positive and negative steps, single lanes, broadcasts (step 0) and
non-runs, at both ends of the 64-bit address space; the faults keep the
words they had when every address list was an array.
"""

import pickle
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TraceError
from repro.frontend.trace import WARP_SIZE, TraceInstruction

TOP = (1 << 64) - 1


def is_run(values):
    """One nonzero step between every pair of neighbours (a lane alone is
    a run)."""
    steps = {b - a for a, b in zip(values, values[1:])}
    return len(values) == 1 or (len(steps) == 1 and 0 not in steps)


def memory(addresses, opcode="LDG"):
    mask = (1 << len(addresses)) - 1
    return TraceInstruction(0x40, opcode, (5,), (4,), mask, addresses)


def fault(addresses):
    """The message every address list has raised since addresses became
    an ``array("Q")``: a negative address named apart from the rest."""
    try:
        negative = min(addresses) < 0
    except TypeError:
        negative = False
    reason = "negative address" if negative else "an address is not a 64-bit integer"
    return f"LDG at pc 0x40: {reason}"


@st.composite
def runs(draw):
    """A run of 1..32 lanes starting near 0 or near the top, stepping
    either way, that stays inside the 64-bit address space."""
    count = draw(st.integers(1, WARP_SIZE))
    step = draw(st.one_of(st.integers(1, 4096), st.integers(-4096, -1)))
    span = (count - 1) * abs(step)
    low = draw(st.one_of(st.integers(0, 4096), st.integers(TOP - span - 4096, TOP - span)))
    low = max(0, low)
    assume(low + span <= TOP)
    first = low if step > 0 else low + span
    return [first + lane * step for lane in range(count)]


broadcasts = st.tuples(
    st.one_of(st.integers(0, 4096), st.integers(TOP - 4096, TOP)),
    st.integers(2, WARP_SIZE),
).map(lambda pair: [pair[0]] * pair[1])

others = st.lists(
    st.one_of(st.integers(0, 4096), st.integers(TOP - 4096, TOP)),
    min_size=1, max_size=WARP_SIZE,
)

address_lists = st.one_of(runs(), broadcasts, others)


class TestStoredForm:
    @given(address_lists, st.sampled_from([list, tuple, array]))
    @settings(max_examples=300, deadline=None)
    def test_a_range_if_and_only_if_a_run(self, addresses, form):
        handed = array("Q", addresses) if form is array else form(addresses)
        stored = memory(handed).addresses
        assert list(stored) == addresses
        assert (type(stored) is range) == is_run(addresses)
        if type(stored) is range:
            step = stored.step
            assert step == (addresses[1] - addresses[0] if len(addresses) > 1 else 1)
            assert stored.stop == stored.start + len(addresses) * step
        else:
            assert type(stored) is array and stored.typecode == "Q"

    @given(runs(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_a_range_is_stored_canonically(self, addresses, extra):
        """A run handed in as a ``range`` with a loose ``stop`` (any stop
        that spells the same lanes) is stored as the list's own range."""
        first, count = addresses[0], len(addresses)
        step = addresses[1] - first if count > 1 else 1 + extra
        loose = range(first, first + (count - 1) * step + (1 if step > 0 else -1), step)
        assert list(loose) == addresses
        assert memory(loose).addresses == memory(addresses).addresses
        assert pickle.dumps(memory(loose).addresses) == pickle.dumps(
            memory(addresses).addresses)

    def test_the_forms_named(self):
        assert memory([0x100]).addresses == range(0x100, 0x101)
        assert memory([TOP]).addresses == range(TOP, TOP + 1)
        assert memory([8, 4, 0]).addresses == range(8, -4, -4)
        assert memory([TOP, TOP - 8]).addresses == range(TOP, TOP - 16, -8)
        assert type(memory([7, 7]).addresses) is array
        assert type(memory([0, 4, 12]).addresses) is array
        assert type(memory([0, 4, 8], opcode="LDS").addresses) is range
        assert TraceInstruction(0, "IADD3", (1,), (2,)).addresses == ()

    def test_a_numpy_run_is_a_range(self):
        np = pytest.importorskip("numpy")
        lanes = np.arange(64, 0, -8, dtype=np.uint64)
        assert memory(list(lanes)).addresses == range(64, 0, -8)
        assert memory(lanes).addresses == range(64, 0, -8)


class TestFaults:
    @pytest.mark.parametrize("addresses", [
        [-1], [-8, -4, 0], [0, -4], [1 << 64], [TOP, TOP + 1],
        [TOP - 4, TOP, TOP + 4], [1.5], [8.0], [0, 4, 8.0], [0, 4.0, 8],
        ["0x10"], [None], [0x10, 2.0], [0, 4, "8"], [0, 4, None, 12],
        [0, 4, 8 + 0j], [-1, 1 << 64], [1 << 64, -1],
    ])
    def test_named_faults_keep_their_words(self, addresses):
        with pytest.raises(TraceError) as raised:
            memory(addresses)
        assert str(raised.value) == fault(addresses)

    @pytest.mark.parametrize("run", [
        range(-8, 24, 4), range(8, -24, -4), range(TOP - 4, TOP + 12, 4),
        range(TOP + 4, TOP - 12, -4), range(-1, 0), range(1 << 64, (1 << 64) + 1),
    ])
    def test_a_range_faults_like_its_list(self, run):
        with pytest.raises(TraceError) as as_range:
            memory(run)
        with pytest.raises(TraceError) as as_list:
            memory(list(run))
        assert str(as_range.value) == str(as_list.value) == fault(list(run))

    @given(st.lists(
        st.one_of(
            st.integers(-(1 << 70), 1 << 70), st.integers(-64, 64),
            st.integers(TOP - 64, TOP + 64),
            st.floats(allow_nan=False, allow_infinity=False), st.none(),
        ),
        min_size=1, max_size=WARP_SIZE,
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_fault_keeps_its_words(self, addresses):
        valid = all(type(a) is int and 0 <= a <= TOP for a in addresses)
        try:
            stored = memory(addresses).addresses
        except TraceError as exc:
            assert not valid
            assert str(exc) == fault(addresses)
        else:
            assert valid
            assert list(stored) == addresses


class TestValueSemantics:
    @given(runs())
    @settings(max_examples=200, deadline=None)
    def test_list_and_range_built_instructions_are_one_value(self, addresses):
        first, count = addresses[0], len(addresses)
        step = addresses[1] - first if count > 1 else 1
        from_list = memory(addresses)
        from_range = memory(range(first, first + count * step, step))
        assert from_list == from_range
        assert hash(from_list) == hash(from_range)
        assert pickle.dumps(from_list) == pickle.dumps(from_range)
        restored = pickle.loads(pickle.dumps(from_range))
        assert restored == from_list
        assert type(restored.addresses) is range
        assert list(restored.addresses) == addresses

    @given(address_lists)
    @settings(max_examples=200, deadline=None)
    def test_pickle_round_trip_keeps_the_form(self, addresses):
        inst = memory(addresses)
        restored = pickle.loads(pickle.dumps(inst))
        assert restored == inst and hash(restored) == hash(inst)
        assert type(restored.addresses) is type(inst.addresses)
        assert list(restored.addresses) == addresses
