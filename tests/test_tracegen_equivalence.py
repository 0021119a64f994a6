"""The trace generator against its frozen per-lane reference.

``tracegen_reference.py`` holds the address patterns and the emitting
``WarpBuilder`` methods as they were before full-warp accesses became
``range`` runs.  Every application must serialize to the same bytes and
hash to the same key from either generator, and every pattern must
return the same list (or raise the same exception) for any argument,
partial lanes, wrapping runs and negative offsets included.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.tracegen.base as tracegen_base
import repro.tracegen.kernels as tracegen_kernels
import repro.tracegen.patterns as live
from repro.frontend.trace import WARP_SIZE, ApplicationTrace
from repro.frontend.trace_io import save_trace
from repro.serve.keys import trace_hash
from repro.tracegen.base import Scale
from repro.tracegen.suites import APPLICATIONS

import tracegen_reference as reference

#: The pattern names the kernel bodies import, all frozen in the reference.
PATTERNS = (
    "broadcast_pattern", "coalesced_pattern", "partial_row_pattern",
    "random_pattern", "shared_offsets", "stencil_pattern", "strided_pattern",
)


def _generate(name: str, scale: str) -> ApplicationTrace:
    """The registered factory, unmemoised (``make_app``'s reference)."""
    suite, factory = APPLICATIONS[name]
    return ApplicationTrace(name, factory(Scale.parse(scale)), suite=suite)


@pytest.fixture
def reference_generator(monkeypatch):
    """Swap the reference patterns and builder into the kernel bodies."""

    def generate(name: str, scale: str) -> ApplicationTrace:
        with monkeypatch.context() as patch:
            for pattern in PATTERNS:
                patch.setattr(tracegen_kernels, pattern, getattr(reference, pattern))
            patch.setattr(tracegen_base, "WarpBuilder", reference.WarpBuilder)
            return _generate(name, scale)

    return generate


class TestApplicationsAreByteIdentical:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_save_trace_and_trace_hash(self, name, scale, reference_generator, tmp_path):
        frozen = reference_generator(name, scale)
        current = _generate(name, scale)
        save_trace(frozen, tmp_path / "reference.trace")
        save_trace(current, tmp_path / "live.trace")
        assert (tmp_path / "live.trace").read_bytes() == (
            tmp_path / "reference.trace"
        ).read_bytes()
        assert trace_hash(current) == trace_hash(frozen)


def outcome(module, pattern, *args, **kwargs):
    """What one pattern call does: its addresses, or the exception it raises."""
    try:
        return "ok", getattr(module, pattern)(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference
        return "raised", type(exc)


def assert_same(pattern, *args, **kwargs):
    """The live pattern gives the reference's list, as that list or as the
    ``range`` it spells (the run form)."""
    got = outcome(live, pattern, *args, **kwargs)
    expected = outcome(reference, pattern, *args, **kwargs)
    if got[0] == "ok":
        assert type(got[1]) in (list, range)
        got = ("ok", list(got[1]))
    assert got == expected


FULL = list(range(WARP_SIZE))

#: The whole warp (the run form), any active subset in lane order (the
#: per-lane form), and the whole warp as a tuple (not the run form).
lanes = st.one_of(
    st.just(FULL),
    st.lists(st.integers(0, WARP_SIZE - 1), unique=True, max_size=WARP_SIZE).map(sorted),
    st.just(tuple(FULL)),
)
regions = st.integers(0, 8)
element_sizes = st.integers(-2, 16)
offsets = st.integers(-70, 70)


class TestPatternsMatchTheReference:
    @pytest.mark.parametrize("past", [-1, 0, 1, 2])
    @pytest.mark.parametrize("start", [0, 5, 96, 1000])
    def test_full_warp_runs_at_and_past_the_wrap(self, start, past):
        """Lane 31 one before, on, and one or two past the wrap point."""
        assert_same("coalesced_pattern", 1, start, FULL,
                    wrap_elements=(start + 1) * WARP_SIZE + past)
        assert_same("strided_pattern", 1, start, FULL, stride_bytes=36,
                    wrap_bytes=start * 4 + (WARP_SIZE - 1) * 36 + past)
        for offset_cols in (-3, 0, 3):
            assert_same("stencil_pattern", 1, 7, start, FULL,
                        start * WARP_SIZE + offset_cols + WARP_SIZE + past,
                        offset_rows=-1, offset_cols=offset_cols)

    @given(st.data(), regions, st.integers(0, 1 << 24), lanes, element_sizes)
    @settings(max_examples=300, deadline=None)
    def test_coalesced(self, data, region, index, lane_list, element_bytes):
        # Lane 31 lands exactly on, just inside and just past the wrap.
        end = (index + 1) * WARP_SIZE
        wrap = data.draw(st.one_of(
            st.sampled_from([end - 1, end, end + 1]),
            st.integers(-64, 1 << 23),
        ))
        assert_same("coalesced_pattern", region, index, lane_list,
                    element_bytes=element_bytes, wrap_elements=wrap)

    @given(st.data(), regions, st.integers(0, 1 << 20), lanes,
           st.integers(-8, 1024), element_sizes)
    @settings(max_examples=300, deadline=None)
    def test_strided(self, data, region, index, lane_list, stride, element_bytes):
        last = index * element_bytes + (WARP_SIZE - 1) * stride
        wrap = data.draw(st.one_of(
            st.sampled_from([last, last + 1, last + 2]),
            st.integers(-64, 1 << 26),
        ))
        assert_same("strided_pattern", region, index, lane_list,
                    stride_bytes=stride, element_bytes=element_bytes,
                    wrap_bytes=wrap)

    @given(st.data(), regions, st.integers(-4, 4096), st.integers(0, 64), lanes,
           offsets, offsets, element_sizes)
    @settings(max_examples=300, deadline=None)
    def test_stencil(self, data, region, row, col_block, lane_list,
                     offset_rows, offset_cols, element_bytes):
        end = col_block * WARP_SIZE + offset_cols + WARP_SIZE
        width = data.draw(st.one_of(
            st.sampled_from([end - 1, end, end + 1]),
            st.integers(-8, 4096),
        ))
        assert_same("stencil_pattern", region, row, col_block, lane_list, width,
                    offset_rows=offset_rows, offset_cols=offset_cols,
                    element_bytes=element_bytes)

    @given(lanes, st.integers(-4, 40), st.integers(-64, 4096))
    @settings(max_examples=200, deadline=None)
    def test_shared_offsets(self, lane_list, stride_words, base_word):
        assert_same("shared_offsets", lane_list, stride_words=stride_words,
                    base_word=base_word)

    @given(regions, st.integers(0, 1 << 20), lanes, st.integers(0, 8192),
           element_sizes)
    @settings(max_examples=200, deadline=None)
    def test_partial_row(self, region, row_index, lane_list, row_bytes, element_bytes):
        assert_same("partial_row_pattern", region, row_index, lane_list,
                    row_bytes=row_bytes, element_bytes=element_bytes)

    @given(regions, st.integers(-8, 1 << 20), lanes)
    @settings(max_examples=100, deadline=None)
    def test_broadcast(self, region, index, lane_list):
        assert_same("broadcast_pattern", region, index, lane_list)

    @given(regions, st.integers(0, 2 ** 32), lanes, st.integers(1, 1 << 20),
           st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_random_draws_in_the_same_order(self, region, seed, lane_list,
                                            footprint, element_bytes):
        live_rng, reference_rng = random.Random(seed), random.Random(seed)
        assert live.random_pattern(
            region, live_rng, lane_list, footprint, element_bytes
        ) == reference.random_pattern(
            region, reference_rng, lane_list, footprint, element_bytes
        )
        assert live_rng.getstate() == reference_rng.getstate()
