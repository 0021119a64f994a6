"""The fused single-walk pre-characterization pass against its reference.

``precharacterize_reference.py`` is a frozen copy of the two-walk pass
(and of the ``_Fenwick``-based reuse stack) this pass replaced; tasklist
``__eq__`` compares every scalar field and every array, so equality here
is the bit-identity the closed-form tier's golden numbers rest on.
"""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.frontend.precharacterize import precharacterize
from repro.memory.reuse_distance import LRUStack
from repro.tracegen.suites import APPLICATIONS, make_app

from precharacterize_reference import _LRUStack as ReferenceStack
from precharacterize_reference import reference_precharacterize

#: Memory-bound, divergent, shared-memory and compute-bound, one each.
SMALL_APPS = ("bfs", "pagerank", "sm", "gemm")


class TestTasklistEquivalence:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_every_app_at_tiny(self, name):
        app = make_app(name, scale="tiny")
        assert precharacterize(app) == reference_precharacterize(app)

    @pytest.mark.parametrize("name", SMALL_APPS)
    def test_four_apps_at_small(self, name):
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
