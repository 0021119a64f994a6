"""Property-based tests (hypothesis) for the closed-form analytic tier.

Three contracts, fuzzed rather than spot-checked:

* **batch == scalar, bit-identical** — lane ``i`` of one
  ``evaluate_batch`` call over N configurations equals a single-config
  evaluation of ``configs[i]``, for any batch composition and in any
  order.  This is what makes the batched sweep path trustworthy.
* **pre-characterization is a pure function of the trace** — the same
  application yields value-identical tasklists across repeated loads,
  from the ``make_app`` memo or straight from the registered factory.
* **predictions are finite, positive, and deterministic** — no NaNs, no
  zero/negative cycle counts, and no sensitivity to RNG seeds (the
  model has no stochastic inputs, so reseeding must change nothing).
"""

import random as stdlib_random

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.eval.sweep import apply_override
from repro.frontend.precharacterize import precharacterize
from repro.frontend.trace import ApplicationTrace
from repro.simulators.swift_analytic import SwiftSimAnalytic
from repro.tracegen.fixtures import (
    compute_only_app,
    independent_alu_app,
    mixed_unit_app,
    serial_chain_app,
)
from repro.tracegen.base import Scale
from repro.tracegen.suites import APPLICATIONS, make_app

from conftest import make_tiny_gpu

GPU = make_tiny_gpu()

#: Module-level apps so the tasklist memo (keyed on object identity)
#: amortizes pre-characterization across hypothesis examples.
APPS = {
    "sm": make_app("sm", scale="tiny"),
    "gemm": make_app("gemm", scale="tiny"),
    "mixed_units": mixed_unit_app(),
}


def _variant(num_sms, l1_factor, l2_factor, max_warps):
    gpu = apply_override(GPU, "num_sms", num_sms)
    gpu = apply_override(gpu, "l1.size_bytes", GPU.l1.size_bytes * l1_factor)
    gpu = apply_override(gpu, "l2.size_bytes", GPU.l2.size_bytes * l2_factor)
    return apply_override(gpu, "sm.max_warps", max_warps)


#: Valid GPU variants: every kernel in the tiny suite fits every one.
config_strategy = st.builds(
    _variant,
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([16, 32, 48]),
)


# ----------------------------------------------------------------------
# batch == scalar bit-identity


class TestBatchScalarIdentity:
    @pytest.mark.parametrize("app_name", sorted(APPS))
    @given(st.lists(config_strategy, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_batch_lane_equals_scalar_eval(self, app_name, configs):
        app = APPS[app_name]
        simulator = SwiftSimAnalytic(GPU)
        batched = simulator.evaluate_batch(app, configs)
        assert batched.dtype == np.int64
        scalar = [
            int(simulator.evaluate_batch(app, [config])[0])
            for config in configs
        ]
        assert [int(v) for v in batched] == scalar

    @given(
        st.lists(config_strategy, min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_order_invariant(self, configs, rng):
        """Reordering the batch permutes the lanes and nothing else."""
        app = APPS["sm"]
        simulator = SwiftSimAnalytic(GPU)
        order = list(range(len(configs)))
        rng.shuffle(order)
        straight = simulator.evaluate_batch(app, configs)
        shuffled = simulator.evaluate_batch(
            app, [configs[i] for i in order]
        )
        for lane, source in enumerate(order):
            assert int(shuffled[lane]) == int(straight[source])

    @given(st.lists(config_strategy, min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_per_kernel_lanes_match_scalar(self, configs):
        """The (K, N) per-kernel matrix obeys the same lane contract as
        the summed totals."""
        app = APPS["gemm"]
        simulator = SwiftSimAnalytic(GPU)
        batched = simulator.kernel_cycles_batch(app, configs)
        assert batched.shape == (len(app.kernels), len(configs))
        for lane, config in enumerate(configs):
            single = simulator.kernel_cycles_batch(app, [config])[:, 0]
            assert np.array_equal(batched[:, lane], single)

    @given(config_strategy)
    @settings(max_examples=25, deadline=None)
    def test_simulate_matches_single_lane_batch(self, config):
        """The SimulationResult path is the batch path, lane 0."""
        app = APPS["sm"]
        result = SwiftSimAnalytic(config).simulate(app)
        batch_total = int(SwiftSimAnalytic(GPU).evaluate_batch(app, [config])[0])
        assert result.total_cycles == batch_total


# ----------------------------------------------------------------------
# pre-characterization purity


class TestPrecharacterizePurity:
    @pytest.mark.parametrize("app_name", ["sm", "gemm", "bfs"])
    def test_same_tasklist_across_repeated_loads(self, app_name):
        """make_app hands out fresh trace wrappers; the tasklists built
        from them must still be value-identical."""
        first = precharacterize(make_app(app_name, scale="tiny"))
        second = precharacterize(make_app(app_name, scale="tiny"))
        assert first == second

    @pytest.mark.parametrize("app_name", ["sm", "gemm"])
    def test_trace_cache_fastpath_invisible(self, app_name):
        cached = precharacterize(make_app(app_name, scale="tiny"))
        suite, factory = APPLICATIONS[app_name]
        uncached = precharacterize(ApplicationTrace(
            app_name, factory(Scale.parse("tiny")), suite=suite))
        assert cached == uncached

    def test_memoized_per_trace_object(self):
        app = APPS["gemm"]
        assert precharacterize(app) is precharacterize(app)

    @given(st.integers(1, 24))
    @settings(max_examples=20, deadline=None)
    def test_fixture_tasklists_reproducible(self, length):
        """Pure-function fixtures characterize identically on every
        construction — no hidden global state in the pass."""
        assert precharacterize(serial_chain_app(length)) == precharacterize(
            serial_chain_app(length)
        )


# ----------------------------------------------------------------------
# finite, positive, deterministic


class TestPredictionSanity:
    @given(
        st.integers(1, 40),
        st.sampled_from(["IADD3", "FFMA", "MUFU.RCP", "DADD"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_predictions_finite_and_positive(self, length, opcode):
        app = serial_chain_app(length, opcode)
        result = SwiftSimAnalytic(GPU).simulate(app)
        assert result.total_cycles > 0
        for kernel in result.kernels:
            assert kernel.cycles > 0
            assert kernel.end_cycle > kernel.start_cycle

    @given(st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_longer_chain_never_faster(self, length):
        simulator = SwiftSimAnalytic(GPU)
        shorter = simulator.simulate(serial_chain_app(length)).total_cycles
        longer = simulator.simulate(serial_chain_app(length + 1)).total_cycles
        assert longer >= shorter

    @given(
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 16)
    )
    @settings(max_examples=30, deadline=None)
    def test_multiwarp_predictions_finite_and_positive(
        self, num_blocks, warps_per_block, chain
    ):
        app = compute_only_app(num_blocks, warps_per_block, chain)
        totals = SwiftSimAnalytic(GPU).evaluate_batch(app)
        assert totals.shape == (1,)
        assert np.all(np.isfinite(totals.astype(np.float64)))
        assert int(totals[0]) > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_across_seeds(self, seed):
        """The model consumes no randomness: reseeding every RNG in
        sight must not move a single cycle."""
        stdlib_random.seed(seed)
        np.random.seed(seed % (2**32 - 1) or 1)
        app = independent_alu_app(12)
        result = SwiftSimAnalytic(GPU).simulate(app)
        baseline = SwiftSimAnalytic(GPU).simulate(independent_alu_app(12))
        assert result.total_cycles == baseline.total_cycles

    def test_repeated_simulate_identical(self):
        simulator = SwiftSimAnalytic(GPU)
        runs = {simulator.simulate(APPS["sm"]).total_cycles for __ in range(5)}
        assert len(runs) == 1
