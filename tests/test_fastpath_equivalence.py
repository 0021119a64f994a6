"""Every hot-path optimization must be bit-invisible.

The engine picks its dispatch loop from one observable — is a checker
attached? — and the trace / hit-rate memos are always on.  Each fast
path keeps a reference reachable without any knob: attaching a no-op
:class:`~repro.sim.engine.EngineChecker` forces the instrumented loop,
and the registered factory in ``APPLICATIONS`` builds an unmemoised
trace.  This suite drives the same differential machinery
:mod:`repro.check` uses for jump-vs-per-cycle shadowing to prove that
every simulator produces identical cycle counts, kernel boundaries,
committed instructions and :class:`~repro.sim.metrics.MetricsGatherer`
counters either way — here with an *empty* ignore set, because both
runs use the same clocking.
"""

import pytest

from repro.check.shadow import compare_results
from repro.sim.engine import EngineChecker
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.base import Scale
from repro.tracegen.suites import APPLICATIONS, make_app

from conftest import make_tiny_gpu

APPS = ("gemm", "bfs", "sm")
SIMULATORS = (AccelSimLike, SwiftSimBasic, SwiftSimMemory)

NOTHING_IGNORED = frozenset()


@pytest.mark.parametrize("simulator_cls", SIMULATORS,
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("app_name", APPS)
def test_all_fastpaths_bit_identical(simulator_cls, app_name):
    """Uninstrumented loop vs instrumented loop (forced by a no-op
    checker): byte-for-byte identical observables."""
    app = make_app(app_name, scale="tiny")
    fast = simulator_cls(make_tiny_gpu()).simulate(app)
    reference = simulator_cls(make_tiny_gpu()).simulate(
        app, checker=EngineChecker())
    subject = f"{simulator_cls.__name__} x {app_name}"
    findings = compare_results(subject, fast, reference,
                               ignore_counters=NOTHING_IGNORED,
                               labels=("plain", "checker-attached"))
    assert not findings, "\n".join(f.message for f in findings)
    assert fast.total_cycles == reference.total_cycles


def test_trace_generation_identical_with_and_without_memo():
    """The memo must only cache — a memoized trace equals a fresh one."""
    fresh = APPLICATIONS["bfs"][1](Scale.parse("tiny"))
    cached_a = make_app("bfs", scale="tiny")
    cached_b = make_app("bfs", scale="tiny")
    # Kernel generation ran once (shared kernel objects), but each call
    # gets its own ApplicationTrace wrapper so one caller mutating its
    # kernels list cannot poison another's app.
    assert cached_a is not cached_b
    assert all(ka is kb for ka, kb in zip(cached_a.kernels, cached_b.kernels))
    assert all(ours is not theirs for ours, theirs in zip(fresh, cached_a.kernels))
    assert [k.name for k in fresh] == [k.name for k in cached_a.kernels]
    for ours, theirs in zip(fresh, cached_a.kernels):
        assert ours.num_instructions == theirs.num_instructions
        assert len(ours.blocks) == len(theirs.blocks)


def test_trace_memo_does_not_leak_mutations():
    """Regression for cross-caller poisoning: appending to one returned
    app's kernels list must not corrupt later make_app calls."""
    poisoned = make_app("sm", scale="tiny")
    count = len(poisoned.kernels)
    poisoned.kernels.append(lambda: None)
    clean = make_app("sm", scale="tiny")
    assert len(clean.kernels) == count
    assert all(not callable(k) or hasattr(k, "name") for k in clean.kernels)
