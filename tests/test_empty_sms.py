"""Work is scale-free in the SMs that hold nothing.

An SM takes at most one block per cycle, in rank order, so exactly the
first ``min(num_sms, blocks)`` SMs of a kernel ever hold a block and no
plan builds or schedules the others.  Metamorphic consequence, pinned
here for every engine tier: growing the GPU beyond the widest kernel
changes neither the answer, nor any counter, nor the number of engine
dispatches.  (The first of ROADMAP item 2 (d)'s config-scaling
properties to cover the engine tiers.)
"""

import dataclasses

import pytest

from repro import AccelSimLike, SwiftSimBasic, SwiftSimMemory, get_preset, make_app
from repro.profile import profile_simulation


def _observe(simulator_cls, gpu, app):
    """Cycles, the full counter dict, and engine dispatches (one per
    ``EngineChecker.on_tick``, as ``test_work_counts.py`` counts them)."""
    result, report = profile_simulation(simulator_cls(gpu), app)
    dispatches = report.as_dict()["totals"]["dispatches"]
    return result.total_cycles, result.metrics.as_dict(), dispatches


@pytest.mark.parametrize("app_name", ["gemm", "bfs", "lstm"])
@pytest.mark.parametrize(
    "simulator_cls", [AccelSimLike, SwiftSimBasic, SwiftSimMemory],
    ids=lambda cls: cls.__name__,
)
def test_sms_beyond_the_widest_kernel_cost_nothing(simulator_cls, app_name):
    gpu = get_preset("rtx2080ti")
    app = make_app(app_name, scale="tiny")
    widest = max(len(kernel.blocks) for kernel in app.kernels)
    assert widest < gpu.num_sms  # otherwise the sizes below add nothing
    cycles, counters, ticks = _observe(
        simulator_cls, dataclasses.replace(gpu, num_sms=widest), app
    )
    assert cycles > 0 and ticks > 0
    for num_sms in (gpu.num_sms, 2 * gpu.num_sms):
        observed = _observe(
            simulator_cls, dataclasses.replace(gpu, num_sms=num_sms), app
        )
        assert observed == (cycles, counters, ticks), num_sms
