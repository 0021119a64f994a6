"""Experiment F4a — the analytic point on Figure 4's speed/accuracy
spectrum: Swift-Sim-Analytic vs the engine-based tiers.

The paper's framing is a spectrum of accuracy/speed points behind one
interface; the closed-form tier is its fast extreme.  The contract this
suite enforces (PPT-GPU-style two-phase model: one pre-characterization
pass, then vectorized closed-form evaluation):

* **model evaluation is >= 100x faster than Swift-Sim-Basic** on the
  small-scale Figure 4 suite.  Speedup is computed from
  ``wall_time_seconds`` — pure model time, excluding the one-time
  ``profile_seconds`` pre-characterization pass, exactly how the
  interval and memory tiers report their own amortized phase (the pass
  is measured and printed alongside, never hidden);
* **accuracy degrades but stays useful** — mean error vs the hardware
  oracle is printed beside the speedup, and the analytic tier stays
  within the wild-divergence band on every app.

The tier's small-scale cycle counts are pinned exactly in tier-1
(``tests/data/golden_fig4_small_cycles.json``), not here.
"""

import pytest

from repro.eval.figures import ACCEL, ANALYTIC, BASIC, MEMORY

pytest.importorskip("numpy")


def test_analytic_point_on_figure4(figure4_data, benchmark):
    """On the shared Figure 4 session: the analytic tier is the fastest
    point of the spectrum and its error stays bounded."""
    speedups = benchmark(lambda: figure4_data.geomean_speedup)
    print()
    print(figure4_data.render())
    assert speedups[ANALYTIC] > speedups[MEMORY] > speedups[BASIC] > 1.0
    errors = figure4_data.mean_error
    # The closed form trades accuracy for speed, but it must stay in the
    # same conversation as the hybrid tiers, not drift into noise.
    assert errors[ANALYTIC] < 100.0
    for row in figure4_data.suite.rows:
        assert row.speedup(ANALYTIC, ACCEL) > 1.0, row.app_name


def test_analytic_speedup_and_error(scale, apps, gpu):
    """Standalone measurement: >= 100x model-eval speedup over
    Swift-Sim-Basic at small scale, with the mean oracle error printed
    alongside.

    Standalone runs (not the shared figure session) so the timings are
    not contaminated by the in-process accel-like baseline; the
    pre-characterization pass is timed separately and printed —
    amortized to ~zero over a sweep, but never hidden.
    """
    from repro.oracle.hardware import HardwareOracle
    from repro.simulators.swift_analytic import SwiftSimAnalytic
    from repro.simulators.swift_basic import SwiftSimBasic
    from repro.tracegen.suites import make_app

    oracle = HardwareOracle(gpu)
    basic_total = 0.0
    analytic_total = 0.0
    profile_total = 0.0
    errors = []
    for name in apps:
        app = make_app(name, scale=scale)
        basic = SwiftSimBasic(gpu).simulate(app, gather_metrics=False)
        # The analytic evaluation is microseconds per app, so a single
        # shot is dominated by timer/GC noise — take the best of a few
        # repeats (the engine run is seconds; once is representative).
        runs = [SwiftSimAnalytic(gpu).simulate(app) for __ in range(5)]
        analytic = runs[0]
        assert len({r.total_cycles for r in runs}) == 1  # deterministic
        analytic_wall = min(r.wall_time_seconds for r in runs)
        measured = oracle.measure(app)
        basic_total += basic.wall_time_seconds
        analytic_total += analytic_wall
        profile_total += analytic.profile_seconds
        errors.append(100.0 * abs(analytic.total_cycles - measured) / measured)
    speedup = basic_total / analytic_total if analytic_total > 0 else 0.0
    mean_error = sum(errors) / len(errors)
    print(f"\nanalytic model-eval speedup over basic: {speedup:.1f}x "
          f"(pre-characterization {profile_total:.2f}s one-time, "
          f"mean oracle error {mean_error:.1f}%)")
    if scale == "tiny":
        # Tiny traces barely give the engine time to be slow; the 100x
        # contract is a small-scale statement (where it was calibrated).
        assert speedup > 5.0, f"only {speedup:.1f}x at tiny scale"
    else:
        assert speedup >= 100.0, (
            f"analytic model evaluation is only {speedup:.1f}x faster than "
            f"swift-basic at {scale} scale — the closed form lost its "
            f"reason to exist"
        )
    assert mean_error < 100.0
