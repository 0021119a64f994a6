"""Golden regression: per-app cycle counts on a real GPU preset.

Two checked-in snapshots on the paper's RTX 2080 Ti, the baseline every
future performance refactor diffs against:

* ``tests/data/golden_suite_cycles.json`` — all three engine simulators
  over one full benchmark suite (Rodinia) at scale ``tiny``;
* ``tests/data/golden_fig4_small_cycles.json`` — the two ends of the
  hybrid spectrum, Swift-Sim-Basic and Swift-Sim-Analytic, over every
  application at the Figure 4 scale (``small``).

Simulation is fully deterministic, so any mismatch is a *timing-model
change*: fine when intentional, never by accident.

When a deliberate modeling change shifts these numbers, regenerate with:

    PYTHONPATH=src python - <<'EOF'
    import json
    import repro
    from repro.tracegen.suites import APPLICATIONS
    for path in ("tests/data/golden_suite_cycles.json",
                 "tests/data/golden_fig4_small_cycles.json"):
        fixture = json.load(open(path))
        gpu = repro.get_preset(fixture["gpu_preset"])
        simulators = sorted(next(iter(fixture["cycles"].values())))
        apps = [n for n, (s, _) in APPLICATIONS.items()
                if fixture["suite"] in (s, "all")]
        fixture["cycles"] = {
            name: {sim: getattr(repro, sim)(gpu).simulate(
                       repro.make_app(name, scale=fixture["scale"]),
                       gather_metrics=False).total_cycles
                   for sim in simulators}
            for name in apps
        }
        with open(path, "w") as fh:
            json.dump(fixture, fh, indent=2, sort_keys=True); fh.write("\n")
    EOF

and explain the shift in the commit message.
"""

import json
import pathlib

import pytest

import repro
from repro.tracegen.suites import APPLICATIONS

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: fixture file -> the simulators it must snapshot for every app.
SIMULATORS = {
    "golden_suite_cycles.json": ["AccelSimLike", "SwiftSimBasic", "SwiftSimMemory"],
    "golden_fig4_small_cycles.json": ["SwiftSimAnalytic", "SwiftSimBasic"],
}

FIXTURES = {
    file_name: json.loads((DATA_DIR / file_name).read_text())
    for file_name in SIMULATORS
}


def _cases():
    """One case per (fixture, simulator, app).  The suite fixture's ids
    are bare ``simulator-app``; every other fixture appends its scale."""
    for file_name, fixture in FIXTURES.items():
        suffix = "" if file_name == "golden_suite_cycles.json" else f"-{fixture['scale']}"
        for app_name, per_sim in sorted(fixture["cycles"].items()):
            for simulator_name, golden in sorted(per_sim.items()):
                yield pytest.param(
                    fixture["gpu_preset"], fixture["scale"], simulator_name,
                    app_name, golden, id=f"{simulator_name}-{app_name}{suffix}",
                )


def test_fixture_covers_the_whole_suite():
    """Every app of each snapshotted suite is present, with all of that
    fixture's simulators — a new app added to the suite must be
    snapshotted too."""
    for file_name, fixture in FIXTURES.items():
        suite_apps = sorted(
            name for name, (suite, _) in APPLICATIONS.items()
            if fixture["suite"] in (suite, "all")
        )
        assert sorted(fixture["cycles"]) == suite_apps, file_name
        for app_name, per_sim in fixture["cycles"].items():
            assert sorted(per_sim) == SIMULATORS[file_name], (file_name, app_name)


@pytest.mark.parametrize(
    "gpu_preset, scale, simulator_name, app_name, golden", _cases()
)
def test_golden_suite_cycles(gpu_preset, scale, simulator_name, app_name, golden):
    simulator = getattr(repro, simulator_name)(repro.get_preset(gpu_preset))
    app = repro.make_app(app_name, scale=scale)
    cycles = simulator.simulate(app, gather_metrics=False).total_cycles
    assert cycles == golden, (
        f"{simulator_name} on {app_name} ({gpu_preset}, scale {scale}): "
        f"timing model changed (got {cycles}, golden {golden}); regenerate "
        f"the fixture if intentional (see module docstring)"
    )
