"""Golden work counts: what a simulation *does*, pinned exactly.

`tests/data/golden_work_counts.json` snapshots, for the 16 (simulator,
app) pairs the performance benchmark times (`benchmarks/perf`:
swift-basic and swift-memory over bfs/adi/pagerank/atax, accel-like and
swift-basic over gemm/2mm/lstm/sm) at scale ``tiny`` on the RTX 2080 Ti,
the eight machine-independent counts that benchmark reports per layer:
engine dispatches and skipped cycles, committed instructions, L1/L2
sector accesses and hits, DRAM reads, NoC flits and total cycles.  They
are obtained the way the benchmark's counter pass obtains them, so a
change that makes a tier do more work for the same answer — an extra
wake per issue, a second cache probe — fails here on any host, with no
timing involved.  `tests/test_check_golden.py` pins cycles alone over
more apps; this pins the work behind them.

When a deliberate change shifts these numbers, regenerate with:

    PYTHONPATH=src:tests python - <<'EOF'
    import json
    import test_work_counts as t
    t.FIXTURE["counts"] = {
        app: {sim: t.work_counts(sim, app) for sim in sorted(per_sim)}
        for app, per_sim in sorted(t.FIXTURE["counts"].items())
    }
    with open(t.FIXTURE_PATH, "w") as fh:
        json.dump(t.FIXTURE, fh, indent=2, sort_keys=True); fh.write("\n")
    EOF

and explain the shift in the commit message.
"""

import json
import pathlib

import pytest

import repro
from repro.profile import profile_simulation

FIXTURE_PATH = pathlib.Path(__file__).parent / "data" / "golden_work_counts.json"

with FIXTURE_PATH.open() as _fh:
    FIXTURE = json.load(_fh)


def work_counts(simulator_name, app_name):
    gpu = repro.get_preset(FIXTURE["gpu_preset"])
    app = repro.make_app(app_name, scale=FIXTURE["scale"])
    result, report = profile_simulation(
        getattr(repro, simulator_name)(gpu), app, gather_metrics=True
    )
    engine = report.as_dict()["totals"]
    metrics = result.metrics
    return {
        "dispatches": engine["dispatches"],
        "skipped_cycles": engine["skipped_cycles"],
        "instructions_committed": metrics.instructions,
        "sector_accesses": metrics.total("sector_accesses"),
        "sector_hits": metrics.total("sector_hits"),
        "dram_reads": metrics.total("reads", prefix="dram"),
        "noc_flits": metrics.total("flits"),
        "total_cycles": result.total_cycles,
    }


@pytest.mark.parametrize(
    "simulator_name, app_name",
    [
        (simulator_name, app_name)
        for app_name, per_sim in sorted(FIXTURE["counts"].items())
        for simulator_name in sorted(per_sim)
    ],
)
def test_golden_work_counts(simulator_name, app_name):
    counts = work_counts(simulator_name, app_name)
    golden = FIXTURE["counts"][app_name][simulator_name]
    moved = {
        name: (golden.get(name), counts.get(name))
        for name in sorted(set(golden) | set(counts))
        if golden.get(name) != counts.get(name)
    }
    assert not moved, (
        f"{simulator_name} on {app_name} ({FIXTURE['gpu_preset']}, scale "
        f"{FIXTURE['scale']}): work counts changed, (golden, got) = {moved}; "
        f"regenerate the fixture if intentional (see module docstring)"
    )
